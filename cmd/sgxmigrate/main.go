// Command sgxmigrate is the CLI demonstration of the full system: it
// provisions a simulated data center with two (or more) SGX machines,
// launches a migratable enclave with sealed data and monotonic counters
// on the first machine, migrates it to the second over the Fig. 2
// protocol (optionally across real TCP sockets), and verifies that the
// persistent state survived and that the frozen source refuses to restart.
//
//	sgxmigrate                 in-memory transport, 2 machines
//	sgxmigrate -tcp            Migration Enclaves talk over TCP loopback
//	sgxmigrate -machines 4     chain-migrate across 4 machines
//	sgxmigrate -counters 8     number of counters carried across
package main

import (
	"crypto/ed25519"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/sgx"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/xcrypto"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sgxmigrate:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sgxmigrate", flag.ContinueOnError)
	var (
		useTCP   = fs.Bool("tcp", false, "run the Migration Enclave protocol over TCP loopback")
		machines = fs.Int("machines", 2, "number of machines to chain-migrate across")
		counters = fs.Int("counters", 4, "number of monotonic counters in the enclave")
		scale    = fs.Float64("scale", 0, "latency scale (1 = paper-magnitude ME latencies)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *machines < 2 {
		return fmt.Errorf("need at least 2 machines, got %d", *machines)
	}
	if *counters < 1 || *counters > core.NumCounters {
		return fmt.Errorf("counters must be in [1, %d]", core.NumCounters)
	}

	lat := sim.NewLatency(*scale)
	var (
		dc  *cloud.DataCenter
		err error
	)
	if *useTCP {
		tcp := transport.NewTCPTransport()
		defer tcp.Close()
		dc, err = cloud.NewDataCenterWithNetwork("demo-dc", lat, tcp)
	} else {
		dc, err = cloud.NewDataCenter("demo-dc", lat)
	}
	if err != nil {
		return err
	}

	fleet := make([]*cloud.Machine, 0, *machines)
	for i := 0; i < *machines; i++ {
		id := fmt.Sprintf("machine-%d", i)
		var m *cloud.Machine
		if *useTCP {
			addr, err := freePort()
			if err != nil {
				return err
			}
			m, err = dc.AddMachineAt(id, addr)
			if err != nil {
				return err
			}
		} else {
			m, err = dc.AddMachine(id)
			if err != nil {
				return err
			}
		}
		fleet = append(fleet, m)
		fmt.Fprintf(out, "provisioned %-10s ME at %s\n", id, m.MEAddress())
	}

	signer := xcrypto.DeriveKey([]byte("sgxmigrate-demo"), "signer")
	img := &sgx.Image{
		Name:            "demo-enclave",
		Version:         1,
		Code:            []byte("demo enclave with persistent state"),
		SignerPublicKey: ed25519.PublicKey(signer[:]),
	}

	fmt.Fprintf(out, "\nlaunching enclave on %s (MRENCLAVE %s)\n", fleet[0].HW.ID(), img.Measure())
	storage := core.NewMemoryStorage()
	app, err := fleet[0].LaunchApp(img, storage, core.InitNew)
	if err != nil {
		return err
	}
	ids := make([]int, *counters)
	for i := range ids {
		id, _, err := app.Library.CreateCounter()
		if err != nil {
			return err
		}
		ids[i] = id
		for j := 0; j <= i; j++ {
			if _, err := app.Library.IncrementCounter(id); err != nil {
				return err
			}
		}
	}
	secret := []byte("provisioned secret: survives every migration")
	sealed, err := app.Library.SealMigratable([]byte("demo"), secret)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "created %d counters (values 1..%d) and sealed %d bytes\n\n", *counters, *counters, len(secret))

	for hop := 1; hop < len(fleet); hop++ {
		from, to := fleet[hop-1], fleet[hop]
		fmt.Fprintf(out, "migrating %s -> %s ... ", from.HW.ID(), to.HW.ID())
		start := time.Now()
		if err := app.Library.StartMigration(to.MEAddress()); err != nil {
			return fmt.Errorf("start migration: %w", err)
		}
		app.Terminate()
		app, err = to.LaunchApp(img, core.NewMemoryStorage(), core.InitMigrated)
		if err != nil {
			return fmt.Errorf("restore on %s: %w", to.HW.ID(), err)
		}
		fmt.Fprintf(out, "done in %s\n", time.Since(start).Round(time.Microsecond))

		// Verify state continuity after each hop.
		for i, id := range ids {
			v, err := app.Library.ReadCounter(id)
			if err != nil {
				return fmt.Errorf("counter %d after hop: %w", i, err)
			}
			if v != uint32(i+1) {
				return fmt.Errorf("counter %d = %d after hop, want %d", i, v, i+1)
			}
		}
		pt, _, err := app.Library.UnsealMigratable(sealed)
		if err != nil {
			return fmt.Errorf("unseal after hop: %w", err)
		}
		if string(pt) != string(secret) {
			return fmt.Errorf("sealed data corrupted after hop")
		}
		fmt.Fprintf(out, "  state verified on %s: %d counters intact, sealed data decrypts\n",
			to.HW.ID(), len(ids))
	}

	// The first source is frozen: restarting it from its persisted blob
	// refuses to operate, so no fork is possible.
	if _, err := fleet[0].LaunchApp(img, storage, core.InitRestore); !errors.Is(err, core.ErrFrozen) {
		return fmt.Errorf("restart of the frozen source: %v, want %v", err, core.ErrFrozen)
	}
	fmt.Fprintf(out, "\nenclave migrated across %d machines with persistent state intact; source restart refused (frozen)\n", len(fleet))
	return nil
}

// freePort reserves an ephemeral loopback port.
func freePort() (transport.Address, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return transport.Address(addr), nil
}
