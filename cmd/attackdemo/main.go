// Command attackdemo runs the paper's §III attacks end to end:
//
//   - the FORK attack (§III-B) against the Gu et al.-style baseline,
//     where it succeeds, and against this repository's Migration
//     Library, where it is prevented (requirement R3);
//   - the ROLL-BACK attack (§III-C) against the baseline with
//     KDC-based sealing, where it succeeds, and against the Migration
//     Library, where it is prevented (requirement R4).
//
// The output is a pass/fail matrix of attack x mechanism.
package main

import (
	"crypto/ed25519"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/gubaseline"
	"repro/internal/pse"
	"repro/internal/seal"
	"repro/internal/sgx"
	"repro/internal/sim"
	"repro/internal/xcrypto"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "attackdemo:", err)
		os.Exit(1)
	}
}

type versioned struct {
	Balance int    `json:"balance"`
	Version uint32 `json:"version"`
}

func appImage(name string) *sgx.Image {
	key := xcrypto.DeriveKey([]byte("attackdemo-signer"), "pub")
	return &sgx.Image{Name: name, Version: 1, Code: []byte(name), SignerPublicKey: ed25519.PublicKey(key[:])}
}

// run plays both attacks against both mechanisms and writes the matrix
// to out; it fails unless the outcome matches the paper.
func run(out io.Writer) error {
	fmt.Fprintln(out, "Attack matrix (paper §III):")
	fmt.Fprintln(out)

	forkBaseline, err := forkAttackBaseline()
	if err != nil {
		return err
	}
	forkOurs, err := forkAttackOurs()
	if err != nil {
		return err
	}
	rollBaseline, err := rollbackAttackBaseline()
	if err != nil {
		return err
	}
	rollOurs, err := rollbackAttackOurs()
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "  %-22s %-28s %-28s\n", "attack", "Gu et al. baseline", "this work (Migration Lib)")
	fmt.Fprintf(out, "  %-22s %-28s %-28s\n", "fork (III-B)", verdict(forkBaseline), verdict(forkOurs))
	fmt.Fprintf(out, "  %-22s %-28s %-28s\n", "roll-back (III-C)", verdict(rollBaseline), verdict(rollOurs))
	fmt.Fprintln(out)
	if forkBaseline && rollBaseline && !forkOurs && !rollOurs {
		fmt.Fprintln(out, "Result matches the paper: both attacks work against the baseline and")
		fmt.Fprintln(out, "are prevented by migrating persistent state with the Migration Library.")
		return nil
	}
	return fmt.Errorf("unexpected attack outcome: fork=%v/%v rollback=%v/%v",
		forkBaseline, forkOurs, rollBaseline, rollOurs)
}

func verdict(succeeded bool) string {
	if succeeded {
		return "ATTACK SUCCEEDS"
	}
	return "attack prevented"
}

// forkAttackBaseline runs §III-B against the Gu baseline (freeze flag not
// persisted). Returns true if the fork succeeds.
func forkAttackBaseline() (bool, error) {
	lat := sim.NewInstantLatency()
	mA, err := sgx.NewMachine("A", lat)
	if err != nil {
		return false, err
	}
	mB, err := sgx.NewMachine("B", lat)
	if err != nil {
		return false, err
	}
	ctrA, ctrB := pse.NewService(lat), pse.NewService(lat)
	img := appImage("baseline-app")

	// Step 1: run on A, persist state v=1.
	eA, err := mA.Load(img)
	if err != nil {
		return false, err
	}
	libA := gubaseline.NewLibrary(eA, ctrA, gubaseline.Config{}, nil)
	refA, _, err := libA.CreateCounter()
	if err != nil {
		return false, err
	}
	v, err := libA.IncrementCounter(refA)
	if err != nil {
		return false, err
	}
	raw, _ := json.Marshal(versioned{Balance: 100, Version: v})
	blobA, err := libA.Seal(nil, raw)
	if err != nil {
		return false, err
	}
	uuidA, _ := libA.CounterUUID(refA)
	_ = libA.SetMemory(raw)

	// Step 2: migrate the enclave memory to B and keep operating there.
	eB, err := mB.Load(img)
	if err != nil {
		return false, err
	}
	libB := gubaseline.NewLibrary(eB, ctrB, gubaseline.Config{}, nil)
	hs, err := libB.PrepareImport()
	if err != nil {
		return false, err
	}
	image, err := libA.ExportMemory(hs.PublicKey())
	if err != nil {
		return false, err
	}
	if err := libB.ImportMemory(hs, image); err != nil {
		return false, err
	}
	refB, _, err := libB.CreateCounter()
	if err != nil {
		return false, err
	}
	if _, err := libB.IncrementCounter(refB); err != nil {
		return false, err
	}

	// Step 3: restart the process on A from the old persistent state.
	eA2, err := mA.Load(img)
	if err != nil {
		return false, err
	}
	libA2 := gubaseline.NewLibrary(eA2, ctrA, gubaseline.Config{}, nil)
	refA2 := libA2.AdoptCounter(uuidA)
	rawBack, _, err := libA2.Unseal(blobA)
	if err != nil {
		return false, nil // could not restore: attack failed
	}
	var st versioned
	if err := json.Unmarshal(rawBack, &st); err != nil {
		return false, err
	}
	cur, err := libA2.ReadCounter(refA2)
	if err != nil || st.Version != cur {
		return false, nil
	}
	// Both instances can now transact concurrently: the fork is live.
	if _, err := libA2.IncrementCounter(refA2); err != nil {
		return false, nil
	}
	if _, err := libB.IncrementCounter(refB); err != nil {
		return false, nil
	}
	return true, nil
}

// forkAttackOurs runs the same schedule against the Migration Library.
func forkAttackOurs() (bool, error) {
	dc, err := cloud.NewDataCenter("dc", sim.NewInstantLatency())
	if err != nil {
		return false, err
	}
	src, err := dc.AddMachine("src")
	if err != nil {
		return false, err
	}
	dst, err := dc.AddMachine("dst")
	if err != nil {
		return false, err
	}
	img := appImage("our-app")
	storage := core.NewMemoryStorage()
	app, err := src.LaunchApp(img, storage, core.InitNew)
	if err != nil {
		return false, err
	}
	ctr, _, err := app.Library.CreateCounter()
	if err != nil {
		return false, err
	}
	if _, err := app.Library.IncrementCounter(ctr); err != nil {
		return false, err
	}
	preMigration := storage.Versions()
	if err := app.Library.StartMigration(dst.MEAddress()); err != nil {
		return false, err
	}
	app.Terminate()
	dstApp, err := dst.LaunchApp(img, core.NewMemoryStorage(), core.InitMigrated)
	if err != nil {
		return false, err
	}
	if _, err := dstApp.Library.IncrementCounter(ctr); err != nil {
		return false, err
	}

	// Fork attempt: restart on the source from every stale blob.
	for i := 0; i < preMigration; i++ {
		staleStorage := core.NewMemoryStorage()
		blob, _ := storage.Snapshot(i)
		_ = staleStorage.Save(blob)
		forked, err := src.LaunchApp(img, staleStorage, core.InitRestore)
		if err != nil {
			continue // refused outright
		}
		if _, err := forked.Library.IncrementCounter(ctr); err == nil {
			return true, nil // fork achieved
		}
		forked.Terminate()
	}
	return false, nil
}

// rollbackAttackBaseline runs §III-C against the baseline with KDC
// sealing. Returns true if the stale state is accepted.
func rollbackAttackBaseline() (bool, error) {
	lat := sim.NewInstantLatency()
	mA, err := sgx.NewMachine("A", lat)
	if err != nil {
		return false, err
	}
	mB, err := sgx.NewMachine("B", lat)
	if err != nil {
		return false, err
	}
	ctrA, ctrB := pse.NewService(lat), pse.NewService(lat)
	img := appImage("baseline-app")
	kdcKey, err := xcrypto.RandomBytes(16)
	if err != nil {
		return false, err
	}

	eA, err := mA.Load(img)
	if err != nil {
		return false, err
	}
	libA := gubaseline.NewLibrary(eA, ctrA, gubaseline.Config{}, nil)
	refA, _, err := libA.CreateCounter()
	if err != nil {
		return false, err
	}
	persist := func(lib *gubaseline.Library, ref int, balance int) ([]byte, error) {
		v, err := lib.IncrementCounter(ref)
		if err != nil {
			return nil, err
		}
		raw, _ := json.Marshal(versioned{Balance: balance, Version: v})
		return seal.SealRaw(kdcKey, nil, raw)
	}
	blobV1, err := persist(libA, refA, 100)
	if err != nil {
		return false, err
	}
	if _, err := persist(libA, refA, 60); err != nil {
		return false, err
	}
	if _, err := persist(libA, refA, 10); err != nil {
		return false, err
	}

	// Migrate to B; termination there creates a fresh counter c'=1.
	eB, err := mB.Load(img)
	if err != nil {
		return false, err
	}
	libB := gubaseline.NewLibrary(eB, ctrB, gubaseline.Config{}, nil)
	refB, _, err := libB.CreateCounter()
	if err != nil {
		return false, err
	}
	if _, err := libB.IncrementCounter(refB); err != nil {
		return false, err
	}
	// Restart with the ORIGINAL v=1 blob: version check passes -> rollback.
	raw, _, err := seal.UnsealRaw(kdcKey, blobV1)
	if err != nil {
		return false, err
	}
	var st versioned
	if err := json.Unmarshal(raw, &st); err != nil {
		return false, err
	}
	cur, err := libB.ReadCounter(refB)
	if err != nil {
		return false, err
	}
	return st.Version == cur, nil
}

// rollbackAttackOurs runs the same schedule against the Migration Library.
func rollbackAttackOurs() (bool, error) {
	dc, err := cloud.NewDataCenter("dc2", sim.NewInstantLatency())
	if err != nil {
		return false, err
	}
	src, err := dc.AddMachine("src")
	if err != nil {
		return false, err
	}
	dst, err := dc.AddMachine("dst")
	if err != nil {
		return false, err
	}
	img := appImage("our-app")
	app, err := src.LaunchApp(img, core.NewMemoryStorage(), core.InitNew)
	if err != nil {
		return false, err
	}
	ctr, _, err := app.Library.CreateCounter()
	if err != nil {
		return false, err
	}
	persist := func(a *cloud.App, balance int) ([]byte, error) {
		v, err := a.Library.IncrementCounter(ctr)
		if err != nil {
			return nil, err
		}
		raw, _ := json.Marshal(versioned{Balance: balance, Version: v})
		return a.Library.SealMigratable(nil, raw)
	}
	blobV1, err := persist(app, 100)
	if err != nil {
		return false, err
	}
	if _, err := persist(app, 60); err != nil {
		return false, err
	}
	if _, err := persist(app, 10); err != nil {
		return false, err
	}
	if err := app.Library.StartMigration(dst.MEAddress()); err != nil {
		return false, err
	}
	app.Terminate()
	dstApp, err := dst.LaunchApp(img, core.NewMemoryStorage(), core.InitMigrated)
	if err != nil {
		return false, err
	}
	raw, _, err := dstApp.Library.UnsealMigratable(blobV1)
	if err != nil {
		return false, err
	}
	var st versioned
	if err := json.Unmarshal(raw, &st); err != nil {
		return false, err
	}
	cur, err := dstApp.Library.ReadCounter(ctr)
	if err != nil {
		return false, err
	}
	return st.Version == cur, nil
}
