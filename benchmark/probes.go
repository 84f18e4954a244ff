package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/attest"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/pse"
	"repro/internal/seal"
	"repro/internal/sgx"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/xcrypto"
)

// Per-layer probes: each times calls into one layer's exported functions
// from outside, with inputs sized like the workloads use them. A probe
// runs a fixed number of operations in a fixed number of batches and
// reports the median batch mean.
//
// To add a probe: add its name to perLayer in spec.go and to
// BENCHMARK.json, write a function here that stores the value under that
// name, and call it from runProbes. TestQuickTracedPass then checks that
// the name is emitted.

const probeBatches = 5

// probeSet collects probe values. The first failing probe sticks in err
// and turns the rest into no-ops, so a probe function reads as a list of
// measurements and returns p.err once.
type probeSet struct {
	quick  bool
	values map[string]float64
	err    error
}

// scaleN shrinks a probe's batch in -quick mode.
func (p *probeSet) scaleN(n int) int {
	if p.quick {
		return max(1, n/50)
	}
	return n
}

// time runs f n times per batch and stores the median batch mean under
// name, in units of unit.
func (p *probeSet) time(name string, unit time.Duration, n int, f func() error) {
	if p.err != nil {
		return
	}
	n = p.scaleN(n)
	means := make([]float64, 0, probeBatches)
	for b := 0; b < probeBatches; b++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := f(); err != nil {
				p.err = fmt.Errorf("probe %s: %w", name, err)
				return
			}
		}
		means = append(means, float64(time.Since(start))/float64(n)/float64(unit))
	}
	p.values[name] = stats.Median(means)
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}

// runProbes runs every workload-independent probe.
func runProbes(quick bool) (map[string]float64, error) {
	p := &probeSet{quick: quick, values: make(map[string]float64)}
	for _, f := range []func() error{
		p.xcrypto, p.attestSealPSE, p.wirec, p.transport, p.pserepl,
		p.coreBatch, p.cloudFleet, p.federation, p.obsIncrement,
	} {
		if err := f(); err != nil {
			return nil, err
		}
		runtime.GC()
	}
	return p.values, nil
}

func (p *probeSet) xcrypto() error {
	peer, err := xcrypto.NewKeyExchange()
	if err != nil {
		return err
	}
	peerPub := peer.PublicBytes()
	// One side of an attested handshake: ephemeral keygen plus ECDH.
	p.time("xcrypto.ecdh_us", time.Microsecond, 40, func() error {
		k, err := xcrypto.NewKeyExchange()
		if err != nil {
			return err
		}
		_, err = k.Shared(peerPub)
		return err
	})

	authority, err := xcrypto.NewAuthority("probe-ca")
	if err != nil {
		return err
	}
	signer, err := xcrypto.NewCertifiedSigner(authority, "probe-me", "migration-enclave", time.Hour)
	if err != nil {
		return err
	}
	msg := pattern(256)
	var sig []byte
	p.time("xcrypto.sign_us", time.Microsecond, 100, func() error {
		sig = signer.Sign(msg)
		return nil
	})
	verifier := xcrypto.NewVerifier(authority)
	// What a peer does with a presented credential: verify the chain,
	// then the transcript signature.
	p.time("xcrypto.verify_cert_us", time.Microsecond, 50, func() error {
		if err := verifier.Verify(signer.Cert); err != nil {
			return err
		}
		return xcrypto.VerifyWithCert(signer.Cert, msg, sig)
	})

	key := xcrypto.DeriveKey([]byte("probe"), "aead")
	sealer, err := xcrypto.NewSealer(key[:])
	if err != nil {
		return err
	}
	aad, oneK, big := []byte("probe-aad"), pattern(1<<10), pattern(64<<10)
	var box []byte
	p.time("xcrypto.aead_seal_1k_ns", time.Nanosecond, 2000, func() error {
		box, err = sealer.Seal(oneK, aad)
		return err
	})
	p.time("xcrypto.aead_open_1k_ns", time.Nanosecond, 2000, func() error {
		_, err := sealer.Open(box, aad)
		return err
	})
	p.time("xcrypto.aead_seal_64k_us", time.Microsecond, 100, func() error {
		_, err := sealer.Seal(big, aad)
		return err
	})

	a, b := xcrypto.ChannelPair(key[:], []byte("probe-transcript"))
	p.time("xcrypto.channel_roundtrip_256B_ns", time.Nanosecond, 2000, func() error {
		wire, err := a.Seal(msg)
		if err != nil {
			return err
		}
		_, err = b.Open(wire)
		return err
	})

	stream, err := xcrypto.NewStreamSealer(key)
	if err != nil {
		return err
	}
	fourK := pattern(4 << 10)
	seq := uint64(0)
	p.time("xcrypto.stream_roundtrip_4k_ns", time.Nanosecond, 1000, func() error {
		seq++
		_, err := stream.OpenAt(seq, stream.SealAt(seq, fourK, aad), aad)
		return err
	})
	p.time("xcrypto.derive_key_ns", time.Nanosecond, 2000, func() error {
		_ = xcrypto.DeriveKey(key[:], "probe-label", aad)
		return nil
	})
	return p.err
}

func (p *probeSet) attestSealPSE() error {
	dc, _, err := env{}.newDC("probe-hw", 0)
	if err != nil {
		return err
	}
	m, err := dc.AddMachine("hw-0")
	if err != nil {
		return err
	}
	e1, err := m.HW.Load(appImage("probe-a"))
	if err != nil {
		return err
	}
	e2, err := m.HW.Load(appImage("probe-b"))
	if err != nil {
		return err
	}
	p.time("attest.local_attest_us", time.Microsecond, 30, func() error {
		_, _, err := attest.LocalAttest(e1, e2)
		return err
	})
	data := sgx.MakeReportData([]byte("probe"))
	p.time("attest.quote_verify_us", time.Microsecond, 30, func() error {
		q, err := m.QE.Quote(e1, data)
		if err != nil {
			return err
		}
		return dc.IAS.Verify(q)
	})

	// The paper's native baselines (Fig. 4): SGX sealing under MRENCLAVE.
	aad, small, large := []byte("probe-aad"), pattern(100), pattern(100*1024)
	p.time("seal.native_seal_100B_ns", time.Nanosecond, 1000, func() error {
		_, err := seal.Seal(e1, sgx.PolicyMRENCLAVE, aad, small)
		return err
	})
	var blob []byte
	p.time("seal.native_seal_100k_us", time.Microsecond, 50, func() error {
		blob, err = seal.Seal(e1, sgx.PolicyMRENCLAVE, aad, large)
		return err
	})
	p.time("seal.native_unseal_100k_us", time.Microsecond, 50, func() error {
		_, _, err := seal.Unseal(e1, blob)
		return err
	})
	key := xcrypto.DeriveKey([]byte("probe"), "state")
	ss, err := seal.NewStateSealer(key[:])
	if err != nil {
		return err
	}
	fourK := pattern(4 << 10)
	p.time("seal.state_seal_4k_ns", time.Nanosecond, 1000, func() error {
		_, err := ss.Seal(aad, fourK)
		return err
	})

	// Native Platform Services counters (Fig. 3 baselines).
	uuid, _, err := m.Counters.Create(e1)
	if err != nil {
		return err
	}
	p.time("pse.increment_ns", time.Nanosecond, 2000, func() error {
		_, err := m.Counters.Increment(e1, uuid)
		return err
	})
	p.time("pse.read_ns", time.Nanosecond, 2000, func() error {
		_, err := m.Counters.Read(e1, uuid)
		return err
	})
	p.time("pse.create_destroy_ns", time.Nanosecond, 500, func() error {
		u, _, err := m.Counters.Create(e1)
		if err != nil {
			return err
		}
		return m.Counters.Destroy(e1, u)
	})
	return p.err
}

// sampleMigrationData is a Table I payload with a few active counters.
func sampleMigrationData() *core.MigrationData {
	var d core.MigrationData
	for i := 0; i < 3; i++ {
		d.CountersActive[i] = true
		d.CounterValues[i] = uint32(1000 + i)
	}
	copy(d.MSK[:], pattern(core.MSKSize))
	return &d
}

func (p *probeSet) wirec() error {
	d := sampleMigrationData()
	p.time("wirec.migration_data_roundtrip_ns", time.Nanosecond, 1000, func() error {
		raw, err := d.Encode()
		if err != nil {
			return err
		}
		_, err = core.DecodeMigrationData(raw)
		return err
	})

	journal := fleet.NewJournal()
	for i := 0; i < 1000; i++ {
		journal.Record(fleet.Entry{
			App: fmt.Sprintf("tenant-%05d", i), Source: "a1", PlannedDest: "b1", Dest: "b1",
			Attempts: 1, StateBytes: 1090, Counters: 2, Link: "a~b", Latency: 150 * time.Millisecond,
			SourceFrozen: true, DoneConfirmed: true, Status: fleet.StatusCompleted,
		})
	}
	p.time("wirec.journal_roundtrip_us_per_1k", time.Microsecond, 4, func() error {
		raw, err := journal.Encode()
		if err != nil {
			return err
		}
		_, err = fleet.DecodeJournal(raw)
		return err
	})

	authority, err := xcrypto.NewAuthority("probe-ca")
	if err != nil {
		return err
	}
	cert, err := authority.Issue("probe-me", "migration-enclave", pattern(32), time.Hour)
	if err != nil {
		return err
	}
	p.time("wirec.cert_json_roundtrip_us", time.Microsecond, 200, func() error {
		raw, err := cert.Encode()
		if err != nil {
			return err
		}
		_, err = xcrypto.DecodeCertificate(raw)
		return err
	})
	p.time("wirec.grant_roundtrip_us", time.Microsecond, 200, func() error {
		raw, err := federation.EncodeGrant(cert)
		if err != nil {
			return err
		}
		_, err = federation.DecodeGrant(raw)
		return err
	})
	return p.err
}

func echo(msg transport.Message) ([]byte, error) { return msg.Payload, nil }

func (p *probeSet) transport() error {
	lat := sim.NewLatency(0)
	net := transport.NewNetwork(lat)
	if err := net.Register("echo", echo); err != nil {
		return err
	}
	small, fourK := pattern(256), pattern(4<<10)
	p.time("transport.network_hop_256B_ns", time.Nanosecond, 2000, func() error {
		_, err := net.Send("client", "echo", "probe", small)
		return err
	})

	far := transport.NewNetwork(lat)
	if err := far.Register("far-echo", echo); err != nil {
		return err
	}
	link := transport.NewWANLink("probe-link", net, far, transport.WANConfig{RTT: drainLinkRTT, Bandwidth: drainLinkBandwidth})
	if err := link.Export(transport.SideB, "far-echo"); err != nil {
		return err
	}
	p.time("transport.wan_hop_4k_us", time.Microsecond, 1000, func() error {
		_, err := net.Send("client", "far-echo", "probe", fourK)
		return err
	})

	// Loopback TCP: the one transport whose cost is real, not modeled.
	tcp := transport.NewTCPTransport()
	defer tcp.Close()
	if err := tcp.Register("127.0.0.1:0", echo); err != nil {
		return err
	}
	addr, _ := tcp.BoundAddr("127.0.0.1:0")
	p.time("transport.tcp_hop_256B_us", time.Microsecond, 100, func() error {
		_, err := tcp.Send("client", addr, "probe", small)
		return err
	})

	// A batch chunk's worth of Table I records, as the WAN path compresses
	// them beneath the AEAD boundary.
	rec, err := sampleMigrationData().Encode()
	if err != nil {
		return err
	}
	chunk := bytes.Repeat(rec, 4)
	var frame []byte
	p.time("transport.compress_4k_us", time.Microsecond, 200, func() error {
		frame, err = transport.CompressFrame(chunk)
		if err != nil {
			return err
		}
		_, err = transport.DecompressFrame(frame, 0)
		return err
	})
	p.values["transport.compress_ratio"] = float64(len(frame)) / float64(len(chunk))
	return p.err
}

func (p *probeSet) pserepl() error {
	tr := newTracer()
	w, err := env{tr: tr}.newRackWorld("probe-rack")
	if err != nil {
		return err
	}
	e, err := w.host.HW.Load(appImage("probe-repl"))
	if err != nil {
		return err
	}
	uuid, _, err := w.group.Create(e)
	if err != nil {
		return err
	}
	// Closed loop, back to back, retrying a transient refusal: the same
	// client as the rack workload, one layer down.
	attempts := 0
	w.group.Quiesce()
	before := w.probe.msgs.Load()
	p.time("pserepl.increment_us", time.Microsecond, 300, func() error {
		_, retries, err := retryNoQuorum(func() (uint32, error) { return w.group.Increment(e, uuid) })
		attempts += 1 + retries
		return err
	})
	// An exact count, read once the last calls' stragglers have landed:
	// one message per replica per attempt, plus the read-repairs of
	// replicas a call overtook.
	w.group.Quiesce()
	p.values["pserepl.msgs_per_increment"] = float64(w.probe.msgs.Load()-before) / float64(max(attempts, 1))
	p.time("pserepl.read_us", time.Microsecond, 300, func() error {
		_, _, err := retryNoQuorum(func() (uint32, error) { return w.group.Read(e, uuid) })
		return err
	})

	owner := appImage("probe-escrow").Measure()
	version := uint32(0)
	for _, c := range []struct {
		name string
		size int
		n    int
	}{{"pserepl.escrow_put_get_4k_us", 4 << 10, 100}, {"pserepl.escrow_put_get_1m_us", 1 << 20, 5}} {
		blob := pattern(c.size)
		id := [16]byte{0xEC, byte(c.size >> 12)}
		p.time(c.name, time.Microsecond, c.n, func() error {
			version++
			if err := w.group.EscrowPut(owner, id, version, pse.UUID{ID: 1}, blob); err != nil {
				return err
			}
			_, _, got, err := w.group.EscrowGet(owner, id)
			if err == nil && len(got) != len(blob) {
				err = fmt.Errorf("escrow returned %d bytes, want %d", len(got), len(blob))
			}
			return err
		})
	}
	return p.err
}

// coreBatch times the core batch pipeline without fleet: BeginBatch, 64
// frozen members Added, Finish; plus one library initialisation.
func (p *probeSet) coreBatch() error {
	dc, _, err := env{}.newDC("probe-core", 0)
	if err != nil {
		return err
	}
	ms, err := addMachines(dc, "core-0", "core-1")
	if err != nil {
		return err
	}
	src, dst := ms[0], ms[1]
	initImg := appImage("probe-init")
	p.time("core.init_new_us", time.Microsecond, 40, func() error {
		e, err := src.HW.Load(initImg)
		if err != nil {
			return err
		}
		lib := core.NewLibrary(e, src.Counters, core.NewMemoryStorage())
		err = lib.Init(core.InitNew, src.ME)
		src.HW.Destroy(e)
		return err
	})

	members := 64
	if p.quick {
		members = 4
	}
	var perMember []float64
	for round := 0; round < 3; round++ {
		apps := make([]*cloud.App, members)
		for i := range apps {
			img := appImage(fmt.Sprintf("probe-batch-%d-%d", round, i))
			if apps[i], err = src.LaunchApp(img, core.NewMemoryStorage(), core.InitNew); err != nil {
				return err
			}
			if _, _, err := apps[i].Library.CreateCounter(); err != nil {
				return err
			}
		}
		start := time.Now()
		bs, err := src.ME.BeginBatch(dst.MEAddress(), members, core.BatchOpts{})
		if err != nil {
			return fmt.Errorf("probe core.batch: %w", err)
		}
		delivered := make(chan int)
		go func() {
			n := 0
			for range bs.Delivered() {
				n++
			}
			delivered <- n
		}()
		for i, app := range apps {
			if err := app.Library.StartMigrationHeld(dst.MEAddress()); err != nil {
				return fmt.Errorf("probe core.batch freeze: %w", err)
			}
			if err := bs.Add(uint32(i), app.Library.MigrationToken()); err != nil {
				return fmt.Errorf("probe core.batch add: %w", err)
			}
		}
		statuses, err := bs.Finish()
		d := time.Since(start)
		n := <-delivered
		if err != nil {
			return fmt.Errorf("probe core.batch finish: %w", err)
		}
		for i, st := range statuses {
			if !st.OK {
				return fmt.Errorf("probe core.batch: member %d refused: %s", i, st.Detail)
			}
		}
		if n != members {
			return fmt.Errorf("probe core.batch: %d of %d members delivered", n, members)
		}
		perMember = append(perMember, float64(d)/float64(members)/float64(time.Microsecond))
		// Resume every member so the destination ME's pending table
		// empties before the next round.
		for _, app := range apps {
			app.Terminate()
			moved, err := dst.LaunchApp(app.Image(), core.NewMemoryStorage(), core.InitMigrated)
			if err != nil {
				return fmt.Errorf("probe core.batch restore: %w", err)
			}
			moved.Terminate()
		}
	}
	p.values["core.batch_us_per_member"] = stats.Median(perMember)
	return p.err
}

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// cloudFleet launches a fleet's worth of enclaves the way the drain
// workloads provision theirs, then compiles a drain plan over them.
func (p *probeSet) cloudFleet() error {
	dc, _, err := env{}.newDC("probe-cloud", 0)
	if err != nil {
		return err
	}
	ms, err := addMachines(dc, "cloud-0", "cloud-1", "cloud-2")
	if err != nil {
		return err
	}
	n := p.scaleN(1000)
	before := heapAlloc()
	apps := make([]*cloud.App, n)
	start := time.Now()
	for i := range apps {
		if apps[i], err = ms[0].LaunchApp(appImage(fmt.Sprintf("probe-tenant-%05d", i)), core.NewMemoryStorage(), core.InitNew); err != nil {
			return err
		}
	}
	p.values["cloud.launch_app_us"] = float64(time.Since(start)) / float64(n) / float64(time.Microsecond)
	after := heapAlloc()
	p.values["cloud.heap_kb_per_enclave"] = float64(int64(after)-int64(before)) / float64(n) / 1024

	plan := fleet.Drain(ms[0].ID())
	p.time("fleet.compile_us_per_1k", time.Microsecond, 1, func() error {
		as, err := plan.Compile(dc)
		if err == nil && len(as) != n {
			err = fmt.Errorf("compiled %d assignments, want %d", len(as), n)
		}
		return err
	})
	p.values["fleet.compile_us_per_1k"] *= 1000 / float64(n)
	runtime.KeepAlive(apps)
	return p.err
}

// federation times the cross-DC variant of rack recovery (context for
// the rack workload; no end-to-end row yet) and one mirror flush.
func (p *probeSet) federation() error {
	fed := federation.New("probe-fed")
	defer fed.Close()
	var dcs []*cloud.DataCenter
	for _, prefix := range []string{"a", "b"} {
		dc, _, err := env{}.newDC("probe-fed-"+prefix, 0)
		if err != nil {
			return err
		}
		ids := []string{prefix + "1", prefix + "2", prefix + "3"}
		if _, err := addMachines(dc, ids...); err != nil {
			return err
		}
		if _, err := dc.NewReplicaGroup("rack-"+prefix, 1, ids...); err != nil {
			return err
		}
		if err := fed.Admit(dc); err != nil {
			return err
		}
		dcs = append(dcs, dc)
	}
	if _, err := fed.Connect(dcs[0].Name(), dcs[1].Name(), transport.WANConfig{RTT: drainLinkRTT, Bandwidth: drainLinkBandwidth}); err != nil {
		return err
	}
	mirror, err := fed.PartnerGroups(dcs[0].Name(), "rack-a", dcs[1].Name(), "rack-b")
	if err != nil {
		return err
	}
	a1, _ := dcs[0].Machine("a1")
	rounds := 10
	if p.quick {
		rounds = 2
	}
	var flush, recover []float64
	for i := 0; i < rounds; i++ {
		app, err := a1.LaunchApp(appImage(fmt.Sprintf("probe-fed-%d", i)), core.NewMemoryStorage(), core.InitNew)
		if err != nil {
			return err
		}
		ctr, _, err := app.Library.CreateCounter()
		if err != nil {
			return err
		}
		if _, err := app.Library.IncrementCounter(ctr); err != nil {
			return err
		}
		start := time.Now()
		if err := mirror.Flush(); err != nil {
			return fmt.Errorf("probe federation flush: %w", err)
		}
		flush = append(flush, float64(time.Since(start))/float64(time.Microsecond))
		a1.Kill()
		start = time.Now()
		apps, err := fed.RecoverMachine(dcs[0].Name(), "a1", dcs[1].Name(), "b1", false)
		d := time.Since(start)
		if err != nil || len(apps) != 1 {
			return fmt.Errorf("probe federation recover: %d apps, %v", len(apps), err)
		}
		recover = append(recover, float64(d)/float64(time.Millisecond))
		apps[0].Terminate()
		if err := a1.Restart(); err != nil {
			return err
		}
	}
	p.values["federation.mirror_flush_us"] = stats.Median(flush)
	p.values["federation.recover_wan_ms"] = stats.Median(recover)
	return nil
}

// obsIncrement measures what a wired observer adds to the hottest
// library call, against the library default (observer nil).
func (p *probeSet) obsIncrement() error {
	cost := make(map[bool]float64)
	for _, wired := range []bool{false, true} {
		dc, _, err := env{}.newDC(fmt.Sprintf("probe-obs-%v", wired), 0)
		if err != nil {
			return err
		}
		if wired {
			dc.SetObserver(obs.NewObserver())
		}
		m, err := dc.AddMachine("obs-0")
		if err != nil {
			return err
		}
		app, err := m.LaunchApp(appImage("probe-obs"), core.NewMemoryStorage(), core.InitNew)
		if err != nil {
			return err
		}
		ctr, _, err := app.Library.CreateCounter()
		if err != nil {
			return err
		}
		name := fmt.Sprintf("obs.increment_%v", wired)
		p.time(name, time.Nanosecond, 5000, func() error {
			_, err := app.Library.IncrementCounter(ctr)
			return err
		})
		cost[wired] = p.values[name]
		delete(p.values, name)
	}
	p.values["obs.increment_wired_overhead_ns"] = cost[true] - cost[false]
	return p.err
}
