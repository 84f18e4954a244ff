package main

import (
	"runtime"
	"time"

	"repro/internal/core"
)

// runMigrate is the migrate workload: sequential classic Fig. 2
// migrations ping-ponging between two machines of one data center.
// The timed window, StartMigration call to LaunchApp(InitMigrated)
// return, is the enclave's freeze-to-resume window as its owner sees it.
func (e env) runMigrate(sz sizes, in *inputPlan) (*phaseResult, error) {
	res := newPhaseResult()
	begin := time.Now()
	dc, probe, err := e.newDC("migrate", 0)
	if err != nil {
		return nil, err
	}
	ms, err := addMachines(dc, "mig-0", "mig-1")
	if err != nil {
		return nil, err
	}
	src, dst := ms[0], ms[1]
	img := appImage("migrate")
	lat := res.series("migration_p50_ms", 0.5)

	const warmup = 20
	var round []float64
	var startNs, restoreNs time.Duration
	simBefore, wireBefore := simTotalsOf(dc.Latency), totalsOf(probe)
	sessionsBefore := ms[0].ME.AcceptedSessions() + ms[1].ME.AcceptedSessions()
	measured := 0
	clock := res.beginRound()
	for i := -warmup; i < len(in.Migrate); i++ {
		n := len(in.Migrate)
		incs := in.Migrate[((i%n)+n)%n] // warm-up iterations reuse the plan's tail
		keep := i >= 0
		if i == 0 {
			clock = res.beginRound()
			simBefore, wireBefore = simTotalsOf(dc.Latency), totalsOf(probe)
			sessionsBefore = ms[0].ME.AcceptedSessions() + ms[1].ME.AcceptedSessions()
		}
		root := e.tr.root("migrate.iteration")

		sp := e.tr.begin("cloud.LaunchApp")
		app, err := src.LaunchApp(img, core.NewMemoryStorage(), core.InitNew)
		sp.end()
		if !res.ok(err == nil, "launch: %v", err) {
			root.end()
			continue
		}
		want := make([]uint32, len(incs))
		ids := make([]int, len(incs))
		prepared := true
		sp = e.tr.begin("core.CreateCounter+IncrementCounter*")
		for c, n := range incs {
			id, _, err := app.Library.CreateCounter()
			if err != nil {
				prepared = false
				break
			}
			ids[c] = id
			for k := uint8(0); k < n; k++ {
				if want[c], err = app.Library.IncrementCounter(id); err != nil {
					prepared = false
				}
			}
		}
		sp.end()
		if !res.ok(prepared, "counter preparation") {
			app.Terminate()
			root.end()
			continue
		}

		t := res.time()
		sp = e.tr.begin("core.StartMigration")
		t0 := time.Now()
		err = app.Library.StartMigration(dst.MEAddress())
		d0 := time.Since(t0)
		sp.end()
		app.Terminate()
		moved := app
		if err == nil {
			sp = e.tr.begin("cloud.LaunchApp(InitMigrated)")
			t1 := time.Now()
			moved, err = dst.LaunchApp(img, core.NewMemoryStorage(), core.InitMigrated)
			if keep {
				startNs += d0
				restoreNs += time.Since(t1)
			}
			sp.end()
		}
		d := t.stop()

		// Correctness: the source refuses to run on, and every counter
		// continues at its pre-migration effective value.
		good := err == nil && app.Library.Frozen()
		if good {
			sp = e.tr.begin("core.ReadCounter+DestroyCounter*")
			for c, id := range ids {
				v, rerr := moved.Library.ReadCounter(id)
				if rerr != nil || v != want[c] {
					good = false
				}
				// Release the hardware counter so the destination's
				// 256-counter budget never fills.
				if moved.Library.DestroyCounter(id) != nil {
					good = false
				}
			}
			sp.end()
			moved.Terminate()
		}
		if res.ok(good, "migration %d: err=%v", i, err) && keep {
			round = append(round, float64(d)/float64(time.Millisecond))
			measured++
		}
		root.end()
		src, dst = dst, src

		if keep && (len(round) == migrateChunk || i == len(in.Migrate)-1) {
			lat.add(round...)
			round = nil
			runtime.GC()
			clock.end(true)
			clock = res.beginRound()
		}
	}
	// p50 and p95 are two views of one sample set: p50 pooled, p95 the
	// median over rounds of each 250-migration round's own p95.
	res.Series["migration_p95_ms"] = &series{Q: 0.95, ByRound: true, rounds: lat.rounds}
	res.Wall = time.Since(begin)
	res.Headline = lat.value()

	if e.tr != nil && measured > 0 {
		n := float64(measured)
		res.Layer["core.start_migration_us"] = float64(startNs) / n / float64(time.Microsecond)
		res.Layer["core.restore_us"] = float64(restoreNs) / n / float64(time.Microsecond)
		sessions := ms[0].ME.AcceptedSessions() + ms[1].ME.AcceptedSessions() - sessionsBefore
		res.Layer["core.sessions_per_1k_migrations"] = 1000 * float64(sessions) / n
		perMigrationLayers(res, n, simTotalsOf(dc.Latency).minus(simBefore), totalsOf(probe).minus(wireBefore))
	}
	return res, nil
}

// perMigrationLayers fills the per-migration cost-model and wire rows
// from deltas taken around the measured migrations.
func perMigrationLayers(res *phaseResult, n float64, s simTotals, w wireTotals) {
	res.Layer["sim.modeled_ms_per_migration"] = float64(s.virtual) / n / float64(time.Millisecond)
	res.Layer["sim.ecalls_per_migration"] = float64(s.ecalls) / n
	res.Layer["sim.counter_ops_per_migration"] = float64(s.counterOps) / n
	res.Layer["sim.net_rtts_per_migration"] = float64(s.netRTTs) / n
	res.Layer["sim.wan_hops_per_migration"] = float64(s.wanHops) / n
	res.Layer["transport.msgs_per_migration"] = float64(w.msgs) / n
	res.Layer["transport.bytes_per_migration"] = float64(w.bytes) / n
	res.Layer["transport.send_self_us_per_migration"] = float64(w.sendSelfNanos) / n / float64(time.Microsecond)
}
