package main

import (
	"bytes"
	"runtime"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
)

// libWorldRounds is how many libops rounds share one data center and
// machine, and largeBatch how many 100 kB payloads are sealed, then
// unsealed, between two collections; see the README's libops notes.
const (
	libWorldRounds = 20
	largeBatch     = 10
)

// runLibops is the libops workload: an enclave on a plain machine,
// rounds of counter, seal and init calls. Sub-microsecond operations are
// timed per batch and reported as the batch mean; the metric is the
// median of those means over the measured rounds.
func (e env) runLibops(sz sizes, in *inputPlan) (*phaseResult, error) {
	res := newPhaseResult()
	begin := time.Now()
	img, initImg := appImage("libops"), appImage("libops-init")
	var m *cloud.Machine
	var pad [][]byte
	var pairs []float64 // per measured round, microseconds per create/destroy pair
	perOp := func(d time.Duration, n int, unit time.Duration) float64 {
		return float64(d) / float64(n) / float64(unit)
	}
	// batch times n calls of op as one span and one timed section; an op
	// that returns false counts as failed.
	batch := func(name string, n int, op func() bool) time.Duration {
		sp := e.tr.begin(name)
		t := res.time()
		good := 0
		for i := 0; i < n; i++ {
			if op() {
				good++
			}
		}
		d := t.stop()
		sp.end()
		res.Attempted += n
		res.Failed += n - good
		return d
	}
	// Round -1 is the warm-up: executed and checked, never reported.
	for round := -1; round < sz.LibRounds; round++ {
		clock := res.beginRound()
		if world := (round + 1) / libWorldRounds; (round+1)%libWorldRounds == 0 {
			// A 65 ns call is a few cache lines, and where the allocator
			// put them decides whether two of them collide: one process's
			// increments read 65.0 ns in every round, the next one's 72.4.
			// A new world every libWorldRounds rounds, behind a seeded
			// number of small allocations that shift everything after them,
			// has the median over rounds see many layouts, not one.
			pad = nil
			for _, n := range in.LibPad[world] {
				pad = append(pad, make([]byte, n))
			}
			dc, _, err := e.newDC("libops", 0)
			if err != nil {
				return nil, err
			}
			if m, err = dc.AddMachine("lib-0"); err != nil {
				return nil, err
			}
		}
		root := e.tr.root("libops.round")
		// A fresh enclave every round. cloud.LaunchApp hands the library a
		// core.MemoryStorage, which keeps every blob ever saved (the attack
		// scenarios replay them): one enclave for the whole run retained
		// 2.8 MB more each round, 1.2 GB by the end, so every round's timed
		// calls ran on freshly faulted pages. With an enclave per round the
		// heap is flat and the collection between rounds recycles it.
		sp := e.tr.begin("cloud.LaunchApp+core.CreateCounter")
		app, err := m.LaunchApp(img, core.NewMemoryStorage(), core.InitNew)
		if err != nil {
			return nil, err
		}
		lib := app.Library
		ctr, value, err := lib.CreateCounter()
		sp.end()
		if err != nil {
			return nil, err
		}
		record := func(name string, v float64) {
			if round >= 0 {
				res.series(name, 0).add(v)
			}
		}

		d := batch("core.IncrementCounter*", sz.LibInc, func() bool {
			v, err := lib.IncrementCounter(ctr)
			value++
			return err == nil && v == value
		})
		record("lib_increment_ns", perOp(d, sz.LibInc, time.Nanosecond))

		batch("core.ReadCounter*", sz.LibRead, func() bool {
			v, err := lib.ReadCounter(ctr)
			return err == nil && v == value
		})

		// The pairs are timed and checked like the rest, and reported per
		// layer, not end to end: see the README's libops notes.
		d = batch("core.CreateCounter+DestroyCounter*", sz.LibPairs, func() bool {
			id, v, err := lib.CreateCounter()
			return err == nil && v == 0 && lib.DestroyCounter(id) == nil
		})
		if round >= 0 {
			pairs = append(pairs, perOp(d, sz.LibPairs, time.Microsecond))
		}

		dSeal, dUnseal := e.sealBatch(res, lib, in.AAD, in.Small, sz.LibSmall)
		record("lib_seal_100B_ns", perOp(dSeal, sz.LibSmall, time.Nanosecond))
		// The large payloads go largeBatch at a time with a collection
		// (untimed) after each, so that a batch's 2 MB of output reuses the
		// memory of the one before and stays in the core's own cache. A
		// hundred at once cycle 20 MB through the cache the host shares:
		// a neighbour's memory traffic then moved seal by 10 % and unseal
		// by 15 % for half a minute at a time.
		dSeal, dUnseal = 0, 0
		for n := 0; n < sz.LibLarge; n += largeBatch {
			s, u := e.sealBatch(res, lib, in.AAD, in.Large, min(largeBatch, sz.LibLarge-n))
			dSeal, dUnseal = dSeal+s, dUnseal+u
			sp := e.tr.begin("runtime.GC")
			runtime.GC()
			sp.end()
		}
		record("lib_seal_100k_us", perOp(dSeal, sz.LibLarge, time.Microsecond))
		record("lib_unseal_100k_us", perOp(dUnseal, sz.LibLarge, time.Microsecond))

		d = batch("cloud.LaunchApp+Terminate*", sz.LibInit, func() bool {
			a, err := m.LaunchApp(initImg, core.NewMemoryStorage(), core.InitNew)
			if err == nil {
				a.Terminate()
			}
			return err == nil
		})
		record("lib_init_us", perOp(d, sz.LibInit, time.Microsecond))

		// Hand the counter back: the machine budgets 256 per enclave identity.
		res.ok(lib.DestroyCounter(ctr) == nil, "destroy the round's counter")
		app.Terminate()
		root.end()
		runtime.GC()
		clock.end(round >= 0)
	}
	res.Wall = time.Since(begin)
	res.Layer["core.create_destroy_us"] = percentile(pairs, 0.5)
	res.Headline = res.Series["lib_seal_100k_us"].value()
	return res, nil
}

// sealBatch seals the payload n times, then unseals every blob, each as
// one timed batch; the unsealed bytes and additional MAC text are
// compared with the inputs after the clock stops.
func (e env) sealBatch(res *phaseResult, lib *core.Library, aad, payload []byte, n int) (sealTime, unsealTime time.Duration) {
	blobs := make([][]byte, n)
	sp := e.tr.begin("core.SealMigratable*")
	t := res.time()
	for i := range blobs {
		blobs[i], _ = lib.SealMigratable(aad, payload)
	}
	sealTime = t.stop()
	sp.end()

	plain, mac := make([][]byte, n), make([][]byte, n)
	sp = e.tr.begin("core.UnsealMigratable*")
	t = res.time()
	for i, b := range blobs {
		if b != nil {
			plain[i], mac[i], _ = lib.UnsealMigratable(b)
		}
	}
	unsealTime = t.stop()
	sp.end()

	for i := range blobs {
		res.ok(blobs[i] != nil, "seal %d B", len(payload))
		res.ok(bytes.Equal(plain[i], payload) && bytes.Equal(mac[i], aad), "unseal %d B returned other bytes", len(payload))
	}
	return sealTime, unsealTime
}
