package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/pserepl"
)

// quorumAttempts bounds the attempts of one call against the replica
// group. A quorum op returns on the first decidable majority, and a call
// that overtakes the previous call's straggler votes can be refused with a
// transient ErrNoQuorum (about one call in 2 000 back to back at this
// commit). The client does what a caller does after an unavailability
// error: it retries, inside the timed window, so a refusal costs the
// operation latency instead of disappearing, and every retry is counted.
const quorumAttempts = 4

// retryNoQuorum calls op until it stops reporting ErrNoQuorum, at most
// quorumAttempts times, and returns the number of extra attempts.
func retryNoQuorum(op func() (uint32, error)) (v uint32, retries int, err error) {
	for {
		v, err = op()
		if !errors.Is(err, pserepl.ErrNoQuorum) || retries == quorumAttempts-1 {
			return v, retries, err
		}
		retries++
	}
}

// recoverHost is the operator's RecoverMachine of the dead host onto the
// peer. The recovery reads and destroys the enclave's escrow binding
// counter through the same replica group, straight after the client's last
// calls, and the same transient refusal (seen once in some 300 000
// recoveries, on the binding read, wrapped in ErrEscrowConsumed) fails it
// with nothing consumed. cloud documents that a failed recovery leaves
// the app in the manifest "so the call can be retried"; the operator
// does, inside the timed window, and the retries are counted. A refusal
// for a stale record is final (see runRack).
func (w *rackWorld) recoverHost() (apps []*cloud.App, retries int, err error) {
	for {
		apps, err = w.dc.RecoverMachine(w.host.ID(), w.peer.ID())
		if err == nil || errors.Is(err, core.ErrEscrowStale) || retries == quorumAttempts-1 {
			return apps, retries, err
		}
		retries++
	}
}

// runRack is the rack workload: replicated persistent state with a fault
// injected every round. Each round launches an enclave on an f=1 rack
// (escrow on), times quorum writes and reads back to back, one call at a
// time, kills the host, times RecoverMachine onto a peer, and checks that
// nothing acknowledged was lost. recycleRounds rounds share one data
// center (a chunk); quartiles and set-up time are per chunk.
func (e env) runRack(sz sizes, in *inputPlan) (*phaseResult, error) {
	res := newPhaseResult()
	begin := time.Now()
	inc := res.series("repl_increment_p50_us", 0.5)
	read := res.series("repl_read_p50_us", 0.5)
	rec := res.series("recover_p05_ms", 0.05)
	var recoverNs time.Duration
	recovered := 0

	img := appImage("rack")
	round := 0
	// Chunk -1 is the warm-up, one round on a data center of its own:
	// executed and checked, never reported.
	for chunk := -1; chunk*recycleRounds < sz.RackRounds; chunk++ {
		keep := chunk >= 0
		rounds := 1
		if keep {
			rounds = min(recycleRounds, sz.RackRounds-chunk*recycleRounds)
		}
		clock := res.beginRound()
		w, err := e.newRackWorld(fmt.Sprintf("rack-%d", chunk))
		if err != nil {
			return nil, err
		}
		var incChunk, readChunk, recChunk []float64
		for ; rounds > 0; rounds-- {
			prep := in.Rack[round]
			round++
			root := e.tr.root("rack.round")
			sp := e.tr.begin("cloud.LaunchApp")
			app, err := w.host.LaunchApp(img, core.NewMemoryStorage(), core.InitNew)
			sp.end()
			if !res.ok(err == nil, "rack launch: %v", err) {
				root.end()
				continue
			}
			sp = e.tr.begin("core.CreateCounter")
			ctr, acked, err := app.Library.CreateCounter()
			sp.end()
			if !res.ok(err == nil, "rack counter: %v", err) {
				app.Terminate()
				root.end()
				continue
			}
			// increment is one client increment, checked against the
			// monotonic counter's contract: a value above every value seen
			// before. Exactly the next value is the normal case. A retried
			// call may have been applied by its refused attempts as well,
			// and pserepl lets a replica over-advance a counter, never
			// regress it; a gap is counted, a repeat or a regression fails.
			increment := func() bool {
				v, retries, err := retryNoQuorum(func() (uint32, error) { return app.Library.IncrementCounter(ctr) })
				res.count(cQuorumRetries, retries, 1)
				prev, over := acked, 0
				if err == nil {
					acked = v
					if v > prev+1+uint32(retries) {
						over = 1
					}
				}
				res.count(cOverAdvances, over, 1)
				return res.ok(err == nil && v > prev, "replicated increment: %v got %d after %d, %d retries", err, v, prev, retries)
			}
			for k := uint8(0); k < prep; k++ {
				increment()
			}

			sp = e.tr.begin("core.IncrementCounter*")
			for i := 0; i < sz.RackOps; i++ {
				t := res.time()
				good := increment()
				d := t.stop()
				if good {
					incChunk = append(incChunk, float64(d)/float64(time.Microsecond))
				}
			}
			sp.end()
			sp = e.tr.begin("core.ReadCounter*")
			for i := 0; i < sz.RackOps; i++ {
				t := res.time()
				v, retries, err := retryNoQuorum(func() (uint32, error) { return app.Library.ReadCounter(ctr) })
				d := t.stop()
				res.count(cQuorumRetries, retries, 1)
				// Quorum read returns the last acknowledged increment, or
				// more where the group over-advanced the counter since.
				over := 0
				if err == nil && v > acked {
					over, acked = 1, v
				}
				res.count(cOverAdvances, over, 1)
				if res.ok(err == nil && v == acked, "replicated read: %v got %d want %d", err, v, acked) {
					readChunk = append(readChunk, float64(d)/float64(time.Microsecond))
				}
			}
			sp.end()

			// The fault: the host dies with the last calls' straggler
			// votes still in flight.
			w.host.Kill()
			t := res.time()
			sp = e.tr.begin("cloud.RecoverMachine")
			apps, retries, err := w.recoverHost()
			sp.end()
			d := t.stop()
			res.count(cQuorumRetries, retries, 1)
			stale := errors.Is(err, core.ErrEscrowStale) && len(apps) == 0
			res.count(cStaleRefusals, btoi(stale), 1)
			if stale {
				// The group over-advanced the enclave's escrow binding
				// counter past its record. Recovery refuses, failing safe
				// as core documents for a lagging escrow, and the enclave
				// is lost: counted, no latency sample. The operator writes
				// the app off, so the next round's manifest holds one app.
				for _, la := range w.host.LostApps() {
					w.host.DropLost(la.EscrowID)
				}
			} else {
				good := err == nil && len(apps) == 1
				var v uint32
				if good {
					// Recovered value >= last acknowledged increment (no rollback).
					sp = e.tr.begin("core.ReadCounter")
					var rerr error
					v, _, rerr = retryNoQuorum(func() (uint32, error) { return apps[0].Library.ReadCounter(ctr) })
					sp.end()
					good = rerr == nil && v >= acked
				}
				for _, a := range apps {
					a.Terminate()
				}
				if res.ok(good, "recover: err=%v apps=%d value %d, last acknowledged %d", err, len(apps), v, acked) {
					recChunk = append(recChunk, float64(d)/float64(time.Millisecond))
					if keep {
						recoverNs += d
						recovered++
					}
				}
			}
			sp = e.tr.begin("cloud.Restart")
			err = w.host.Restart()
			sp.end()
			root.end()
			if err != nil {
				return nil, fmt.Errorf("restart host: %w", err)
			}
		}
		runtime.GC()
		clock.end(keep)
		if keep {
			inc.add(incChunk...)
			read.add(readChunk...)
			rec.add(recChunk...)
		}
	}
	// Recovery time has two modes that do the same work (20-21 messages
	// either way): 0.25 ms when none of the recovery's back-to-back quorum
	// broadcasts waits to be scheduled, 0.30-0.45 ms when some do. Which
	// share is fast moved from 15 % to 70 % with what else the process had
	// run, so the median flipped between the modes. p05 sits in the fast
	// mode and p95 at the slow one's upper edge wherever the share lies.
	res.Series["recover_p95_ms"] = &series{Q: 0.95, rounds: rec.rounds}
	res.Headline = rec.value()
	if e.tr != nil && recovered > 0 {
		res.Layer["core.recover_app_us"] = float64(recoverNs) / float64(recovered) / float64(time.Microsecond)
		retries := res.Counters[cQuorumRetries]
		res.Layer["pserepl.retries_per_1k_ops"] = 1000 * float64(retries.N) / float64(max(retries.Of, 1))
	}
	res.Wall = time.Since(begin)
	return res, nil
}
