package chaos

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/cloud"
	"repro/internal/fleet"
)

// Step is one schedule action in a form concrete enough to replay:
// the op name plus the machine / datacenter / identity it targeted.
// A failing run's minimal repro is just Config.Seed + []Step.
type Step struct {
	// Op is the action kind (kill, restart, rack-restart, partition,
	// heal, flush, drain, rebalance, evacuate, recover-fleet,
	// recover-local, recover-wan, relaunch, replay-recover, reconcile,
	// disconnect, burst).
	Op string `json:"op"`
	// Target is the primary operand: "dc/machine" for machine ops, a
	// datacenter name for site ops, an identity name for app ops.
	Target string `json:"target,omitempty"`
	// Dest is the destination operand ("dc/machine") for recoveries.
	Dest string `json:"dest,omitempty"`
	// Arg carries a modifier ("force" on recover-wan).
	Arg string `json:"arg,omitempty"`
}

func (s Step) String() string {
	out := s.Op
	if s.Target != "" {
		out += " " + s.Target
	}
	if s.Dest != "" {
		out += " -> " + s.Dest
	}
	if s.Arg != "" {
		out += " (" + s.Arg + ")"
	}
	return out
}

// splitRef parses "dc/machine".
func splitRef(ref string) (dc, m string) {
	if i := strings.IndexByte(ref, '/'); i >= 0 {
		return ref[:i], ref[i+1:]
	}
	return ref, ""
}

// candidate is a weighted schedule step the current world state admits.
type candidate struct {
	step   Step
	weight int
}

// generate draws and executes n steps from the weighted candidate
// distribution, returning the concrete step list for replay.
func (w *world) generate(n int) []Step {
	steps := make([]Step, 0, n)
	for i := 0; i < n; i++ {
		w.step = i
		cands := w.candidates(i, n)
		total := 0
		for _, c := range cands {
			total += c.weight
		}
		pick := w.rng.Intn(total)
		var s Step
		for _, c := range cands {
			if pick < c.weight {
				s = c.step
				break
			}
			pick -= c.weight
		}
		steps = append(steps, s)
		w.exec(s)
		w.quiesce()
		w.scan()
		w.mon.Evaluate(time.Now())
	}
	return steps
}

// replay executes a recorded step list. Steps whose guards no longer
// hold (because an earlier step was dropped by the shrinker) are
// recorded as skipped and ignored — the remaining schedule still runs.
func (w *world) replay(steps []Step) []Step {
	for i, s := range steps {
		w.step = i
		if !w.applicable(s) {
			w.h.add(Op{Step: i, Kind: "skip", Note: s.String()})
			continue
		}
		w.exec(s)
		w.quiesce()
		w.scan()
		w.mon.Evaluate(time.Now())
	}
	return steps
}

// candidates enumerates every step the current state admits, each with
// its selection weight. Enumeration order is deterministic (fixed DC
// order, sorted machines, launch-ordered identities), so the same seed
// always draws the same step. The burst workload is always available,
// so the slice is never empty.
func (w *world) candidates(i, n int) []candidate {
	cands := []candidate{{Step{Op: "burst"}, 40}}

	for _, dcName := range []string{"dc-a", "dc-b"} {
		dc := w.dc(dcName)
		alive := aliveMachines(dc)
		dead := deadMachines(dc)

		// Kill keeps the rack's f=1 quorum: at least two replica-group
		// members stay up (spare machines don't count toward quorum), and
		// at least two machines overall survive so plans keep a target.
		aliveReplicas := 0
		for _, m := range alive {
			if m.HostsReplica() {
				aliveReplicas++
			}
		}
		if len(alive) > 2 {
			for _, m := range alive {
				quorumAfter := aliveReplicas
				if m.HostsReplica() {
					quorumAfter--
				}
				if quorumAfter < 2 {
					continue
				}
				cands = append(cands, candidate{Step{Op: "kill", Target: machineRef(dcName, m.ID())}, 4})
			}
		}
		for _, m := range dead {
			cands = append(cands, candidate{Step{Op: "restart", Target: machineRef(dcName, m.ID())}, 8})
		}
		cands = append(cands, candidate{Step{Op: "rack-restart", Target: dcName}, 1})

		if len(alive) >= 2 {
			if src := mostLoadedAlive(dc); src != nil && src.AppCount() > 0 {
				cands = append(cands,
					candidate{Step{Op: "drain", Target: machineRef(dcName, src.ID())}, 2},
					candidate{Step{Op: "batch-drain", Target: machineRef(dcName, src.ID())}, 2},
					candidate{Step{Op: "evacuate", Target: machineRef(dcName, src.ID())}, 1})
			}
			cands = append(cands, candidate{Step{Op: "rebalance", Target: dcName}, 2})
		}

		// Fleet-driven and direct recoveries need a dead machine holding
		// lost state and an alive rack peer to resurrect onto.
		if len(alive) > 0 {
			for _, m := range dead {
				if len(m.LostApps()) == 0 {
					continue
				}
				cands = append(cands, candidate{Step{Op: "recover-fleet", Target: machineRef(dcName, m.ID())}, 4})
				if t := leastLoadedAlive(dc, m.ID()); t != nil {
					cands = append(cands, candidate{
						Step{Op: "recover-local", Target: machineRef(dcName, m.ID()), Dest: machineRef(dcName, t.ID())}, 6})
				}
			}
		}
	}

	// Cross-DC recovery: dc-a is the mirrored origin, dc-b the escrow
	// mirror site. Unforced goes through origin arbitration; forced is
	// the declared site-loss path.
	if !w.disconnected {
		for _, m := range deadMachines(w.dcA) {
			if len(m.LostApps()) == 0 {
				continue
			}
			if t := leastLoadedAlive(w.dcB, ""); t != nil {
				src, dst := machineRef("dc-a", m.ID()), machineRef("dc-b", t.ID())
				cands = append(cands,
					candidate{Step{Op: "recover-wan", Target: src, Dest: dst}, 5},
					candidate{Step{Op: "recover-wan", Target: src, Dest: dst, Arg: "force"}, 2})
			}
		}
	}

	for _, id := range w.ids {
		if id.lost {
			if t := leastLoadedAlive(w.dc(id.lostDC), ""); t != nil {
				cands = append(cands, candidate{
					Step{Op: "relaunch", Target: id.name, Dest: machineRef(id.lostDC, t.ID())}, 3})
			}
		}
		// The adversarial probe: re-run recovery from the consumed origin
		// record of an identity that already resurrected cross-DC. Must
		// always lose the binding arbitration (R3: exactly one).
		if id.replayable {
			if t := leastLoadedAlive(w.dcA, ""); t != nil {
				cands = append(cands, candidate{
					Step{Op: "replay-recover", Target: id.name, Dest: machineRef("dc-a", t.ID())}, 4})
			}
		}
	}

	if !w.disconnected {
		cands = append(cands, candidate{Step{Op: "partition", Target: boolName(!w.partitioned)}, partitionWeight(w.partitioned)})
		cands = append(cands, candidate{Step{Op: "flush"}, 8})
		// Disconnect is permanent (grant revocation); only allow it near
		// the end of the schedule so it cannot sterilize a whole run.
		if i >= n-n/5-1 {
			cands = append(cands, candidate{Step{Op: "disconnect"}, 1})
		}
	}
	if w.fed.PendingRevocations() > 0 {
		cands = append(cands, candidate{Step{Op: "reconcile"}, 6})
	}
	// Coverage bias (opt-in): boost transitions the hunt has visited
	// least. With no bias configured every factor is 1 and the draw is
	// the unbiased seed-deterministic distribution.
	if w.cfg.Bias != nil {
		for j := range cands {
			cands[j].weight *= w.cfg.Bias.factor(transitionKey(cands[j].step))
		}
	}
	return cands
}

func boolName(down bool) string {
	if down {
		return "down"
	}
	return "up"
}

func partitionWeight(partitioned bool) int {
	if partitioned {
		return 6 // healing is likelier than cutting
	}
	return 3
}

// applicable re-evaluates a step's guard against current state; used in
// replay mode where the shrinker may have dropped the steps that made
// this one legal.
func (w *world) applicable(s Step) bool {
	dcName, mid := splitRef(s.Target)
	switch s.Op {
	case "burst", "flush", "rack-restart", "rebalance":
		return true
	case "kill":
		m, ok := w.dc(dcName).Machine(mid)
		return ok && m.Alive()
	case "restart":
		m, ok := w.dc(dcName).Machine(mid)
		return ok && !m.Alive()
	case "drain", "batch-drain", "evacuate":
		m, ok := w.dc(dcName).Machine(mid)
		return ok && m.Alive() && len(aliveMachines(w.dc(dcName))) >= 2
	case "wan-drain":
		// Deliberately allowed while partitioned: a batched WAN drain
		// into a down link must park its members safely, never corrupt
		// them — that is exactly what a replay schedule probes.
		m, ok := w.dc(dcName).Machine(mid)
		return ok && m.Alive() && !w.disconnected && len(aliveMachines(w.other(dcName))) >= 1
	case "recover-fleet", "recover-local", "recover-wan":
		m, ok := w.dc(dcName).Machine(mid)
		if !ok || m.Alive() || len(m.LostApps()) == 0 {
			return false
		}
		if s.Dest != "" {
			dDC, dID := splitRef(s.Dest)
			dm, ok := w.dc(dDC).Machine(dID)
			if !ok || !dm.Alive() {
				return false
			}
		}
		return s.Op != "recover-wan" || !w.disconnected
	case "relaunch":
		id, ok := w.byName[s.Target]
		if !ok || !id.lost {
			return false
		}
		dDC, dID := splitRef(s.Dest)
		dm, ok := w.dc(dDC).Machine(dID)
		return ok && dm.Alive()
	case "replay-recover":
		id, ok := w.byName[s.Target]
		if !ok || !id.replayable {
			return false
		}
		dDC, dID := splitRef(s.Dest)
		dm, ok := w.dc(dDC).Machine(dID)
		return ok && dm.Alive()
	case "partition":
		return !w.disconnected && (s.Target == "down") != w.partitioned
	case "reconcile":
		return w.fed.PendingRevocations() > 0
	case "disconnect":
		return !w.disconnected
	default:
		return false
	}
}

// exec runs one step, recording everything it did into the history.
func (w *world) exec(s Step) {
	w.cov.Transitions[transitionKey(s)]++
	dcName, mid := splitRef(s.Target)
	switch s.Op {
	case "burst":
		w.burst()
	case "kill":
		m, _ := w.dc(dcName).Machine(mid)
		m.Kill()
		w.h.add(Op{Step: w.step, Kind: "kill", Note: s.Target})
		w.markLost(dcName, m)
		w.pruneProbes()
	case "restart":
		m, _ := w.dc(dcName).Machine(mid)
		err := m.Restart()
		w.h.add(Op{Step: w.step, Kind: "restart", Note: s.Target, Err: canonErr(err)})
	case "rack-restart":
		w.rackRestart(dcName)
	case "partition":
		down := s.Target == "down"
		w.link.SetDown(down)
		w.partitioned = down
		kind := "heal"
		if down {
			kind = "partition"
		}
		w.h.add(Op{Step: w.step, Kind: kind})
	case "flush":
		err := w.mirror.Flush()
		w.h.add(Op{Step: w.step, Kind: "flush", Err: canonErr(err)})
	case "drain":
		w.runPlan(dcName, "drain "+mid, fleet.Drain(mid), 1)
	case "batch-drain":
		// Same drain intent, but the orchestrator groups same-(source,dest)
		// enclaves into streams of four over one resumed session. R1–R4
		// must hold exactly as for streams of one.
		w.runPlan(dcName, "batch-drain "+mid, fleet.Drain(mid), chaosStreamWidth)
	case "wan-drain":
		// Batched evacuation across the lossy WAN link. Directed-replay
		// only (not generated): concurrent chunk/ack traffic draws the
		// link's loss RNG in goroutine order, which would break schedule
		// determinism. Loss or a standing partition strands members
		// mid-batch; they must park frozen with their tokens and resume
		// on a later plan, never fork.
		var remotes []fleet.RemoteTarget
		for _, m := range aliveMachines(w.other(dcName)) {
			remotes = append(remotes, fleet.RemoteTarget{Machine: m, Link: w.link.Name()})
		}
		plan := fleet.Plan{Intent: fleet.IntentEvacuate, Sources: []string{mid}, RemoteTargets: remotes}
		w.runPlan(dcName, "wan-drain "+mid, plan, chaosStreamWidth)
	case "rebalance":
		w.runPlan(dcName, "rebalance", fleet.Rebalance(), 1)
	case "evacuate":
		dc := w.dc(dcName)
		var targets []string
		for _, m := range aliveMachines(dc) {
			if m.ID() != mid {
				targets = append(targets, m.ID())
			}
		}
		w.runPlan(dcName, "evacuate "+mid, fleet.Evacuate([]string{mid}, targets), 1)
	case "recover-fleet":
		dc := w.dc(dcName)
		var targets []string
		for _, m := range aliveMachines(dc) {
			targets = append(targets, m.ID())
		}
		w.runPlan(dcName, "recover "+mid, fleet.RecoverLost([]string{mid}, targets), 1)
	case "recover-local":
		_, dID := splitRef(s.Dest)
		apps, err := w.dc(dcName).RecoverMachine(mid, dID)
		w.h.add(Op{Step: w.step, Kind: "recover-local", Note: s.Target + "->" + s.Dest, Err: canonErr(err)})
		w.adoptRecovered(apps, "local", false)
	case "recover-wan":
		force := s.Arg == "force"
		_, dID := splitRef(s.Dest)
		apps, err := w.fed.RecoverMachine("dc-a", mid, "dc-b", dID, force)
		note := s.Target + "->" + s.Dest
		if force {
			note += " forced"
		}
		w.h.add(Op{Step: w.step, Kind: "recover-wan", Note: note, Err: canonErr(err)})
		if force {
			w.adoptRecovered(apps, "wan forced", false)
		} else {
			w.adoptRecovered(apps, "wan", true)
		}
	case "relaunch":
		id := w.byName[s.Target]
		dDC, dID := splitRef(s.Dest)
		m, _ := w.dc(dDC).Machine(dID)
		app, err := m.RecoverApp(id.img, id.escrowID)
		w.h.add(Op{Step: w.step, Kind: "relaunch", App: id.name, Note: s.Dest, Err: canonErr(err)})
		if err == nil {
			w.adoptRecovered([]*cloud.App{app}, "direct", false)
		}
	case "replay-recover":
		id := w.byName[s.Target]
		dDC, dID := splitRef(s.Dest)
		m, _ := w.dc(dDC).Machine(dID)
		// Deliberately NOT adopted on success: a success here is a second
		// resurrection from a consumed record — the fork the checker must
		// catch. The correct outcome is an escrow-consumed error. A fork
		// that does appear becomes a probe, so subsequent bursts witness
		// it making progress (the no-zombie/no-fork violation).
		app, err := m.RecoverApp(id.img, id.escrowID)
		w.h.add(Op{Step: w.step, Kind: "replay-recover", App: id.name, Note: s.Dest, Err: canonErr(err)})
		if err == nil {
			w.addProbe(probe{id: id.name, inst: -1, app: app, slot: id.ctrs[0]})
		}
	case "reconcile":
		err := w.fed.Reconcile()
		w.h.add(Op{Step: w.step, Kind: "reconcile", Err: canonErr(err)})
	case "disconnect":
		err := w.fed.Disconnect("dc-a", "dc-b")
		w.disconnected = true
		w.partitioned = true
		w.h.add(Op{Step: w.step, Kind: "disconnect", Err: canonErr(err)})
	}
}

// burst drives the nemesis workload: per live identity, increment every
// counter, read one back, and issue an app request (a migratable seal);
// then read through every retained zombie probe. An increment that
// reports recovered-away demotes the identity's pointer — that
// incarnation was resurrected elsewhere and can never serve again.
func (w *world) burst() {
	for _, id := range w.ids {
		if id.app == nil {
			continue
		}
		demote := false
		for si, slot := range id.ctrs {
			v, err := id.app.Library.IncrementCounter(slot)
			w.h.add(Op{Step: w.step, Kind: "inc", App: id.name, Slot: si, Inst: id.inst, Val: v, Err: canonErr(err)})
			if isRecoveredAway(err) {
				demote = true
			}
		}
		v, err := id.app.Library.ReadCounter(id.ctrs[0])
		w.h.add(Op{Step: w.step, Kind: "read", App: id.name, Slot: 0, Inst: id.inst, Val: v, Err: canonErr(err)})
		_, err = id.app.Library.SealMigratable([]byte("chaos-req"), []byte("payload"))
		w.h.add(Op{Step: w.step, Kind: "request", App: id.name, Inst: id.inst, Err: canonErr(err)})
		if isRecoveredAway(err) {
			demote = true
		}
		if demote {
			w.addProbe(probe{id: id.name, inst: id.inst, app: id.app, slot: id.ctrs[0]})
			w.h.add(Op{Step: w.step, Kind: "lost", App: id.name, Inst: id.inst, Note: "recovered-away"})
			id.app = nil
			id.lost = true
		}
	}
	// Zombie probes drive a persisting operation: a retired incarnation
	// must refuse (frozen or recovered-away); success is a fork.
	for _, p := range w.probes {
		if !p.app.Machine().Alive() {
			continue
		}
		_, _, err := p.app.Library.CreateCounter()
		w.h.add(Op{Step: w.step, Kind: "probe", App: p.id, Inst: p.inst, Err: canonErr(err)})
	}
}

func isRecoveredAway(err error) bool {
	return err != nil && canonErr(err) == "recovered-away"
}

// rackRestart cold-restarts an entire site: kill every alive machine,
// restart all members, then run a second reseed pass — the first
// (inside Restart) finds its peers still down; the second completes
// once everyone is back (unsynced replicas answer collect requests).
func (w *world) rackRestart(dcName string) {
	dc := w.dc(dcName)
	for _, m := range aliveMachines(dc) {
		m.Kill()
		w.markLost(dcName, m)
	}
	w.pruneProbes()
	var restartErrs, reseedErrs int
	for _, m := range dc.Machines() {
		if err := m.Restart(); err != nil {
			restartErrs++
		}
	}
	if g, ok := dc.ReplicaGroup("rack-" + dcName[len(dcName)-1:]); ok {
		g.Quiesce()
		for _, m := range dc.Machines() {
			if err := g.Reseed(m.ID()); err != nil {
				reseedErrs++
			}
		}
	}
	w.h.add(Op{Step: w.step, Kind: "rack-restart", Note: fmt.Sprintf("%s restart-errs=%d reseed-errs=%d", dcName, restartErrs, reseedErrs)})
}

// pruneProbes drops probes whose hosting machine died — a dead enclave
// cannot serve, so it no longer witnesses the zombie invariant.
func (w *world) pruneProbes() {
	kept := w.probes[:0]
	for _, p := range w.probes {
		if p.app.Machine().Alive() {
			kept = append(kept, p)
		}
	}
	w.probes = kept
}

// chaosStreamWidth is the stream width the batch-drain and wan-drain ops
// use: wide enough that grouping, chunk pipelining, and cumulative acks
// are all exercised, small enough that a few-app machine still fills a
// stream. Every other plan op runs streams of one.
const chaosStreamWidth = 4

// runPlan executes a fleet plan in streams of up to width members, with
// one worker and deterministic (jitter-free) backoff, records the sorted
// journal, and re-resolves every identity's live pointer. Journal entries
// are recorded in sorted order, so a healthy plan replays
// deterministically even though a wide stream's members freeze and
// restore on pool goroutines.
func (w *world) runPlan(dcName, intent string, plan fleet.Plan, width int) {
	o := fleet.New(w.dc(dcName), fleet.Config{
		Workers:      1,
		BatchSize:    width,
		MaxAttempts:  3,
		RetryBackoff: time.Millisecond,
		MaxBackoff:   2 * time.Millisecond,
		Obs:          w.obs,
	})
	rep, err := o.Execute(context.Background(), plan)
	w.h.add(Op{Step: w.step, Kind: "plan", Note: canonStr(intent), Err: canonErr(err)})
	if rep != nil && rep.Journal != nil {
		entries := rep.Journal.Entries()
		sort.Slice(entries, func(i, j int) bool {
			if entries[i].App != entries[j].App {
				return entries[i].App < entries[j].App
			}
			return entries[i].Source < entries[j].Source
		})
		for _, e := range entries {
			w.h.add(Op{Step: w.step, Kind: "plan-entry", App: e.App,
				Note: fmt.Sprintf("%s->%s attempts=%d recovered=%t status=%s", e.Source, e.Dest, e.Attempts, e.Recovered, e.Status),
				Err:  canonStr(e.Err)})
		}
	}
	for _, id := range w.ids {
		w.relocate(id)
	}
}
