package main

import (
	"context"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/stats"
)

// Fleet shape of both drain workloads (the cross-DC shape BENCH_PR9
// measured): a 32-worker pool, 64-member batch streams, 4 concurrent
// deliveries on the link.
const (
	drainWorkers  = 32
	drainBatch    = 64
	drainLinkCap  = 4
	drainRTTScale = 0.25
)

// drainRound is what one evacuation round measured.
type drainRound struct {
	migps     float64
	wanBytes  float64 // link bytes per completed migration
	latencies []float64
	completed int
	wall      time.Duration
	cpu       time.Duration
	sim       simTotals
	wire      wireTotals
	sessions  int
	observer  *obs.Observer
	journal   *fleet.Journal
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// oneDrainRound builds a fresh federation, launches one distinct-image
// enclave per entry of counters on a1 (entry = increments of each of its
// counters), evacuates a1 onto b1..b3 through fleet.Execute, and checks
// every outcome. scale is the sim scale Execute runs at; the world is
// always provisioned and verified at scale 0.
func (e env) oneDrainRound(res *phaseResult, name string, counters [][]uint8, scale float64, observed bool) (*drainRound, error) {
	root := e.tr.root(name)
	defer root.end()
	w, err := e.newDrainWorld(name, observed)
	if err != nil {
		return nil, err
	}
	defer w.fed.Close()

	type tenant struct {
		app  *cloud.App
		ids  []int
		want []uint32
	}
	tenants := make(map[string]*tenant, len(counters))
	sp := e.tr.begin("cloud.LaunchApp+core.CreateCounter*")
	for i, incs := range counters {
		imgName := fmt.Sprintf("tenant-%05d", i)
		app, err := w.a1.LaunchApp(appImage(imgName), core.NewMemoryStorage(), core.InitNew)
		if err != nil {
			return nil, fmt.Errorf("launch %s: %w", imgName, err)
		}
		tn := &tenant{app: app, ids: make([]int, len(incs)), want: make([]uint32, len(incs))}
		for c, n := range incs {
			if tn.ids[c], _, err = app.Library.CreateCounter(); err != nil {
				return nil, err
			}
			for k := uint8(0); k < n; k++ {
				if tn.want[c], err = app.Library.IncrementCounter(tn.ids[c]); err != nil {
					return nil, err
				}
			}
		}
		tenants[imgName] = tn
	}
	sp.end()

	plan := fleet.Plan{Intent: fleet.IntentEvacuate, Sources: []string{w.a1.ID()}, RemoteTargets: w.remotes}
	orch := fleet.New(w.dcA, fleet.Config{
		Workers: drainWorkers, BatchSize: drainBatch,
		LinkCap: map[string]int{w.link.Name(): drainLinkCap},
		Meter:   w.meter, Obs: w.observer,
	})
	_, bytesBefore := w.link.Stats()
	simBefore, wireBefore := w.sim(), totalsOf(w.probes...)
	sessionsBefore := 0
	for _, rt := range w.remotes {
		sessionsBefore += rt.Machine.ME.AcceptedSessions()
	}

	w.setScale(scale)
	cpuBefore := cpuTime()
	t := res.time()
	sp = e.tr.begin("fleet.Execute")
	report, err := orch.Execute(context.Background(), plan)
	sp.end()
	t.stop()
	cpu := cpuTime() - cpuBefore
	w.setScale(0)
	if err != nil {
		return nil, fmt.Errorf("execute: %w", err)
	}

	_, bytesAfter := w.link.Stats()
	r := &drainRound{
		completed: report.Completed, wall: report.Wall, cpu: cpu,
		sim: w.sim().minus(simBefore), wire: totalsOf(w.probes...).minus(wireBefore),
		observer: w.observer, journal: report.Journal,
	}
	for _, rt := range w.remotes {
		r.sessions += rt.Machine.ME.AcceptedSessions()
	}
	r.sessions -= sessionsBefore
	res.ok(report.Planned == len(counters) && report.Completed == report.Planned && report.Failed == 0,
		"%s: planned %d completed %d failed %d of %d", name, report.Planned, report.Completed, report.Failed, len(counters))

	for _, en := range report.Journal.Entries() {
		good := en.Status == fleet.StatusCompleted && en.SourceFrozen
		if res.ok(good, "%s: %s status=%s frozen=%v %s", name, en.App, en.Status, en.SourceFrozen, en.Err) {
			r.latencies = append(r.latencies, float64(en.Latency)/float64(time.Millisecond))
		}
		// Fig. 2's final arrow. fleet documents the flag as best effort (a
		// lost flush leaves it false, "never an unsafe state"), and at this
		// commit a batch whose tokens a concurrent stream's FlushDones
		// carried reads false, so an unconfirmed DONE is counted where
		// -compare gates it rather than failed.
		res.count(cDoneUnconfirmed, btoi(!en.DoneConfirmed), 1)
	}
	// Settled, every DONE did reach the source ME.
	pending := w.a1.ME.PendingOutgoing()
	res.ok(pending == 0, "%s: %d migrations never confirmed DONE at the source ME", name, pending)
	// Every enclave now runs on exactly one b machine with its counters
	// at their pre-migration values, and its original stays frozen.
	sp = e.tr.begin("core.ReadCounter*")
	seen := 0
	for _, rt := range w.remotes {
		for _, app := range rt.Machine.Apps() {
			tn, ok := tenants[app.Image().Name]
			if !ok {
				continue
			}
			seen++
			good := tn.app.Library.Frozen()
			for c, id := range tn.ids {
				if v, err := app.Library.ReadCounter(id); err != nil || v != tn.want[c] {
					good = false
				}
			}
			res.ok(good, "%s: %s restored with other counter values", name, app.Image().Name)
		}
	}
	sp.end()
	res.ok(seen == len(counters), "%s: %d of %d enclaves found at the destination", name, seen, len(counters))

	if report.Completed > 0 && report.Wall > 0 {
		r.migps = float64(report.Completed) / report.Wall.Seconds()
		r.wanBytes = float64(bytesAfter-bytesBefore) / float64(report.Completed)
	}
	return r, nil
}

// runDrain is the drain workload (CPU-bound, scale 0): one discarded
// warm-up round, then measured rounds. Journal latency is reported as
// p50 and p95.
func (e env) runDrain(in *inputPlan) (*phaseResult, error) {
	return e.drainPhase(wDrain, in.Drain, 0, true)
}

// runDrainRTT is the drain-rtt workload: the same drain with the three
// latency models at scale 0.25 during Execute, so wall time is modeled
// sleeps and the CPU is mostly idle. Its p50 latency is bimodal (wave
// scheduling) and deliberately not reported.
func (e env) runDrainRTT(in *inputPlan) (*phaseResult, error) {
	return e.drainPhase(wDrainRTT, in.DrainRTT, drainRTTScale, false)
}

// drainPhase runs the rounds of a drain workload; the first is the
// warm-up, executed and checked, never reported.
func (e env) drainPhase(name string, rounds [][][]uint8, scale float64, p50 bool) (*phaseResult, error) {
	res := newPhaseResult()
	res.HigherBetter = true
	begin := time.Now()
	var lat [][]float64
	var bare []float64 // throughput of the same rounds with every observer nil
	var last *drainRound
	var cpu, wall time.Duration
	completed := 0
	for i, counters := range rounds {
		keep := i > 0
		// The traced pass repeats each measured round with the observer
		// nil, alternating which goes first, to price the obs stack.
		order := []bool{true}
		if e.tr != nil && keep {
			order = []bool{i%2 == 0, i%2 != 0}
		}
		for _, observed := range order {
			clock := res.beginRound()
			r, err := e.oneDrainRound(res, fmt.Sprintf("%s-%d", name, i), counters, scale, observed)
			if err != nil {
				return nil, err
			}
			runtime.GC()
			clock.end(keep && observed)
			switch {
			case !keep:
			case !observed:
				bare = append(bare, r.migps)
			default:
				res.series("drain_migps", 0).add(r.migps)
				res.series("wan_bytes_per_migration", 0).add(r.wanBytes)
				lat = append(lat, r.latencies)
				cpu, wall, completed = cpu+r.cpu, wall+r.wall, completed+r.completed
				last = r
			}
		}
	}
	res.Series["migration_p95_ms"] = &series{Q: 0.95, ByRound: true, rounds: lat}
	if p50 {
		res.Series["migration_p50_ms"] = &series{Q: 0.5, rounds: lat}
	}
	res.Headline = res.Series["drain_migps"].value()
	if e.tr != nil && last != nil {
		drainLayers(res, last, cpu, wall, completed)
		obsLayers(res, last)
		unconfirmed := res.Counters[cDoneUnconfirmed]
		res.Layer["fleet.done_unconfirmed_pct"] = 100 * float64(unconfirmed.N) / float64(max(unconfirmed.Of, 1))
		if b := stats.Median(bare); b > 0 {
			res.Layer["obs.drain_overhead_pct"] = 100 * (b - res.Headline) / b
		}
	}
	res.Wall = time.Since(begin)
	return res, nil
}

// drainLayers fills the per-layer rows a drain produces. CPU figures
// span all measured rounds; per-migration figures come from the last.
func drainLayers(res *phaseResult, r *drainRound, cpu, wall time.Duration, completed int) {
	n := float64(r.completed)
	if n == 0 || wall == 0 || completed == 0 {
		return
	}
	perMigrationLayers(res, n, r.sim, r.wire)
	res.Layer["core.sessions_per_1k_migrations"] = 1000 * float64(r.sessions) / n
	res.Layer["fleet.cpu_s_per_1k_migrations"] = 1000 * cpu.Seconds() / float64(completed)
	res.Layer["fleet.cpu_utilisation"] = cpu.Seconds() / (wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	if raw, err := r.journal.Encode(); err == nil && r.journal.Len() > 0 {
		res.Layer["fleet.journal_bytes_per_entry"] = float64(len(raw)) / float64(r.journal.Len())
	}
}

// obsLayers reads the system's own telemetry of the last observed drain
// round: spans per migration, the freeze windows analyze.Ledger derives,
// and the share of the critical path analyze.Summarize cannot name.
func obsLayers(res *phaseResult, r *drainRound) {
	o := r.observer
	if o == nil || r.completed == 0 {
		return
	}
	res.Layer["obs.spans_per_migration"] = (float64(o.Tracer.Len()) + float64(o.Tracer.Dropped())) / float64(r.completed)
	var freeze []float64
	for _, w := range analyze.NewLedger().Update(o) {
		if w.Kind == analyze.WindowFreeze {
			freeze = append(freeze, float64(w.Dur)/float64(time.Millisecond))
		}
	}
	if len(freeze) > 0 { // else the row stays unmeasured, which the traced pass reports
		res.Layer["obs.freeze_window_p50_ms"] = percentile(freeze, 0.5)
		res.Layer["obs.freeze_window_p99_ms"] = percentile(freeze, 0.99)
	}
	sum := analyze.Summarize(o.Tracer.Spans(), "fleet.migrate")
	res.Layer["obs.critical_path_other_pct"] = 0
	for _, p := range sum.Phases {
		if p.Phase == analyze.PhaseOther {
			res.Layer["obs.critical_path_other_pct"] = 100 * p.Fraction
		}
	}
}
