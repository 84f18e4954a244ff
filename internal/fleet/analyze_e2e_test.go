package fleet_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

// TestCriticalPathMatchesMeasuredLatency is the analyze plane's
// acceptance test: the per-phase critical-path breakdown of a real
// plan's traces must account for the measured fleet.migration.latency —
// the summed phase durations (per trace, they partition the root span's
// window) land within 5% of the histogram's mean, so an operator can
// trust the breakdown to explain where the measured microseconds went.
func TestCriticalPathMatchesMeasuredLatency(t *testing.T) {
	dc := newRackDC(t, 1, "m1", "m2", "m3", "m4")
	observer := obs.NewObserver()
	dc.SetObserver(observer)
	m1 := mustMachine(t, dc, "m1")
	const apps = 12
	launchApps(t, m1, apps)

	orch := fleet.New(dc, fleet.Config{Workers: 4, Obs: observer})
	report, err := orch.Execute(context.Background(), fleet.Drain("m1"))
	if err != nil {
		t.Fatal(err)
	}
	if report.Completed != apps {
		t.Fatalf("drain report: %s", report)
	}

	sum := analyze.Summarize(observer.Tracer.Spans(), "fleet.migrate")
	if sum.Count != apps {
		t.Fatalf("summarized %d fleet.migrate traces, want %d", sum.Count, apps)
	}
	var phaseMean time.Duration
	for _, p := range sum.Phases {
		phaseMean += p.Total / time.Duration(sum.Count)
	}

	h, _ := observer.Metrics.Snapshot().Histogram(obs.FleetMigrationLatency)
	if h.Count != apps {
		t.Fatalf("latency histogram count = %d, want %d", h.Count, apps)
	}
	diff := phaseMean - h.Mean
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.05*float64(h.Mean) {
		t.Fatalf("critical-path phase sum mean %v vs measured latency mean %v: off by %v (> 5%%)",
			phaseMean, h.Mean, diff)
	}

	// The breakdown names real phases: transfer work must be attributed,
	// and nothing should fall into "other" on the instrumented path.
	phases := map[string]time.Duration{}
	for _, p := range sum.Phases {
		phases[p.Phase] = p.Total
	}
	if phases[obs.PhaseTransfer] == 0 {
		t.Errorf("no time attributed to transfer: %+v", sum.Phases)
	}
	if other := phases[analyze.PhaseOther]; float64(other) > 0.01*float64(sum.Total) {
		t.Errorf("%.1f%% of critical path unattributed (other) — span name missing from the phase map",
			100*float64(other)/float64(sum.Total))
	}
}

// TestUnavailabilityLedgerFromPlan checks the derived downtime windows
// on a real drain: every migrated enclave gets one freeze window
// (lib.freeze start -> lib.resume end) and the ledger publishes the
// unavail.freeze.window histogram exactly once per window.
func TestUnavailabilityLedgerFromPlan(t *testing.T) {
	dc := newRackDC(t, 1, "m1", "m2", "m3", "m4")
	observer := obs.NewObserver()
	dc.SetObserver(observer)
	m1 := mustMachine(t, dc, "m1")
	const apps = 6
	launchApps(t, m1, apps)

	orch := fleet.New(dc, fleet.Config{Workers: 2, Obs: observer})
	if _, err := orch.Execute(context.Background(), fleet.Drain("m1")); err != nil {
		t.Fatal(err)
	}

	ld := analyze.NewLedger()
	windows := ld.Update(observer)
	freezes := 0
	for _, w := range windows {
		if w.Kind == analyze.WindowFreeze {
			freezes++
			if w.Dur <= 0 {
				t.Errorf("non-positive freeze window: %+v", w)
			}
		}
	}
	if freezes != apps {
		t.Fatalf("derived %d freeze windows, want %d (windows: %+v)", freezes, apps, windows)
	}
	ld.Update(observer) // idempotent
	h, _ := observer.Metrics.Snapshot().Histogram(obs.UnavailFreezeWindow)
	if h.Count != apps {
		t.Fatalf("unavail.freeze.window count = %d, want %d", h.Count, apps)
	}
}
