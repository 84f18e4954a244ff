package fleet_test

import (
	"context"
	"testing"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// TestKillRecoverSingleTrace is the tracing acceptance test for the
// failure path: one trace ID follows a kill -> recover sequence from the
// orchestrator's root span through the escrow fetch and the binding
// arbitration to the resurrected library, and the audit events carry the
// same trace.
func TestKillRecoverSingleTrace(t *testing.T) {
	dc := newRackDC(t, 1, "r1", "r2", "r3")
	observer := obs.NewObserver()
	dc.SetObserver(observer)
	r1 := mustMachine(t, dc, "r1")
	const apps = 3
	launchApps(t, r1, apps)
	r1.Kill()

	orch := fleet.New(dc, fleet.Config{Workers: 2, Obs: observer})
	report, err := orch.Execute(context.Background(), fleet.RecoverLost([]string{"r1"}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if report.Completed != apps {
		t.Fatalf("recovery report: %s", report)
	}

	// Each recovery is one trace rooted at fleet.recover, containing the
	// escrow fetch, the single-use binding arbitration, and the library
	// resurrection.
	recoveries := 0
	for _, spans := range observer.Tracer.ByTrace() {
		names := make(map[string]int, len(spans))
		var root obs.Span
		for _, s := range spans {
			names[s.Name]++
			if s.ParentID == 0 {
				root = s
			}
		}
		if names["fleet.recover"] == 0 {
			continue
		}
		recoveries++
		if root.Name != "fleet.recover" {
			t.Errorf("recovery trace rooted at %q, want fleet.recover", root.Name)
		}
		for _, want := range []string{"lib.recover", "escrow.get", "binding.win"} {
			if names[want] == 0 {
				t.Errorf("recovery trace missing span %q (have %v)", want, names)
			}
		}

		// The resurrection and binding-win audit events are stamped with
		// this trace's ID.
		var win, resurrect bool
		for _, e := range observer.Events.Events() {
			if e.Trace.TraceID != root.TraceID {
				continue
			}
			switch e.Type {
			case obs.EventBindingWin:
				win = true
			case obs.EventResurrection:
				resurrect = true
			}
		}
		if !win || !resurrect {
			t.Errorf("trace %x: binding-win=%v resurrection=%v, want both audit events",
				root.TraceID, win, resurrect)
		}
	}
	if recoveries != apps {
		t.Fatalf("found %d recovery traces, want %d", recoveries, apps)
	}

	// The outcome counters and latency histogram absorbed every recovery.
	snap := observer.Metrics.Snapshot()
	if n, _ := snap.Counter(obs.FleetRecovery, fleet.StatusCompleted.String()); n != apps {
		t.Errorf("fleet.recovery.completed = %d, want %d", n, apps)
	}
	h, ok := snap.Histogram(obs.FleetRecoveryLatency)
	if !ok || h.Count != apps {
		t.Errorf("fleet.recovery.latency count = %+v, want %d observations", h, apps)
	}
}
