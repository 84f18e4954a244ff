package fleet_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/sim"
)

// drainFreezeWindows drains n apps A→B at the given batch size under a
// scaled paper-latency model and returns the unavail.freeze.window
// histogram derived from the traces.
func drainFreezeWindows(t *testing.T, n, batchSize int) obs.HistogramSnapshot {
	t.Helper()
	dc, err := cloud.NewDataCenter("dc", sim.NewLatency(0.01))
	if err != nil {
		t.Fatal(err)
	}
	observer := obs.NewObserver()
	dc.SetObserver(observer)
	a, _ := dc.AddMachine("A")
	dc.AddMachine("B")
	launchApps(t, a, n)

	orch := fleet.New(dc, fleet.Config{Workers: 8, BatchSize: batchSize, Obs: observer})
	report, err := orch.Execute(context.Background(), fleet.Drain("A"))
	if err != nil {
		t.Fatal(err)
	}
	if report.Completed != n || report.Failed != 0 {
		t.Fatalf("batchSize %d: %+v", batchSize, report)
	}
	analyze.NewLedger().Update(observer)
	h, _ := observer.Metrics.Snapshot().Histogram(obs.UnavailFreezeWindow)
	if h.Count != int64(n) {
		t.Fatalf("batchSize %d: %d freeze windows, want %d", batchSize, h.Count, n)
	}
	return h
}

// TestFreezeWindowIndependentOfBatchSize is the stream-width acceptance
// check for availability: members of a 64-wide stream are frozen only
// just before their chunks enter the stream, so the per-enclave
// unavailability window must stay in the same band as in streams of
// one, not grow with the width.
func TestFreezeWindowIndependentOfBatchSize(t *testing.T) {
	const n = 64
	single := drainFreezeWindows(t, n, 1)
	batched := drainFreezeWindows(t, n, n)

	// Generous statistical slack: the claim is "does not scale with the
	// batch" (a serialize-then-send design would be ~64× worse), not
	// "identical to the nanosecond".
	slack := 3*single.Mean + 2*time.Millisecond
	if batched.Mean > slack {
		t.Fatalf("freeze window grew with stream width: 64-wide mean %v vs stream-of-one mean %v",
			batched.Mean, single.Mean)
	}
}
