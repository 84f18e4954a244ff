package fleet_test

import (
	"context"
	"testing"

	"repro/internal/cloud"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestSessionResumeEpochFence is the resume trust-argument test: batches
// after the first resume a cached session instead of re-attesting, but a
// restarted destination ME — a brand-new enclave with a fresh epoch and
// no memory of accepted sessions — must refuse every pre-restart resume
// ticket, forcing the source back to a full quote-verified handshake.
func TestSessionResumeEpochFence(t *testing.T) {
	dc, err := cloud.NewDataCenter("dc", sim.NewInstantLatency())
	if err != nil {
		t.Fatal(err)
	}
	observer := obs.NewObserver()
	dc.SetObserver(observer)
	a, _ := dc.AddMachine("A")
	b, _ := dc.AddMachine("B")

	resumed := func() int64 {
		return observer.M().Counter(obs.MESessionResumed).Value()
	}
	refused := func() int64 {
		return observer.M().Counter(obs.MESessionResumeRefused).Value()
	}
	hit := func() int64 {
		return observer.M().Counter(obs.MESessionResumeHit).Value()
	}
	miss := func() int64 {
		return observer.M().Counter(obs.MESessionResumeMiss).Value()
	}

	// First drain: batch #1 performs the full handshake and caches the
	// session; with a single worker, batch #2 must resume it.
	launchApps(t, a, 8)
	orch := fleet.New(dc, fleet.Config{Workers: 1, BatchSize: 4, Obs: observer})
	report, err := orch.Execute(context.Background(), fleet.Drain("A"))
	if err != nil {
		t.Fatal(err)
	}
	if report.Completed != 8 || report.Failed != 0 {
		t.Fatalf("first drain: %+v", report)
	}
	if resumed() == 0 {
		t.Fatal("no batch resumed the cached session")
	}
	if refused() != 0 {
		t.Fatalf("unexpected resume refusals before restart: %d", refused())
	}
	// Cache outcome counters: batch #1 had no cached session (miss), every
	// later batch hit the cache. hit is source-side only while resumed
	// increments on both endpoints (which share this observer), so each
	// actual resume moves resumed by 2 and hit by 1.
	if miss() != 1 {
		t.Errorf("me.session.resume.miss = %d after first drain, want 1", miss())
	}
	if hit() == 0 || 2*hit() != resumed() {
		t.Errorf("me.session.resume.hit = %d, resumed = %d, want hit = resumed/2 > 0", hit(), resumed())
	}

	// Restart the destination: new ME instance, new epoch, accepted-session
	// table gone. The source still holds the old session in its cache.
	if err := b.Restart(); err != nil {
		t.Fatal(err)
	}

	// Second drain: the first batch presents the stale ticket, the fresh
	// ME refuses it, and the source falls back to a full handshake. All
	// migrations must still complete.
	states := launchApps(t, a, 8)
	orch2 := fleet.New(dc, fleet.Config{Workers: 1, BatchSize: 4, Obs: observer})
	report2, err := orch2.Execute(context.Background(), fleet.Drain("A"))
	if err != nil {
		t.Fatal(err)
	}
	if report2.Completed != 8 || report2.Failed != 0 {
		t.Fatalf("post-restart drain: %+v", report2)
	}
	if refused() == 0 {
		t.Fatal("restarted ME accepted (or never saw) a pre-restart resume ticket")
	}
	verifySurvival(t, states, []*cloud.Machine{b})
}
