package fleet_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/fleet"
)

// newRackDC builds a data center whose first 2f+1 machines form one
// replica group (escrow-enabled rack).
func newRackDC(t *testing.T, f int, ids ...string) *cloud.DataCenter {
	t.Helper()
	dc := newReplDC(t, ids...)
	if _, err := dc.NewReplicaGroup("rack", f, ids[:2*f+1]...); err != nil {
		t.Fatal(err)
	}
	return dc
}

// TestRecoveryModeResurrectsLostEnclaves is the fleet half of restart-
// anywhere recovery: an evacuation in recovery mode finds the dead
// source's lost enclaves — migrations from a dead machine used to park
// forever — and resurrects each on a rack peer from the escrow, with
// counters and app state intact.
func TestRecoveryModeResurrectsLostEnclaves(t *testing.T) {
	dc := newRackDC(t, 1, "r1", "r2", "r3")
	r1 := mustMachine(t, dc, "r1")
	states := launchApps(t, r1, 6)
	r1.Kill()

	// Without recovery mode the dead source contributes nothing: there
	// is no live enclave to migrate and nothing to do.
	empty, err := fleet.Evacuate([]string{"r1"}, []string{"r2", "r3"}).Compile(dc)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Fatalf("plain evacuate of dead source compiled %d assignments", len(empty))
	}

	var recoveredEvents atomic.Int64
	orch := fleet.New(dc, fleet.Config{Workers: 4, OnEvent: func(e fleet.Event) {
		if e.Type == fleet.EventRecovered {
			recoveredEvents.Add(1)
		}
	}})
	report, err := orch.Execute(context.Background(), fleet.RecoverLost([]string{"r1"}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if report.Completed != 6 || report.Failed != 0 {
		t.Fatalf("recovery report: %s", report)
	}
	if n := recoveredEvents.Load(); n != 6 {
		t.Fatalf("saw %d EventRecovered, want 6", n)
	}
	for _, e := range report.Journal.Entries() {
		if !e.Recovered || e.Status != fleet.StatusCompleted {
			t.Fatalf("journal entry not a completed recovery: %+v", e)
		}
	}
	if n := len(r1.LostApps()); n != 0 {
		t.Fatalf("lost manifest not drained: %d left", n)
	}
	verifySurvival(t, states, []*cloud.Machine{mustMachine(t, dc, "r2"), mustMachine(t, dc, "r3")})

	// The journal snapshot round-trips the recovery flag.
	raw, err := report.Journal.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := fleet.DecodeJournal(raw)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range decoded.Entries() {
		if !e.Recovered {
			t.Fatal("Recovered flag lost in snapshot round trip")
		}
	}
}

// TestRecoveryModeMixedSources drains a half-failed rack in one plan:
// the live source's enclaves migrate (its replica role handed to the
// spare), the dead source's are resurrected on its rack peer.
func TestRecoveryModeMixedSources(t *testing.T) {
	dc := newRackDC(t, 1, "r1", "r2", "r3", "spare")
	r1, r2 := mustMachine(t, dc, "r1"), mustMachine(t, dc, "r2")
	deadStates := launchApps(t, r1, 3)
	// The live source's apps need names distinct from launchApps':
	// verifySurvival finds each app by its image name.
	liveStates := make(map[string]*appState, 2)
	for _, name := range []string{"live-a", "live-b"} {
		app, err := r2.LaunchApp(testImage(name), core.NewMemoryStorage(), core.InitNew)
		if err != nil {
			t.Fatal(err)
		}
		ctr, _, err := app.Library.CreateCounter()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := app.Library.IncrementCounter(ctr); err != nil {
			t.Fatal(err)
		}
		sealed, err := app.Library.SealMigratable([]byte("label"), []byte("secret-"+name))
		if err != nil {
			t.Fatal(err)
		}
		liveStates[name] = &appState{ctr: ctr, value: 1, sealed: sealed}
	}
	r1.Kill()

	plan := fleet.RecoverLost([]string{"r1", "r2"}, []string{"r3", "spare"})
	orch := fleet.New(dc, fleet.Config{Workers: 4})
	report, err := orch.Execute(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if report.Completed != 5 {
		t.Fatalf("mixed plan: %s", report)
	}
	if report.ReplicaHandoffs != 1 {
		t.Fatalf("replica handoffs = %d, want 1 (r2's role to the spare)", report.ReplicaHandoffs)
	}
	r3, spare := mustMachine(t, dc, "r3"), mustMachine(t, dc, "spare")
	// The dead source's enclaves can only land on rack peers; the live
	// source's may land on either target.
	verifySurvival(t, deadStates, []*cloud.Machine{r3})
	verifySurvival(t, liveStates, []*cloud.Machine{r3, spare})
	recoveries := 0
	for _, e := range report.Journal.Entries() {
		if e.Recovered {
			recoveries++
		}
	}
	if recoveries != 3 {
		t.Fatalf("%d recovery entries, want 3", recoveries)
	}
}

// TestMidPlanSnapshots pins the orchestrator-resilience half: with a
// SnapshotStore configured, the journal is persisted after every
// migration outcome, not only at plan end — a crash mid-plan leaves
// durable progress behind.
func TestMidPlanSnapshots(t *testing.T) {
	dc := newReplDC(t, "A", "B")
	launchApps(t, mustMachine(t, dc, "A"), 5)
	store := core.NewMemoryStorage()
	orch := fleet.New(dc, fleet.Config{Workers: 2, SnapshotStore: store})
	report, err := orch.Execute(context.Background(), fleet.Drain("A"))
	if err != nil {
		t.Fatal(err)
	}
	if report.Completed != 5 {
		t.Fatalf("drain: %s", report)
	}
	// One snapshot per recorded outcome plus the final one.
	if store.Versions() < 6 {
		t.Fatalf("only %d snapshots written mid-plan", store.Versions())
	}
	raw, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	final, err := fleet.DecodeJournal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if final.Count(fleet.StatusCompleted) != 5 {
		t.Fatalf("final snapshot records %d completions", final.Count(fleet.StatusCompleted))
	}
}

// TestResumeParkedOnStart pins the auto-resume half of orchestrator
// resilience: a fresh orchestrator finds the parked migrations of a
// crashed predecessor through the source MEs' outstanding tokens and
// finishes them, no journal required.
func TestResumeParkedOnStart(t *testing.T) {
	dc := newReplDC(t, "A", "B", "C")
	states := launchApps(t, mustMachine(t, dc, "A"), 8)
	mustMachine(t, dc, "C").Kill()

	// First orchestrator drains onto the dead machine and "crashes":
	// every migration parks at the source ME.
	orch := fleet.New(dc, fleet.Config{Workers: 4, MaxAttempts: 2, RetryBackoff: time.Millisecond})
	report, err := orch.Execute(context.Background(),
		fleet.Plan{Intent: fleet.IntentDrain, Sources: []string{"A"}, Targets: []string{"C"}})
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed != 8 {
		t.Fatalf("setup drain: %s", report)
	}

	// A brand-new orchestrator resumes everything on start.
	orch2 := fleet.New(dc, fleet.Config{Workers: 4})
	resumed, err := orch2.ResumeParked(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Completed != 8 || resumed.Failed != 0 {
		t.Fatalf("resume: %s", resumed)
	}
	verifySurvival(t, states, []*cloud.Machine{mustMachine(t, dc, "B")})
	// Idempotent: nothing left to resume.
	again, err := orch2.ResumeParked(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if again.Planned != 0 {
		t.Fatalf("second resume planned %d migrations", again.Planned)
	}
}
