package fleet_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/sim"
)

// TestRevocationCutsOffCachedSession is the R2 regression for session
// resume: once A and B hold a resumable attested session, revoking B
// must stop A from delivering to it — for a single StartMigration and
// for a 4-wide stream alike — exactly as it stops a first contact. The
// members stay frozen and held at A; after the operator retires the
// revoked machine a later plan lands them on a third one.
func TestRevocationCutsOffCachedSession(t *testing.T) {
	dc, err := cloud.NewDataCenter("dc", sim.NewInstantLatency())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := dc.AddMachine("A")
	b, _ := dc.AddMachine("B")
	c, _ := dc.AddMachine("C")
	cfg := fleet.Config{Workers: 2, BatchSize: 4, MaxAttempts: 2, RetryBackoff: time.Millisecond}
	toB := fleet.Plan{Intent: fleet.IntentDrain, Sources: []string{"A"}, Targets: []string{"B"}}

	launchApps(t, a, 4)
	report, err := fleet.New(dc, cfg).Execute(context.Background(), toB)
	if err != nil || report.Completed != 4 {
		t.Fatalf("drain before revocation: %v %+v", err, report)
	}
	if b.ME.AcceptedSessions() != 1 {
		t.Fatalf("B caches %d sessions after the first drain, want 1", b.ME.AcceptedSessions())
	}

	dc.Provider.Revoke("B")

	single, err := a.LaunchApp(testImage("single"), core.NewMemoryStorage(), core.InitNew)
	if err != nil {
		t.Fatal(err)
	}
	err = single.Library.StartMigration(b.MEAddress())
	if !errors.Is(err, core.ErrMigrationPending) || !strings.Contains(err.Error(), "revoked") {
		t.Fatalf("StartMigration to a revoked machine: %v, want ErrMigrationPending naming the revocation", err)
	}
	states := launchApps(t, a, 4)
	report, err = fleet.New(dc, cfg).Execute(context.Background(), toB)
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed != 5 || report.Completed != 0 {
		t.Fatalf("drain to a revoked machine: %+v, want all 5 failed", report)
	}
	for _, e := range report.Journal.Entries() {
		if !e.SourceFrozen || !strings.Contains(e.Err, "revoked") {
			t.Errorf("%s: frozen=%v err=%q, want frozen and refused for the revocation", e.App, e.SourceFrozen, e.Err)
		}
	}
	if n := b.ME.PendingIncoming(); n != 0 {
		t.Fatalf("revoked machine stores %d envelopes", n)
	}
	if n := b.AppCount(); n != 4 {
		t.Fatalf("revoked machine hosts %d apps, want the 4 from before the revocation", n)
	}
	if n := a.ME.PendingOutgoing(); n != 5 {
		t.Fatalf("source ME holds %d migrations, want 5", n)
	}

	// The engine re-targets only away from a dead destination (§V-D), so
	// the operator takes the revoked machine out of service.
	b.Kill()
	report, err = fleet.New(dc, cfg).Execute(context.Background(), fleet.Drain("A"))
	if err != nil {
		t.Fatal(err)
	}
	if report.Completed != 5 || report.Failed != 0 {
		t.Fatalf("drain after retiring the revoked machine: %+v", report)
	}
	if n := c.AppCount(); n != 5 {
		t.Fatalf("C hosts %d apps, want 5", n)
	}
	verifySurvival(t, states, []*cloud.Machine{c})
}
