package fleet_test

import (
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/sgx"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/xcrypto"
)

func testImage(name string) *sgx.Image {
	key := xcrypto.DeriveKey([]byte("fleet-test"), "signer")
	return &sgx.Image{Name: name, Version: 1, Code: []byte(name), SignerPublicKey: ed25519.PublicKey(key[:])}
}

// appState is what a test expects to survive a migration.
type appState struct {
	ctr    int
	value  uint32
	sealed []byte
}

// launchApps launches n uniquely-named apps on m, each with one counter
// incremented a distinct number of times and one sealed secret.
func launchApps(t testing.TB, m *cloud.Machine, n int) map[string]*appState {
	t.Helper()
	states := make(map[string]*appState, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("app-%03d", i)
		app, err := m.LaunchApp(testImage(name), core.NewMemoryStorage(), core.InitNew)
		if err != nil {
			t.Fatalf("launch %s: %v", name, err)
		}
		ctr, _, err := app.Library.CreateCounter()
		if err != nil {
			t.Fatal(err)
		}
		incs := uint32(i%5 + 1)
		for j := uint32(0); j < incs; j++ {
			if _, err := app.Library.IncrementCounter(ctr); err != nil {
				t.Fatal(err)
			}
		}
		sealed, err := app.Library.SealMigratable([]byte("label"), []byte("secret-"+name))
		if err != nil {
			t.Fatal(err)
		}
		states[name] = &appState{ctr: ctr, value: incs, sealed: sealed}
	}
	return states
}

// findApp locates a live app by image name across the given machines.
func findApp(machines []*cloud.Machine, name string) (*cloud.App, *cloud.Machine) {
	for _, m := range machines {
		for _, a := range m.Apps() {
			if a.Image().Name == name {
				return a, m
			}
		}
	}
	return nil, nil
}

// verifySurvival checks that every app's counter value and sealed secret
// survived migration onto one of the allowed machines.
func verifySurvival(t *testing.T, states map[string]*appState, allowed []*cloud.Machine) {
	t.Helper()
	for name, st := range states {
		app, host := findApp(allowed, name)
		if app == nil {
			t.Fatalf("%s: not found on any allowed machine", name)
		}
		v, err := app.Library.ReadCounter(st.ctr)
		if err != nil {
			t.Fatalf("%s on %s: read counter: %v", name, host.ID(), err)
		}
		if v != st.value {
			t.Fatalf("%s: counter = %d, want %d (rollback or fork)", name, v, st.value)
		}
		pt, _, err := app.Library.UnsealMigratable(st.sealed)
		if err != nil {
			t.Fatalf("%s: unseal: %v", name, err)
		}
		if string(pt) != "secret-"+name {
			t.Fatalf("%s: sealed data corrupted", name)
		}
	}
}

// TestDrainLargeFleet is the headline scenario: a 3-machine data center
// with 110 enclaves on one machine is drained with bounded concurrency;
// every migration completes, every source is frozen, all counter values
// survive, and the journal summarizes latency via internal/stats.
func TestDrainLargeFleet(t *testing.T) {
	lat := sim.NewInstantLatency()
	net := transport.NewNetwork(lat)
	meter := fleet.NewMeter(net)
	dc, err := cloud.NewDataCenterWithNetwork("dc", lat, meter)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := dc.AddMachine("A")
	b, _ := dc.AddMachine("B")
	c, _ := dc.AddMachine("C")

	const n = 110
	states := launchApps(t, a, n)
	if got := a.AppCount(); got != n {
		t.Fatalf("inventory on A = %d, want %d", got, n)
	}

	orch := fleet.New(dc, fleet.Config{Workers: 16, Meter: meter})
	var report *fleet.Report
	noGoroutineGrowth(t, func() { report, err = orch.Execute(context.Background(), fleet.Drain("A")) })
	if err != nil {
		t.Fatal(err)
	}
	if report.Completed != n || report.Failed != 0 || report.Canceled != 0 {
		t.Fatalf("report: %+v", report)
	}
	if got := a.AppCount(); got != 0 {
		t.Fatalf("A still hosts %d apps after drain", got)
	}
	if a.ME.PendingOutgoing() != 0 {
		t.Fatalf("source ME still holds %d unconfirmed migrations", a.ME.PendingOutgoing())
	}
	// Load ended up spread across both destinations.
	if b.AppCount() == 0 || c.AppCount() == 0 {
		t.Fatalf("lopsided drain: B=%d C=%d", b.AppCount(), c.AppCount())
	}
	if b.AppCount()+c.AppCount() != n {
		t.Fatalf("apps lost: B=%d C=%d, want total %d", b.AppCount(), c.AppCount(), n)
	}
	verifySurvival(t, states, []*cloud.Machine{b, c})

	for _, e := range report.Journal.Entries() {
		if !e.SourceFrozen {
			t.Fatalf("%s: source not frozen after migration", e.App)
		}
		if !e.DoneConfirmed {
			t.Fatalf("%s: DONE confirmation missing", e.App)
		}
		if e.StateBytes <= 0 {
			t.Fatalf("%s: state bytes not recorded", e.App)
		}
	}
	if !report.HasLatency || report.Latency.N != n {
		t.Fatalf("latency summary missing or wrong N: %+v", report.Latency)
	}
	if report.Latency.Mean <= 0 || report.Latency.CIHalf < 0 {
		t.Fatalf("implausible latency summary: %s", report.Latency)
	}
	if report.WireBytes == 0 || report.WireMessages == 0 {
		t.Fatal("meter observed no wire traffic")
	}
	if report.Throughput <= 0 {
		t.Fatalf("throughput = %v", report.Throughput)
	}
}

// TestDrainDestinationRestartMidDrain kills one destination machine the
// moment the first migration targets it: in-flight and later deliveries
// to it must be re-targeted to the surviving machine without ever opening
// a fork window.
func TestDrainDestinationRestartMidDrain(t *testing.T) {
	dc, err := cloud.NewDataCenter("dc", sim.NewInstantLatency())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := dc.AddMachine("A")
	b, _ := dc.AddMachine("B")
	c, _ := dc.AddMachine("C")

	const n = 12
	states := launchApps(t, a, n)

	var once sync.Once
	cfg := fleet.Config{
		Workers:      4,
		MaxAttempts:  5,
		RetryBackoff: time.Millisecond,
		OnEvent: func(e fleet.Event) {
			// Simulated host failure: machine C reboots just as the first
			// migration targeting it begins; its ME enclave dies with it.
			if e.Type == fleet.EventStart && e.Dest == "C" {
				once.Do(c.HW.Restart)
			}
		},
	}
	orch := fleet.New(dc, cfg)
	plan := fleet.Plan{Intent: fleet.IntentDrain, Sources: []string{"A"}, Policy: &fleet.RoundRobin{}}
	report, err := orch.Execute(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if report.Completed != n {
		for _, e := range report.Journal.Entries() {
			t.Logf("%s -> %s (planned %s): %s attempts=%d redirects=%d err=%q",
				e.App, e.Dest, e.PlannedDest, e.Status, e.Attempts, e.Redirects, e.Err)
		}
		t.Fatalf("completed = %d, want %d", report.Completed, n)
	}
	// Everything must have landed on B; C is down.
	if got := b.AppCount(); got != n {
		t.Fatalf("B hosts %d apps, want %d", got, n)
	}
	if got := c.AppCount(); got != 0 {
		t.Fatalf("dead machine C hosts %d live apps", got)
	}
	redirects := 0
	for _, e := range report.Journal.Entries() {
		if !e.SourceFrozen {
			t.Fatalf("%s: source not frozen (fork window)", e.App)
		}
		if e.Dest == "C" {
			t.Fatalf("%s: journal claims completion on dead machine", e.App)
		}
		redirects += e.Redirects
	}
	if redirects == 0 {
		t.Fatal("no redirects recorded despite mid-drain destination restart")
	}
	verifySurvival(t, states, []*cloud.Machine{b})
}

// TestRedirectToUncompiledDestination kills the only destination the
// compiled plan uses; the orchestrator must still find the healthy
// machine the compiler never assigned anything to.
func TestRedirectToUncompiledDestination(t *testing.T) {
	dc, err := cloud.NewDataCenter("dc", sim.NewInstantLatency())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := dc.AddMachine("A")
	b, _ := dc.AddMachine("B")
	c, _ := dc.AddMachine("C")
	states := launchApps(t, a, 1) // one app: the plan compiles to a single dest

	var once sync.Once
	cfg := fleet.Config{
		Workers:      1,
		MaxAttempts:  4,
		RetryBackoff: time.Millisecond,
		OnEvent: func(e fleet.Event) {
			if e.Type == fleet.EventStart {
				// Kill whichever machine the plan chose as destination.
				if m, ok := dc.Machine(e.Dest); ok {
					once.Do(m.HW.Restart)
				}
			}
		},
	}
	report, err := fleet.New(dc, cfg).Execute(context.Background(), fleet.Drain("A"))
	if err != nil {
		t.Fatal(err)
	}
	if report.Completed != 1 {
		t.Fatalf("report: %+v (entries: %+v)", report, report.Journal.Entries())
	}
	e := report.Journal.Entries()[0]
	if e.Redirects == 0 || e.Dest == e.PlannedDest {
		t.Fatalf("expected redirect away from dead %s, got entry %+v", e.PlannedDest, e)
	}
	verifySurvival(t, states, []*cloud.Machine{b, c})
}

// TestDrainAllDestinationsDownFailsCleanly verifies the reported-failure
// path and its recovery. Phase 1: the only destination dies at the first
// migration, so every migration exhausts its attempt budget and is
// reported failed — sources frozen, data parked at the source ME,
// nothing lost and nothing forked. Phase 2: a replacement machine is
// provisioned and the same drain plan re-executed; the orchestrator
// resumes the parked migrations via their tokens and completes them.
func TestDrainAllDestinationsDownFailsCleanly(t *testing.T) {
	dc, err := cloud.NewDataCenter("dc", sim.NewInstantLatency())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := dc.AddMachine("A")
	b, _ := dc.AddMachine("B")

	const n = 3
	states := launchApps(t, a, n)

	var once sync.Once
	orch := fleet.New(dc, fleet.Config{
		Workers: 2, MaxAttempts: 2, RetryBackoff: time.Millisecond,
		OnEvent: func(e fleet.Event) {
			if e.Type == fleet.EventStart {
				once.Do(b.HW.Restart) // the only destination dies immediately
			}
		},
	})
	report, err := orch.Execute(context.Background(), fleet.Drain("A"))
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed != n || report.Completed != 0 {
		t.Fatalf("report: %+v", report)
	}
	for _, e := range report.Journal.Entries() {
		if e.Err == "" {
			t.Fatalf("%s: failed entry missing its error", e.App)
		}
		if !e.SourceFrozen {
			t.Fatalf("%s: failed migration left source unfrozen", e.App)
		}
	}
	// The data is held at the source ME awaiting a later redirect: no
	// state was lost, and the frozen sources cannot fork.
	if got := a.ME.PendingOutgoing(); got != n {
		t.Fatalf("source ME holds %d pending migrations, want %d", got, n)
	}
	for _, app := range a.Apps() {
		if !app.Library.Frozen() {
			t.Fatalf("%s: source library operable after failed migration", app.Image().Name)
		}
	}

	// Phase 2: provision a replacement and re-run the drain. The frozen
	// apps' parked migrations resume through their outstanding tokens.
	c, err := dc.AddMachine("C")
	if err != nil {
		t.Fatal(err)
	}
	orch2 := fleet.New(dc, fleet.Config{Workers: 2})
	report2, err := orch2.Execute(context.Background(), fleet.Drain("A"))
	if err != nil {
		t.Fatal(err)
	}
	if report2.Completed != n || report2.Failed != 0 {
		for _, e := range report2.Journal.Entries() {
			t.Logf("%s -> %s: %s err=%q", e.App, e.Dest, e.Status, e.Err)
		}
		t.Fatalf("resume report: %+v", report2)
	}
	if got := a.ME.PendingOutgoing(); got != 0 {
		t.Fatalf("source ME still holds %d pending migrations after resume", got)
	}
	verifySurvival(t, states, []*cloud.Machine{c})
}

// TestResumeDeliveredToLiveDestination covers the fork-hazard resume
// case: an earlier, partially-run migration already delivered the
// envelope to machine B (still alive), then a new plan runs whose policy
// would prefer machine C. Re-sending to C would leave two deliverable
// copies, so the orchestrator must finish the restore on B instead.
func TestResumeDeliveredToLiveDestination(t *testing.T) {
	dc, err := cloud.NewDataCenter("dc", sim.NewInstantLatency())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := dc.AddMachine("A")
	b, _ := dc.AddMachine("B")
	c, _ := dc.AddMachine("C")
	states := launchApps(t, a, 1)

	// A bystander app on B makes C the least-loaded machine, so a naive
	// resume-by-policy would pick C.
	if _, err := b.LaunchApp(testImage("bystander"), core.NewMemoryStorage(), core.InitNew); err != nil {
		t.Fatal(err)
	}

	// The earlier plan got as far as delivering to B, then stopped
	// (orchestrator crash before restore).
	app := a.Apps()[0]
	if err := app.Library.StartMigration(b.MEAddress()); err != nil {
		t.Fatal(err)
	}
	if got := b.ME.PendingIncoming(); got != 1 {
		t.Fatalf("setup: B holds %d pending envelopes, want 1", got)
	}

	report, err := fleet.New(dc, fleet.Config{Workers: 2}).Execute(context.Background(), fleet.Drain("A"))
	if err != nil {
		t.Fatal(err)
	}
	if report.Completed != 1 {
		t.Fatalf("report: %+v (entries: %+v)", report, report.Journal.Entries())
	}
	e := report.Journal.Entries()[0]
	if e.Dest != "B" {
		t.Fatalf("resumed migration landed on %s; must finish on B where the data sits", e.Dest)
	}
	if got := c.ME.PendingIncoming() + b.ME.PendingIncoming(); got != 0 {
		t.Fatalf("%d undelivered envelope copies remain (fork risk)", got)
	}
	verifySurvival(t, states, []*cloud.Machine{b})
}

// TestIdempotentRedelivery pins the ack-loss recovery behavior: re-sending
// the very same migration (same done-token) to a destination that already
// holds it is acknowledged idempotently — one stored copy, no refusal.
func TestIdempotentRedelivery(t *testing.T) {
	dc, err := cloud.NewDataCenter("dc", sim.NewInstantLatency())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := dc.AddMachine("A")
	b, _ := dc.AddMachine("B")
	img := testImage("ack-lost")
	app, err := a.LaunchApp(img, core.NewMemoryStorage(), core.InitNew)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Library.StartMigration(b.MEAddress()); err != nil {
		t.Fatal(err)
	}
	// Simulate the source believing delivery failed (lost ack): re-send
	// the identical envelope via Redirect to the same destination.
	if err := a.ME.Redirect(app.Library.MigrationToken(), b.MEAddress()); err != nil {
		t.Fatalf("identical re-delivery refused: %v", err)
	}
	if got := b.ME.PendingIncoming(); got != 1 {
		t.Fatalf("destination holds %d envelopes after re-delivery, want 1", got)
	}
	if _, err := b.LaunchApp(img, core.NewMemoryStorage(), core.InitMigrated); err != nil {
		t.Fatal(err)
	}
	done, err := app.Library.MigrationComplete()
	if err != nil || !done {
		t.Fatalf("migration not confirmed after re-delivered restore: done=%v err=%v", done, err)
	}
	// Once DONE has arrived, any further redirect must be refused: the
	// stale envelope re-sent anywhere would fork the restored enclave.
	if err := a.ME.Redirect(app.Library.MigrationToken(), b.MEAddress()); !errors.Is(err, core.ErrMigrationDone) {
		t.Fatalf("redirect of completed migration: %v, want ErrMigrationDone", err)
	}
	if got := b.ME.PendingIncoming(); got != 0 {
		t.Fatalf("stale envelope re-delivered after completion (%d pending)", got)
	}
}

// TestExecuteCancellation cancels mid-drain: started migrations finish or
// cancel cleanly, queued ones are journaled as canceled, and the report
// stays consistent.
func TestExecuteCancellation(t *testing.T) {
	dc, err := cloud.NewDataCenter("dc", sim.NewInstantLatency())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := dc.AddMachine("A")
	dc.AddMachine("B")

	const n = 40
	launchApps(t, a, n)

	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	cfg := fleet.Config{
		Workers: 2,
		OnEvent: func(e fleet.Event) {
			if e.Type == fleet.EventCompleted {
				once.Do(cancel)
			}
		},
	}
	orch := fleet.New(dc, cfg)
	var report *fleet.Report
	noGoroutineGrowth(t, func() { report, err = orch.Execute(ctx, fleet.Drain("A")) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if report == nil {
		t.Fatal("no report on cancellation")
	}
	if report.Completed+report.Failed+report.Canceled != n {
		t.Fatalf("journal accounts for %d of %d migrations",
			report.Completed+report.Failed+report.Canceled, n)
	}
	if report.Canceled == 0 {
		t.Fatal("expected canceled migrations")
	}
	// Canceled-before-start migrations must leave their apps operable.
	for _, app := range a.Apps() {
		if app.Library.Frozen() {
			continue // froze before cancellation; data parked at the ME
		}
		if _, err := app.Library.ReadCounter(0); err != nil {
			t.Fatalf("unstarted app unusable after cancellation: %v", err)
		}
	}
}

// TestRebalanceCompile checks the rebalance planner levels an uneven
// inventory and the executor carries it out.
func TestRebalancePlan(t *testing.T) {
	dc, err := cloud.NewDataCenter("dc", sim.NewInstantLatency())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := dc.AddMachine("A")
	b, _ := dc.AddMachine("B")
	c, _ := dc.AddMachine("C")
	launchApps(t, a, 9)

	orch := fleet.New(dc, fleet.Config{Workers: 4})
	report, err := orch.Execute(context.Background(), fleet.Rebalance())
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed != 0 || report.Canceled != 0 {
		t.Fatalf("report: %+v", report)
	}
	counts := []int{a.AppCount(), b.AppCount(), c.AppCount()}
	for _, n := range counts {
		if n != 3 {
			t.Fatalf("unbalanced after rebalance: %v", counts)
		}
	}
}

// TestEvacuatePlanTargets restricts destinations to an explicit target
// set and rejects overlapping source/target sets.
func TestEvacuatePlanTargets(t *testing.T) {
	dc, err := cloud.NewDataCenter("dc", sim.NewInstantLatency())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := dc.AddMachine("A")
	b, _ := dc.AddMachine("B")
	c, _ := dc.AddMachine("C")
	launchApps(t, a, 6)

	orch := fleet.New(dc, fleet.Config{Workers: 4})
	report, err := orch.Execute(context.Background(), fleet.Evacuate([]string{"A"}, []string{"C"}))
	if err != nil {
		t.Fatal(err)
	}
	if report.Completed != 6 {
		t.Fatalf("completed = %d, want 6", report.Completed)
	}
	if b.AppCount() != 0 || c.AppCount() != 6 {
		t.Fatalf("evacuation ignored targets: B=%d C=%d", b.AppCount(), c.AppCount())
	}

	if _, err := fleet.Evacuate([]string{"A"}, []string{"A"}).Compile(dc); err == nil {
		t.Fatal("source==target accepted")
	}
	if _, err := fleet.Drain("nope").Compile(dc); !errors.Is(err, fleet.ErrUnknownMachine) {
		t.Fatalf("unknown machine: %v", err)
	}
	if _, err := (fleet.Plan{Intent: fleet.IntentDrain}).Compile(dc); !errors.Is(err, fleet.ErrEmptyPlan) {
		t.Fatalf("empty plan: %v", err)
	}
}

// TestPolicies exercises the placement policies directly.
func TestPolicies(t *testing.T) {
	dc, err := cloud.NewDataCenter("dc", sim.NewInstantLatency())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := dc.AddMachine("A")
	b, _ := dc.AddMachine("B")
	machines := []*cloud.Machine{a, b}

	ll := fleet.LeastLoaded{}
	m, err := ll.Pick(nil, machines, map[string]int{"A": 3, "B": 1})
	if err != nil || m.ID() != "B" {
		t.Fatalf("least-loaded picked %v (%v)", m, err)
	}
	m, _ = ll.Pick(nil, machines, map[string]int{"A": 2, "B": 2})
	if m.ID() != "A" {
		t.Fatalf("tie-break picked %s, want A", m.ID())
	}

	rr := &fleet.RoundRobin{}
	first, _ := rr.Pick(nil, machines, nil)
	second, _ := rr.Pick(nil, machines, nil)
	third, _ := rr.Pick(nil, machines, nil)
	if first.ID() == second.ID() || first.ID() != third.ID() {
		t.Fatalf("round robin sequence: %s %s %s", first.ID(), second.ID(), third.ID())
	}

	if _, err := ll.Pick(nil, nil, nil); !errors.Is(err, fleet.ErrNoDestination) {
		t.Fatalf("empty candidates: %v", err)
	}
}
