package federation

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/sim"
	"repro/internal/transport"
)

// twoPlainSites builds two federated DCs without replica groups (plain
// per-machine counters), for fleet tests where rack semantics are not
// the point.
func twoPlainSites(t *testing.T, cfg transport.WANConfig) (*Federation, *cloud.DataCenter, *cloud.DataCenter, *transport.WANLink) {
	t.Helper()
	f := New("fed")
	dcs := make([]*cloud.DataCenter, 0, 2)
	for _, name := range []string{"dc-a", "dc-b"} {
		dc, err := cloud.NewDataCenter(name, sim.NewInstantLatency())
		if err != nil {
			t.Fatal(err)
		}
		prefix := name[len(name)-1:]
		for i := 1; i <= 3; i++ {
			if _, err := dc.AddMachine(fmt.Sprintf("%s%d", prefix, i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Admit(dc); err != nil {
			t.Fatal(err)
		}
		dcs = append(dcs, dc)
	}
	link, err := f.Connect("dc-a", "dc-b", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f, dcs[0], dcs[1], link
}

// remoteTargets wraps dc-b's machines as fleet remote targets.
func remoteTargets(t *testing.T, dcB *cloud.DataCenter, link string, ids ...string) []fleet.RemoteTarget {
	t.Helper()
	var out []fleet.RemoteTarget
	for _, id := range ids {
		m, ok := dcB.Machine(id)
		if !ok {
			t.Fatalf("unknown machine %s", id)
		}
		out = append(out, fleet.RemoteTarget{Machine: m, Link: link})
	}
	return out
}

// TestCrossDCEvacuation drains a dc-a machine entirely onto dc-b
// machines over the WAN link, with a per-link concurrency cap, and
// verifies counters survive and the journal records the link.
func TestCrossDCEvacuation(t *testing.T) {
	_, dcA, dcB, link := twoPlainSites(t, transport.WANConfig{RTT: time.Millisecond})
	a1, _ := dcA.Machine("a1")

	const apps = 12
	ctrs := make(map[string]int, apps)
	for i := 0; i < apps; i++ {
		name := fmt.Sprintf("tenant-%02d", i)
		app, err := a1.LaunchApp(appImage(name), core.NewMemoryStorage(), core.InitNew)
		if err != nil {
			t.Fatal(err)
		}
		ctr, _, err := app.Library.CreateCounter()
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j <= i%3; j++ {
			if _, err := app.Library.IncrementCounter(ctr); err != nil {
				t.Fatal(err)
			}
		}
		ctrs[name] = ctr
	}

	plan := fleet.Plan{
		Intent:        fleet.IntentEvacuate,
		Sources:       []string{"a1"},
		RemoteTargets: remoteTargets(t, dcB, link.Name(), "b1", "b2", "b3"),
	}
	orch := fleet.New(dcA, fleet.Config{
		Workers: 8,
		LinkCap: map[string]int{link.Name(): 2},
	})
	report, err := orch.Execute(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if report.Completed != apps || report.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want %d/0\n%s", report.Completed, report.Failed, apps, report)
	}
	for _, e := range report.Journal.Entries() {
		if e.Link != link.Name() {
			t.Fatalf("entry %s has link %q, want %q", e.App, e.Link, link.Name())
		}
		if e.Counters != 1 {
			t.Fatalf("entry %s journals %d counters, want 1", e.App, e.Counters)
		}
	}
	if a1.AppCount() != 0 {
		t.Fatalf("source not drained: %d apps remain", a1.AppCount())
	}
	landed := 0
	for _, m := range dcB.Machines() {
		for _, app := range m.Apps() {
			landed++
			want := uint32(1)
			for i := 0; i < apps; i++ {
				if app.Image().Name == fmt.Sprintf("tenant-%02d", i) {
					want = uint32(i%3 + 1)
				}
			}
			if v, err := app.Library.ReadCounter(ctrs[app.Image().Name]); err != nil || v != want {
				t.Fatalf("%s counter = %d, %v; want %d", app.Image().Name, v, err, want)
			}
		}
	}
	if landed != apps {
		t.Fatalf("%d apps landed in dc-b, want %d", landed, apps)
	}
	if msgs, _ := link.Stats(); msgs == 0 {
		t.Fatal("no traffic crossed the link")
	}
}

// TestCrossDCBatchCompressRatio: a batched cross-DC drain records the
// achieved compression ratio (permille of input) both globally and in a
// per-link histogram family, keyed by the BatchOpts.Link the fleet
// threads through from the plan's RemoteTargets.
func TestCrossDCBatchCompressRatio(t *testing.T) {
	_, dcA, dcB, link := twoPlainSites(t, transport.WANConfig{RTT: time.Millisecond})
	observer := obs.NewObserver()
	dcA.SetObserver(observer)
	a1, _ := dcA.Machine("a1")

	const apps = 6
	for i := 0; i < apps; i++ {
		app, err := a1.LaunchApp(appImage(fmt.Sprintf("zip-%d", i)), core.NewMemoryStorage(), core.InitNew)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := app.Library.CreateCounter(); err != nil {
			t.Fatal(err)
		}
	}

	plan := fleet.Plan{
		Intent:        fleet.IntentEvacuate,
		Sources:       []string{"a1"},
		RemoteTargets: remoteTargets(t, dcB, link.Name(), "b1"),
	}
	orch := fleet.New(dcA, fleet.Config{Workers: 2, BatchSize: 3, Obs: observer})
	report, err := orch.Execute(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if report.Completed != apps || report.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want %d/0\n%s", report.Completed, report.Failed, apps, report)
	}

	snap := observer.M().Snapshot()
	global, ok := snap.Histogram(obs.WANCompressRatio)
	if !ok {
		t.Fatalf("wan.compress.ratio not recorded: %+v", snap.Series)
	}
	perLink, ok := snap.Histogram(obs.WANCompressRatioLink, link.Name())
	if !ok {
		t.Fatalf("wan.compress.ratio.link{link=%q} missing: %+v", link.Name(), snap.Series)
	}
	if perLink.Count != global.Count {
		t.Errorf("per-link count %d != global count %d (all batches crossed one link)", perLink.Count, global.Count)
	}
	// Ratios are permille of input bytes: >0 always, and even a stored
	// (incompressible) frame only adds a small header, so the highest
	// occupied bucket stays in a sane range.
	if global.Mean <= 0 || global.Max > 2048 {
		t.Errorf("implausible compress ratio: mean=%d max=%d permille", global.Mean, global.Max)
	}
}

// TestWANPartitionDrainParksAndResumes: a cross-DC drain against a
// partitioned link parks every migration safely (sources frozen, data
// held at the source MEs), and after the link heals, ResumeParked
// finishes them at the originally planned remote destinations.
func TestWANPartitionDrainParksAndResumes(t *testing.T) {
	_, dcA, dcB, link := twoPlainSites(t, transport.WANConfig{})
	a1, _ := dcA.Machine("a1")

	const apps = 4
	ctrs := make(map[string]int, apps)
	for i := 0; i < apps; i++ {
		name := fmt.Sprintf("parked-%d", i)
		app, err := a1.LaunchApp(appImage(name), core.NewMemoryStorage(), core.InitNew)
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
		ctrs[name] = ctr
	}

	link.SetDown(true)
	plan := fleet.Plan{
		Intent:        fleet.IntentEvacuate,
		Sources:       []string{"a1"},
		RemoteTargets: remoteTargets(t, dcB, link.Name(), "b1"),
	}
	orch := fleet.New(dcA, fleet.Config{
		Workers:      4,
		MaxAttempts:  2,
		RetryBackoff: time.Millisecond,
	})
	report, err := orch.Execute(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed != apps || report.Completed != 0 {
		t.Fatalf("partitioned drain: completed=%d failed=%d, want 0/%d", report.Completed, report.Failed, apps)
	}
	// Parked, not lost: every source library is frozen with its data at
	// the source ME.
	for _, app := range a1.Apps() {
		if !app.Library.Frozen() {
			t.Fatalf("%s not frozen after parked migration", app.Image().Name)
		}
		if app.Library.MigrationToken() == nil {
			t.Fatalf("%s has no migration token", app.Image().Name)
		}
	}

	// The link heals; ResumeParked finishes the drain across it.
	link.SetDown(false)
	resumed, err := orch.ResumeParked(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Completed != apps || resumed.Failed != 0 {
		t.Fatalf("resume: completed=%d failed=%d, want %d/0\n%s", resumed.Completed, resumed.Failed, apps, resumed)
	}
	b1, _ := dcB.Machine("b1")
	if b1.AppCount() != apps {
		t.Fatalf("b1 hosts %d apps after resume, want %d", b1.AppCount(), apps)
	}
	for _, app := range b1.Apps() {
		if v, err := app.Library.ReadCounter(ctrs[app.Image().Name]); err != nil || v != 1 {
			t.Fatalf("%s counter = %d, %v; want 1", app.Image().Name, v, err)
		}
	}
}

// TestRevokedFederationCutsOffCachedSession: two federated sites with a
// resumable session between a1 and b1; either operator withdrawing the
// trust grant must stop deliveries to b1 while the WAN link stays up —
// a single StartMigration and a 4-wide stream alike. The members stay
// frozen and held at a1, and a later local plan lands them on a2.
func TestRevokedFederationCutsOffCachedSession(t *testing.T) {
	for _, revoker := range []string{"source site", "destination site"} {
		t.Run(revoker, func(t *testing.T) {
			_, dcA, dcB, link := twoPlainSites(t, transport.WANConfig{})
			a1, _ := dcA.Machine("a1")
			a2, _ := dcA.Machine("a2")
			b1, _ := dcB.Machine("b1")
			launch := func(prefix string, n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					app, err := a1.LaunchApp(appImage(fmt.Sprintf("%s-%d", prefix, i)), core.NewMemoryStorage(), core.InitNew)
					if err != nil {
						t.Fatal(err)
					}
					if _, _, err := app.Library.CreateCounter(); err != nil {
						t.Fatal(err)
					}
				}
			}
			cfg := fleet.Config{Workers: 2, BatchSize: 4, MaxAttempts: 2, RetryBackoff: time.Millisecond}
			toB1 := fleet.Plan{Intent: fleet.IntentEvacuate, Sources: []string{"a1"},
				RemoteTargets: remoteTargets(t, dcB, link.Name(), "b1")}

			launch("before", 4)
			report, err := fleet.New(dcA, cfg).Execute(context.Background(), toB1)
			if err != nil || report.Completed != 4 {
				t.Fatalf("evacuation before revocation: %v %+v", err, report)
			}

			if revoker == "source site" {
				dcA.Provider.RevokeFederation(dcB.Provider.Name())
			} else {
				dcB.Provider.RevokeFederation(dcA.Provider.Name())
			}

			launch("single", 1)
			single := a1.Apps()[0]
			if err := single.Library.StartMigration(b1.MEAddress()); !errors.Is(err, core.ErrMigrationPending) {
				t.Fatalf("StartMigration across a revoked federation: %v, want ErrMigrationPending", err)
			}
			launch("after", 4)
			report, err = fleet.New(dcA, cfg).Execute(context.Background(), toB1)
			if err != nil {
				t.Fatal(err)
			}
			if report.Failed != 5 || report.Completed != 0 {
				t.Fatalf("evacuation across a revoked federation: %+v, want all 5 failed", report)
			}
			if n := b1.ME.PendingIncoming(); n != 0 {
				t.Fatalf("b1 stores %d envelopes from an unfederated site", n)
			}
			if n := b1.AppCount(); n != 4 {
				t.Fatalf("b1 hosts %d apps, want the 4 from before the revocation", n)
			}
			for _, app := range a1.Apps() {
				if !app.Library.Frozen() || app.Library.MigrationToken() == nil {
					t.Fatalf("%s not frozen and held after the refused evacuation", app.Image().Name)
				}
			}
			if down := link.Down(); down {
				t.Fatal("link went down; the refusal must come from the trust check")
			}

			// A later plan that no longer names the remote site.
			report, err = fleet.New(dcA, cfg).Execute(context.Background(),
				fleet.Plan{Intent: fleet.IntentDrain, Sources: []string{"a1"}, Targets: []string{"a2"}})
			if err != nil {
				t.Fatal(err)
			}
			if report.Completed != 5 || report.Failed != 0 {
				t.Fatalf("local drain after the revocation: %+v", report)
			}
			if n := a2.AppCount(); n != 5 {
				t.Fatalf("a2 hosts %d apps, want 5", n)
			}
		})
	}
}

// TestCrossDCStreamCriticalPathNamed: the path behind the headline drain
// numbers — a multi-member stream across the WAN — must be explainable
// from its own telemetry. Every fleet.migrate trace partitions into named
// phases with at most 1% left in "other", and the stream's legs (offer,
// data frames, link hops) show up under attest, transfer and wan through
// the same span names a stream of one uses. The destination's resume and
// DONE spans hang off the source's long-finished me.migrate-out span; the
// partition adopts them into the enclosing fleet.migrate span, so resume
// and commit are phases of their own rather than "orchestrate" time.
func TestCrossDCStreamCriticalPathNamed(t *testing.T) {
	fed, dcA, dcB, link := twoPlainSites(t, transport.WANConfig{RTT: time.Millisecond})
	observer := obs.NewObserver()
	fed.SetObserver(observer)
	dcA.SetObserver(observer)
	dcB.SetObserver(observer)
	a1, _ := dcA.Machine("a1")

	const apps = 8
	for i := 0; i < apps; i++ {
		app, err := a1.LaunchApp(appImage(fmt.Sprintf("path-%d", i)), core.NewMemoryStorage(), core.InitNew)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := app.Library.CreateCounter(); err != nil {
			t.Fatal(err)
		}
	}
	orch := fleet.New(dcA, fleet.Config{Workers: 2, BatchSize: 4, Obs: observer})
	report, err := orch.Execute(context.Background(), fleet.Plan{
		Intent:        fleet.IntentEvacuate,
		Sources:       []string{"a1"},
		RemoteTargets: remoteTargets(t, dcB, link.Name(), "b1"),
	})
	if err != nil || report.Completed != apps {
		t.Fatalf("evacuation: %v %+v", err, report)
	}

	sum := analyze.Summarize(observer.Tracer.Spans(), "fleet.migrate")
	if sum.Count != apps {
		t.Fatalf("summarized %d fleet.migrate traces, want %d", sum.Count, apps)
	}
	share := map[string]float64{}
	for _, p := range sum.Phases {
		share[p.Phase] = p.Fraction
	}
	if share[analyze.PhaseOther] > 0.01 {
		t.Errorf("%.1f%% of the streamed drain's critical path is unattributed (other): %+v",
			100*share[analyze.PhaseOther], sum.Phases)
	}
	for _, phase := range []string{obs.PhaseFreeze, obs.PhaseAttest, obs.PhaseTransfer, obs.PhaseWAN, obs.PhaseResume, obs.PhaseCommit} {
		if share[phase] == 0 {
			t.Errorf("no critical-path time attributed to %q: %+v", phase, sum.Phases)
		}
	}
}
