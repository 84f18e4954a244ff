package fleet_test

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/sgx"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Ordinary cloud practice is N replicas of one enclave image. The
// destination ME stores every delivered envelope under its own
// done-token, so same-identity migrations queue side by side, share
// streams, and are restored each from its own envelope.

// launchTwins launches n enclaves of img on m; twin i (from 0) holds
// `counters` counters, each incremented to i+1, so a twin is recognized by
// the value any of its counters reads.
func launchTwins(t testing.TB, m *cloud.Machine, img *sgx.Image, n, counters int) []*cloud.App {
	t.Helper()
	apps := make([]*cloud.App, n)
	for i := range apps {
		app, err := m.LaunchApp(img, core.NewMemoryStorage(), core.InitNew)
		if err != nil {
			t.Fatalf("launch twin %d: %v", i, err)
		}
		for c := 0; c < counters; c++ {
			ctr, _, err := app.Library.CreateCounter()
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j <= i; j++ {
				if _, err := app.Library.IncrementCounter(ctr); err != nil {
					t.Fatal(err)
				}
			}
		}
		apps[i] = app
	}
	return apps
}

// twinValues reads counter 0 of every app of img on m, sorted.
func twinValues(t testing.TB, m *cloud.Machine, img *sgx.Image) []uint32 {
	t.Helper()
	var got []uint32
	for _, app := range m.Apps() {
		if app.Image().Name != img.Name {
			continue
		}
		v, err := app.Library.ReadCounter(0)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, v)
	}
	slices.Sort(got)
	return got
}

// oneToN is the counter multiset launchTwins(n) must arrive as.
func oneToN(n int) []uint32 {
	want := make([]uint32, n)
	for i := range want {
		want[i] = uint32(i + 1)
	}
	return want
}

func twoMachines(t testing.TB) (*cloud.DataCenter, *cloud.Machine, *cloud.Machine) {
	t.Helper()
	dc, err := cloud.NewDataCenter("dc", sim.NewInstantLatency())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := dc.AddMachine("A")
	b, _ := dc.AddMachine("B")
	return dc, a, b
}

// TestSameImageDeliveriesQueue pins the destination's per-token store:
// two same-identity migrations to one machine are both stored, the
// paper's un-named InitMigrated launch restores them in arrival order,
// each with its own state, and both sources see their DONE.
func TestSameImageDeliveriesQueue(t *testing.T) {
	_, a, b := twoMachines(t)
	img := testImage("twin")
	apps := launchTwins(t, a, img, 2, 1)
	for i, app := range apps {
		if err := app.Library.StartMigration(b.MEAddress()); err != nil {
			t.Fatalf("delivery %d: %v", i, err)
		}
	}
	if got := b.ME.PendingIncoming(); got != 2 {
		t.Fatalf("destination holds %d envelopes, want 2", got)
	}
	for i := range apps {
		restored, err := b.LaunchApp(img, core.NewMemoryStorage(), core.InitMigrated)
		if err != nil {
			t.Fatalf("restore %d: %v", i, err)
		}
		if v, err := restored.Library.ReadCounter(0); err != nil || v != uint32(i+1) {
			t.Fatalf("restore %d read counter = %d (%v), want %d: not arrival order", i, v, err, i+1)
		}
	}
	if _, err := b.LaunchApp(img, core.NewMemoryStorage(), core.InitMigrated); !errors.Is(err, core.ErrNoPendingMigration) {
		t.Fatalf("third restore: %v, want ErrNoPendingMigration", err)
	}
	for i, app := range apps {
		if done, err := app.Library.MigrationComplete(); err != nil || !done {
			t.Fatalf("source %d: done=%v err=%v, want DONE", i, done, err)
		}
	}
	if got := b.ME.PendingIncoming(); got != 0 {
		t.Fatalf("destination still holds %d envelopes", got)
	}
}

// TestDrainSameImage migrates ten enclaves that share one MRENCLAVE to a
// single destination, as streams of one and as shared streams: none lost,
// none forked, every counter value arrives exactly once.
func TestDrainSameImage(t *testing.T) {
	for name, cfg := range map[string]fleet.Config{
		"streams-of-one": {Workers: 8},
		"shared-streams": {Workers: 4, BatchSize: 8},
	} {
		t.Run(name, func(t *testing.T) {
			dc, a, b := twoMachines(t)
			const n = 10
			img := testImage("shared-tenant")
			launchTwins(t, a, img, n, 1)
			report, err := fleet.New(dc, cfg).Execute(context.Background(), fleet.Drain("A"))
			if err != nil {
				t.Fatal(err)
			}
			if report.Completed != n || report.Failed != 0 {
				t.Fatalf("report: %+v", report)
			}
			if got := a.ME.PendingOutgoing(); got != 0 {
				t.Fatalf("source ME still holds %d unconfirmed migrations", got)
			}
			if got := twinValues(t, b, img); !slices.Equal(got, oneToN(n)) {
				t.Fatalf("counter multiset on B = %v, want %v", got, oneToN(n))
			}
		})
	}
}

// TestDrainSameImageSharesStreams drains 500 replicas of one image at
// BatchSize 64: they must ride ⌈500/64⌉ streams, not 500 streams of one.
// A stream costs one offer — two when its session resume is refused (32
// workers' resumes can reach B out of counter order) and it falls back to
// the full handshake. Counterless: the PSE allows one identity 256
// counters per machine.
func TestDrainSameImageSharesStreams(t *testing.T) {
	lat := sim.NewInstantLatency()
	metrics := obs.NewMetrics()
	meter := fleet.NewMeterWithMetrics(transport.NewNetwork(lat), metrics)
	dc, err := cloud.NewDataCenterWithNetwork("dc", lat, meter)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := dc.AddMachine("A")
	b, _ := dc.AddMachine("B")
	const n, width = 500, 64
	launchTwins(t, a, testImage("replica"), n, 0)

	orch := fleet.New(dc, fleet.Config{Workers: 32, BatchSize: width, Meter: meter})
	report, err := orch.Execute(context.Background(), fleet.Drain("A"))
	if err != nil {
		t.Fatal(err)
	}
	if report.Completed != n || b.AppCount() != n {
		t.Fatalf("report: %+v, B hosts %d", report, b.AppCount())
	}
	offers, _ := metrics.Snapshot().Counter(obs.WireMsgsKind, "migrate-offer")
	if streams := int64((n + width - 1) / width); offers < streams || offers > 2*streams {
		t.Fatalf("%d offers sent, want %d streams' worth (at most two each)", offers, streams)
	}
}

// TestSameImageRestoresPairExactly makes one restore of three fail for a
// reason of the destination's own: a resident enclave of the same image
// already holds 150 of the identity's 256 counters there, so only two of
// the three 50-counter members can re-create theirs (one restore worker,
// so they try one after the other). An older envelope of the same
// identity, delivered from a third machine and none of this plan's
// business, waits at the destination throughout. Each member restores its
// own envelope by token, so the member reported failed is exactly the one
// whose state did not land, the two reported completed are the two whose
// sources saw DONE, and the bystander's envelope is still waiting.
func TestSameImageRestoresPairExactly(t *testing.T) {
	dc, a, b := twoMachines(t)
	c, _ := dc.AddMachine("C")
	img := testImage("replica")
	resident, err := b.LaunchApp(img, core.NewMemoryStorage(), core.InitNew)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		if _, _, err := resident.Library.CreateCounter(); err != nil {
			t.Fatal(err)
		}
	}
	bystander := launchTwins(t, c, img, 1, 0)[0]
	if err := bystander.Library.StartMigration(b.MEAddress()); err != nil {
		t.Fatal(err)
	}
	sources := launchTwins(t, a, img, 3, 50)

	plan := fleet.Plan{Intent: fleet.IntentDrain, Sources: []string{"A"}, Targets: []string{"B"}}
	report, err := fleet.New(dc, fleet.Config{Workers: 1, BatchSize: 8}).Execute(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if report.Completed != 2 || report.Failed != 1 {
		t.Fatalf("report: %+v (entries: %+v)", report, report.Journal.Entries())
	}
	for _, e := range report.Journal.Entries() {
		switch {
		case e.Status == fleet.StatusCompleted && !e.DoneConfirmed:
			t.Fatalf("entry completed without its own source's DONE: %+v", e)
		case e.Status == fleet.StatusFailed && !strings.Contains(e.Err, fleet.ErrRestoreOnLiveDestination.Error()):
			t.Fatalf("failed entry: %q, want ErrRestoreOnLiveDestination", e.Err)
		}
	}
	// Source i's state reads i+1 in every counter: it is on B if and only
	// if source i's DONE arrived.
	landed := twinValues(t, b, img) // the resident's counter 0 reads 0
	done := 0
	for i, app := range sources {
		_, _, confirmed, err := a.ME.OutgoingStatus(app.Library.MigrationToken())
		if err != nil {
			t.Fatal(err)
		}
		if confirmed {
			done++
		}
		if confirmed != slices.Contains(landed, uint32(i+1)) {
			t.Fatalf("source %d: DONE=%v but values on B are %v", i, confirmed, landed)
		}
	}
	if done != 2 || len(landed) != 3 {
		t.Fatalf("%d sources saw DONE, B reads %v; want 2 and the resident plus two", done, landed)
	}
	// The member that failed gave back the six counters it had re-created
	// before B ran out: the identity holds the resident's and two members'.
	if got := b.Counters.Count(resident.Enclave.MREnclave()); got != 150+2*50 {
		t.Fatalf("identity holds %d counters on B, want 250", got)
	}
	if confirmed, err := bystander.Library.MigrationComplete(); err != nil || confirmed || b.ME.PendingIncoming() != 1 {
		t.Fatalf("bystander: done=%v err=%v, B holds %d envelopes; want it untouched", confirmed, err, b.ME.PendingIncoming())
	}
}

// TestNamedFetchIsIdentityChecked: naming a done-token does not widen who
// may fetch it. An enclave of image X naming image Y's token gets nothing,
// and Y's envelope is still there for Y.
func TestNamedFetchIsIdentityChecked(t *testing.T) {
	_, a, b := twoMachines(t)
	imgX, imgY := testImage("x"), testImage("y")
	y := launchTwins(t, a, imgY, 1, 1)[0]
	if err := y.Library.StartMigration(b.MEAddress()); err != nil {
		t.Fatal(err)
	}
	token := y.Library.MigrationToken()
	if _, err := b.RestoreApp(imgX, core.NewMemoryStorage(), token); !errors.Is(err, core.ErrNoPendingMigration) {
		t.Fatalf("X naming Y's token: %v, want ErrNoPendingMigration", err)
	}
	if got := b.ME.PendingIncoming(); got != 1 {
		t.Fatalf("Y's envelope gone after X's refused fetch (%d pending)", got)
	}
	if _, err := b.RestoreApp(imgY, core.NewMemoryStorage(), token); err != nil {
		t.Fatalf("Y restoring its own envelope: %v", err)
	}
	if got := twinValues(t, b, imgY); !slices.Equal(got, []uint32{1}) {
		t.Fatalf("Y's counter on B = %v, want [1]", got)
	}
	if _, err := b.RestoreApp(imgY, core.NewMemoryStorage(), token); !errors.Is(err, core.ErrNoPendingMigration) {
		t.Fatalf("second fetch of a tombstoned token: %v, want ErrNoPendingMigration", err)
	}
}

// TestResumeDeliveredToRebootedDestination: a migration was delivered to
// B, then B rebooted — the stored copy died with its ME's enclave memory,
// the source ME still holds the data. The new ME instance on B is alive,
// and the resumed migration must be re-delivered to it, not wait forever
// for a restore of an envelope that no longer exists.
func TestResumeDeliveredToRebootedDestination(t *testing.T) {
	for name, resume := range map[string]func(*fleet.Orchestrator) (*fleet.Report, error){
		"drain": func(o *fleet.Orchestrator) (*fleet.Report, error) {
			return o.Execute(context.Background(), fleet.Drain("A"))
		},
		"resume-parked": func(o *fleet.Orchestrator) (*fleet.Report, error) { return o.ResumeParked(context.Background()) },
	} {
		t.Run(name, func(t *testing.T) {
			dc, a, b := twoMachines(t)
			states := launchApps(t, a, 1)
			if err := a.Apps()[0].Library.StartMigration(b.MEAddress()); err != nil {
				t.Fatal(err)
			}
			b.Kill()
			if err := b.Restart(); err != nil {
				t.Fatal(err)
			}
			if got := b.ME.PendingIncoming(); got != 0 {
				t.Fatalf("setup: rebooted B holds %d envelopes, want 0", got)
			}
			report, err := resume(fleet.New(dc, fleet.Config{Workers: 2}))
			if err != nil {
				t.Fatal(err)
			}
			if report.Completed != 1 {
				t.Fatalf("report: %+v (entries: %+v)", report, report.Journal.Entries())
			}
			if e := report.Journal.Entries()[0]; e.Dest != "B" || e.Attempts != 1 || !e.DoneConfirmed {
				t.Fatalf("entry: %+v, want one confirmed delivery to B", e)
			}
			if got := a.ME.PendingOutgoing(); got != 0 {
				t.Fatalf("source ME still holds %d unconfirmed migrations", got)
			}
			verifySurvival(t, states, []*cloud.Machine{b})
		})
	}
}
