package fleet_test

import (
	"context"
	"testing"

	"repro/internal/cloud"
	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/transport"
)

// TestDrainBatched drains a large fleet with BatchSize 16: every
// migration must complete with its DONE confirmed, and all counter
// values and sealed secrets must survive, exactly as in streams of one.
func TestDrainBatched(t *testing.T) {
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

	const n = 60
	states := launchApps(t, a, n)

	orch := fleet.New(dc, fleet.Config{Workers: 8, BatchSize: 16, Meter: meter})
	report, err := orch.Execute(context.Background(), fleet.Drain("A"))
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
	}
	if !report.HasLatency || report.Latency.N != n {
		t.Fatalf("latency summary missing or wrong N: %+v", report.Latency)
	}
}
