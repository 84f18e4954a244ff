package federation

import (
	"context"
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

// notInScenario lists the catalogue entries TestTelemetryContract does
// not expect to see, each with the reason. Anything else the catalogue
// declares must be emitted by the scenario, and the scenario must emit
// nothing the catalogue does not declare (which cannot compile).
var notInScenario = map[string]string{
	"me.session.resume.refused":     "needs a destination ME that lost its session table (restart) between two streams",
	"me.session.evicted":            "needs 256 live sessions at one destination to hit the table bound",
	"me.stream.rx.evicted":          "needs 128 unfinished streams at one destination to hit the table bound",
	"me.stream.rx.aborted":          "needs a stream that ends short after its offer was accepted",
	"fig3":                          "offline experiment samples, recorded by bench.Fig3 (cmd/benchfig's test checks them)",
	"fig4":                          "offline experiment samples, recorded by bench.Fig4",
	"migration.end-to-end.overhead": "offline experiment samples, recorded by bench.MigrationOverhead",
	"sim.op":                        "latency-model tallies, recorded by the bench experiments",
	"me.handle-migrate-abort":       "span of the migrate-abort handler; see me.stream.rx.aborted",
}

// TestTelemetryContract drives one scenario through every layer that
// emits telemetry — a mirror flush, a streamed cross-DC drain across a
// WAN flap, a kill and rack recovery, a site loss with forced failover,
// one Plane.Refresh — and checks the catalogue against what arrived:
// every declared metric family has a series and every declared span was
// recorded, except the reasoned entries of notInScenario. (A link and a
// replica group resolve their per-entity children when the observer is
// attached, so those series exist at zero before the first event.)
func TestTelemetryContract(t *testing.T) {
	observer := obs.NewObserver()
	fed := New("fed")
	t.Cleanup(fed.Close)
	var dcs []*cloud.DataCenter
	for _, name := range []string{"dc-a", "dc-b"} {
		lat := sim.NewInstantLatency()
		meter := fleet.NewMeterWithMetrics(transport.NewNetwork(lat), observer.Metrics)
		dc, err := cloud.NewDataCenterWithNetwork(name, lat, meter)
		if err != nil {
			t.Fatal(err)
		}
		prefix := name[len(name)-1:]
		var ids []string
		for i := 1; i <= 4; i++ {
			id := fmt.Sprintf("%s%d", prefix, i)
			if _, err := dc.AddMachine(id); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		if _, err := dc.NewReplicaGroup("rack-"+prefix, 1, ids[:3]...); err != nil {
			t.Fatal(err)
		}
		if err := fed.Admit(dc); err != nil {
			t.Fatal(err)
		}
		dc.SetObserver(observer)
		dcs = append(dcs, dc)
	}
	dcA, dcB := dcs[0], dcs[1]
	link, err := fed.Connect("dc-a", "dc-b", transport.WANConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mirror, err := fed.PartnerGroups("dc-a", "rack-a", "dc-b", "rack-b")
	if err != nil {
		t.Fatal(err)
	}
	fed.SetObserver(observer)
	plane := analyze.NewPlane(observer)
	machine := func(dc *cloud.DataCenter, id string) *cloud.Machine {
		m, ok := dc.Machine(id)
		if !ok {
			t.Fatalf("no machine %s", id)
		}
		return m
	}

	// Rack-hosted apps: their escrow records feed the mirror.
	for i := 0; i < 2; i++ {
		launchLedger(t, machine(dcA, "a1"), fmt.Sprintf("ledger-%d", i))
		launchLedger(t, machine(dcA, "a2"), fmt.Sprintf("victim-%d", i))
	}
	// A baseline flush makes every instance known to the mirror (the
	// background worker's first syncs are done by the time it returns);
	// then a flush over a severed link fails loudly, and lands after
	// the heal.
	if err := mirror.Flush(); err != nil {
		t.Fatalf("baseline flush: %v", err)
	}
	link.SetDown(true)
	if err := mirror.Flush(); err == nil {
		t.Fatal("flush over a severed link reported success")
	}
	link.SetDown(false)
	if err := mirror.Flush(); err != nil {
		t.Fatalf("mirror flush: %v", err)
	}

	// Streamed cross-DC drain of the spare machine across a WAN flap:
	// the first plan parks every member, ResumeParked lands them; a
	// second drain over the same machines resumes the attested session.
	cfg := fleet.Config{Workers: 2, BatchSize: 4, MaxAttempts: 2, RetryBackoff: time.Millisecond, Obs: observer}
	orch := fleet.New(dcA, cfg)
	drain := func(prefix string, down bool) {
		t.Helper()
		for i := 0; i < 4; i++ {
			app, err := machine(dcA, "a4").LaunchApp(appImage(fmt.Sprintf("%s-%d", prefix, i)), core.NewMemoryStorage(), core.InitNew)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := app.Library.CreateCounter(); err != nil {
				t.Fatal(err)
			}
		}
		link.SetDown(down)
		report, err := orch.Execute(context.Background(), fleet.Plan{
			Intent:        fleet.IntentEvacuate,
			Sources:       []string{"a4"},
			RemoteTargets: remoteTargets(t, dcB, link.Name(), "b4"),
		})
		if err != nil {
			t.Fatal(err)
		}
		if down {
			if report.Failed != 4 {
				t.Fatalf("partitioned drain: %s", report)
			}
			link.SetDown(false)
			if report, err = orch.ResumeParked(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		if report.Completed != 4 || report.Failed != 0 {
			t.Fatalf("drain %s: %s", prefix, report)
		}
	}
	drain("flap", true)
	drain("again", false)

	// Kill a rack machine; the fleet resurrects its enclaves on a peer.
	machine(dcA, "a2").Kill()
	report, err := orch.Execute(context.Background(), fleet.RecoverLost([]string{"a2"}, []string{"a3"}))
	if err != nil || report.Completed != 2 {
		t.Fatalf("rack recovery: %v %s", err, report)
	}

	// Site loss: the rest of rack-a dies, the operator forces a1's
	// enclaves over to dc-b from the mirrored escrow.
	if err := mirror.Flush(); err != nil {
		t.Fatalf("mirror flush before site loss: %v", err)
	}
	for _, id := range []string{"a1", "a3"} {
		machine(dcA, id).Kill()
	}
	if recovered, err := fed.RecoverMachine("dc-a", "a1", "dc-b", "b1", true); err != nil || len(recovered) != 2 {
		t.Fatalf("forced failover: %d recovered, %v", len(recovered), err)
	}

	plane.Refresh()
	plane.Refresh() // trips the default hysteresis; the failover is also a flight trigger

	snap := observer.M().Snapshot()
	seen := map[string]bool{}
	for _, sr := range snap.Series {
		seen[sr.Name] = true
	}
	for _, d := range obs.Catalogue() {
		if reason, skip := notInScenario[d.Name]; skip {
			if seen[d.Name] {
				t.Errorf("%s is emitted after all; drop it from notInScenario (%s)", d.Name, reason)
			}
		} else if !seen[d.Name] {
			t.Errorf("catalogued metric %s was never emitted", d.Name)
		}
	}
	recorded := spanNames(observer.Tracer.Spans())
	for _, d := range obs.SpanCatalogue() {
		if reason, skip := notInScenario[d.Name]; skip {
			if recorded[d.Name] > 0 {
				t.Errorf("span %s is recorded after all; drop it from notInScenario (%s)", d.Name, reason)
			}
		} else if recorded[d.Name] == 0 {
			t.Errorf("catalogued span %s was never recorded", d.Name)
		}
	}
	if dropped := observer.Tracer.Dropped(); dropped != 0 {
		t.Errorf("the span ring dropped %d spans; the check above is not exact", dropped)
	}
}
