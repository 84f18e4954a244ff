package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/transport"
)

// TestFig2MessageSequence pins the single ME<->ME protocol to the
// paper's Fig. 2: a first-contact migration puts exactly attest, data
// and DONE on the wire, in that order, and one trace shows the same
// arrows as spans — freeze, then the transfer with its offer and data
// legs, then the destination's resume, then DONE. A second migration
// between the same two MEs resumes the attested session: same three
// messages, but no quote is produced on either side.
func TestFig2MessageSequence(t *testing.T) {
	e := newEnv(t)
	observer := obs.NewObserver()
	e.dc.SetObserver(observer)
	adv := &transport.Interceptor{}
	e.dc.Network.SetAdversary(adv)

	migrate := func(name string) (kinds []string, quotes int) {
		t.Helper()
		app, err := e.src.LaunchApp(testAppImage(t, name), core.NewMemoryStorage(), core.InitNew)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := app.Library.CreateCounter(); err != nil {
			t.Fatal(err)
		}
		seen, quoted := len(adv.Captured()), e.dc.Latency.Counts()[sim.OpQuote]
		migrateApp(t, e, app, e.dst)
		for _, m := range adv.Captured()[seen:] {
			kinds = append(kinds, m.Kind)
		}
		return kinds, e.dc.Latency.Counts()[sim.OpQuote] - quoted
	}

	fig2 := []string{"migrate-offer", "migrate-data", "migrate-done"}
	kinds, quotes := migrate("first")
	if !reflect.DeepEqual(kinds, fig2) {
		t.Fatalf("first-contact migration sent %v, want %v", kinds, fig2)
	}
	if quotes != 2 {
		t.Errorf("first contact produced %d quotes, want 2 (mutual attestation)", quotes)
	}

	// The one trace of that migration, as parent/child span names.
	var trace []obs.Span
	for _, spans := range observer.Tracer.ByTrace() {
		for _, s := range spans {
			if s.Name == "lib.freeze" {
				trace = spans
			}
		}
	}
	byName := map[string]obs.Span{}
	byID := map[uint64]obs.Span{}
	for _, s := range trace {
		byName[s.Name] = s
		byID[s.SpanID] = s
	}
	ancestor := func(s obs.Span, name string) bool {
		for s.ParentID != 0 {
			if s = byID[s.ParentID]; s.Name == name {
				return true
			}
		}
		return false
	}
	order := []string{"lib.freeze", "me.transfer", "me.offer", "me.data", "lib.resume", "me.done"}
	for i, name := range order {
		s, ok := byName[name]
		if !ok {
			t.Fatalf("migration trace has no %s span (have %d spans)", name, len(trace))
		}
		if i > 0 && s.Start.Before(byName[order[i-1]].Start) {
			t.Errorf("%s started before %s", name, order[i-1])
		}
	}
	if !ancestor(byName["me.transfer"], "lib.freeze") {
		t.Error("me.transfer does not descend from lib.freeze")
	}
	for _, leg := range []string{"me.offer", "me.data"} {
		if byID[byName[leg].ParentID].Name != "me.transfer" {
			t.Errorf("%s is not a child of me.transfer", leg)
		}
	}
	for _, later := range []string{"lib.resume", "me.done"} {
		if ancestor(byName[later], "me.transfer") {
			t.Errorf("%s nests inside me.transfer", later)
		}
	}

	kinds, quotes = migrate("second")
	if !reflect.DeepEqual(kinds, fig2) {
		t.Fatalf("second migration sent %v, want %v", kinds, fig2)
	}
	if quotes != 0 {
		t.Errorf("second migration produced %d quotes, want 0 (session resumed)", quotes)
	}
	if hit := observer.M().Counter(obs.MESessionResumeHit).Value(); hit != 1 {
		t.Errorf("me.session.resume.hit = %d, want 1", hit)
	}
}
