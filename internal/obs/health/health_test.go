package health

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// scriptRule replays a fixed sequence of levels for one entity, then
// holds the last one — the Monitor's input for hysteresis tests.
func scriptRule(entity Entity, levels ...State) Rule {
	i := 0
	return Rule{Name: "script", Eval: func(*Sample) []Result {
		lvl := levels[len(levels)-1]
		if i < len(levels) {
			lvl = levels[i]
			i++
		}
		return []Result{{Entity: entity, Level: lvl, Reason: "scripted"}}
	}}
}

func evalN(m *Monitor, n int, start time.Time) time.Time {
	for i := 0; i < n; i++ {
		start = start.Add(time.Second)
		m.Evaluate(start)
	}
	return start
}

// TestHysteresisNoFlap drives a detector that alternates healthy/degraded
// every evaluation: with TripAfter 2 the streak never reaches the bar, so
// the entity must never leave healthy and no health-changed event may
// fire — the exact flapping scenario the hysteresis exists to suppress.
func TestHysteresisNoFlap(t *testing.T) {
	o := obs.NewObserver()
	e := Entity{Kind: "link", Name: "flappy"}
	var seq []State
	for i := 0; i < 20; i++ {
		seq = append(seq, []State{Healthy, Degraded}[i%2])
	}
	m := New(o, Config{TripAfter: 2, ClearAfter: 3}, scriptRule(e, seq...))
	changes := 0
	m.OnChange(func(Change) { changes++ })

	evalN(m, 20, time.Unix(1000, 0))

	if changes != 0 {
		t.Errorf("flapping signal committed %d transitions, want 0", changes)
	}
	if st := m.StateOf("link", "flappy"); st != Healthy {
		t.Errorf("state = %s, want healthy", st)
	}
	for _, ev := range o.Events.Events() {
		if ev.Type == obs.EventHealthChanged {
			t.Fatalf("unexpected health-changed event: %+v", ev)
		}
	}
}

// TestTripAndClear walks one entity through the full lifecycle: sustained
// degradation trips after TripAfter evaluations (emitting the audit event
// and gauge), sustained recovery clears only after the slower ClearAfter.
func TestTripAndClear(t *testing.T) {
	o := obs.NewObserver()
	e := Entity{Kind: "mirror", Name: "escrow"}
	seq := []State{Degraded, Degraded, Degraded, Healthy, Healthy, Healthy, Healthy}
	m := New(o, Config{TripAfter: 2, ClearAfter: 3}, scriptRule(e, seq...))
	var changes []Change
	m.OnChange(func(c Change) { changes = append(changes, c) })

	now := time.Unix(1000, 0)
	now = now.Add(time.Second)
	m.Evaluate(now) // streak 1: still healthy
	if st := m.StateOf("mirror", "escrow"); st != Healthy {
		t.Fatalf("tripped after one evaluation (TripAfter=2): %s", st)
	}
	now = now.Add(time.Second)
	m.Evaluate(now) // streak 2: trips
	if st := m.StateOf("mirror", "escrow"); st != Degraded {
		t.Fatalf("state after 2 degraded evals = %s, want degraded", st)
	}
	snap := o.M().Snapshot()
	if g, _ := snap.Gauge(obs.HealthStateEntity, "mirror", "escrow"); g != int64(Degraded) {
		t.Errorf("health.state.entity{mirror,escrow} gauge = %d, want %d", g, Degraded)
	}
	if g, _ := snap.Gauge(obs.HealthEntitiesDegraded); g != 1 {
		t.Errorf("health.entities.degraded = %d, want 1", g)
	}

	// Healthy proposals: clears only on the third (ClearAfter=3).
	now = evalN(m, 2, now) // detector emits 1 more degraded, then healthy
	now = evalN(m, 2, now)
	if st := m.StateOf("mirror", "escrow"); st != Healthy {
		t.Fatalf("state after 3 healthy evals = %s, want healthy", st)
	}

	if len(changes) != 2 {
		t.Fatalf("got %d transitions, want 2 (trip + clear): %+v", len(changes), changes)
	}
	if changes[0].To != Degraded || changes[1].To != Healthy {
		t.Errorf("transition sequence wrong: %+v", changes)
	}
	var sawEvent bool
	for _, ev := range o.Events.Events() {
		if ev.Type == obs.EventHealthChanged && ev.Actor == "health:mirror/escrow" &&
			strings.HasPrefix(ev.Detail, "healthy->degraded") {
			sawEvent = true
		}
	}
	if !sawEvent {
		t.Error("no health-changed audit event for the trip transition")
	}
}

// TestOverallWorst asserts the rollup reports the worst entity and the
// health.state gauge tracks it.
func TestOverallWorst(t *testing.T) {
	o := obs.NewObserver()
	m := New(o, Config{TripAfter: 1, ClearAfter: 1},
		scriptRule(Entity{Kind: "link", Name: "wan-1"}, Critical),
		scriptRule(Entity{Kind: "group", Name: "rack-a"}, Degraded),
		scriptRule(Entity{Kind: "me", Name: "sessions"}, Healthy),
	)
	m.Evaluate(time.Unix(1000, 0))
	if got := m.Overall(); got != Critical {
		t.Errorf("Overall = %s, want critical", got)
	}
	snap := o.M().Snapshot()
	if g, _ := snap.Gauge(obs.HealthState); g != int64(Critical) {
		t.Errorf("health.state gauge = %d, want %d", g, Critical)
	}
	if g, _ := snap.Gauge(obs.HealthEntitiesCritical); g != 1 {
		t.Errorf("health.entities.critical = %d, want 1", g)
	}
	states := m.States()
	if len(states) != 3 {
		t.Fatalf("States() has %d entities, want 3", len(states))
	}
	// Sorted by kind then name.
	if states[0].Kind != "group" || states[1].Kind != "link" || states[2].Kind != "me" {
		t.Errorf("states not sorted: %+v", states)
	}
}

// TestStateJSONRoundTrip covers the custom State marshaling.
func TestStateJSONRoundTrip(t *testing.T) {
	for _, s := range []State{Healthy, Degraded, Critical} {
		raw, err := s.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back State
		if err := back.UnmarshalJSON(raw); err != nil {
			t.Fatalf("unmarshal %s: %v", raw, err)
		}
		if back != s {
			t.Errorf("round trip %s -> %s", s, back)
		}
	}
	var bad State
	if err := bad.UnmarshalJSON([]byte(`"on-fire"`)); err == nil {
		t.Error("unknown state name unmarshaled without error")
	}
}
