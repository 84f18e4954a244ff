package analyze

import (
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/health"
)

// TestHealthEndpointJSON drives the /health route end to end: a link
// forced down must surface as a critical entity in the JSON report, and
// an untouched observer must serve an all-healthy (empty-entity) shape.
func TestHealthEndpointJSON(t *testing.T) {
	o := obs.NewObserver()
	p := NewPlane(o)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	get := func() HealthReport {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/health")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("/health status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
			t.Fatalf("/health content type %q", ct)
		}
		var rep HealthReport
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatalf("decode /health: %v", err)
		}
		return rep
	}

	rep := get()
	if rep.Overall != health.Healthy {
		t.Fatalf("idle plane overall = %s, want healthy", rep.Overall)
	}

	o.M().Gauge(obs.WANLinkDown, "wan-ab").Set(1)
	o.M().Counter(obs.WANLinkMsgs, "wan-ab").Add(1)
	// Default hysteresis trips after 2 consecutive evaluations; each GET
	// refreshes once.
	get()
	rep = get()
	if rep.Overall != health.Critical {
		t.Fatalf("overall = %s after link down, want critical", rep.Overall)
	}
	var found bool
	for _, e := range rep.Entities {
		if e.Kind == "link" && e.Name == "wan-ab" {
			found = true
			if e.State != health.Critical {
				t.Errorf("link entity state = %s, want critical", e.State)
			}
			if e.Reason == "" || e.Since.IsZero() {
				t.Errorf("link entity missing reason/since: %+v", e)
			}
		}
	}
	if !found {
		t.Fatalf("/health entities missing the down link: %+v", rep.Entities)
	}
}

// TestOpenMetricsHealthFlightFamilies asserts the health.* gauges and
// flight.* counters survive the OpenMetrics rename/typing and re-parse
// to the values the monitor and recorder published.
func TestOpenMetricsHealthFlightFamilies(t *testing.T) {
	o := obs.NewObserver()
	p := NewPlane(o)
	o.M().Gauge(obs.WANLinkDown, "wan-ab").Set(1)
	o.M().Counter(obs.WANLinkMsgs, "wan-ab").Add(1)
	p.Refresh()
	p.Refresh() // trip the hysteresis
	if _, err := p.Flight.Trip(flight.Trigger{Kind: flight.TriggerManual, Detail: "test"}); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	if err := WriteOpenMetrics(&b, o.M().Snapshot()); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if !strings.HasSuffix(text, "# EOF\n") {
		t.Fatalf("exposition must end with # EOF:\n%s", text)
	}

	// Re-parse every sample line into name -> value.
	types := map[string]string{}
	values := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("unparseable TYPE line %q", line)
			}
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("unparseable sample line %q", line)
		}
		values[f[0]] = f[1]
	}

	wantGauges := map[string]string{
		"health_state": strconv.Itoa(int(health.Critical)),
		`health_state_entity{kind="link",name="wan-ab"}`: strconv.Itoa(int(health.Critical)),
		"health_entities_critical":                       "1",
		"health_entities_degraded":                       "0",
		"flight_last_unix_ns":                            "", // value is a timestamp; presence + type is the contract
	}
	for name, want := range wantGauges {
		family, _, _ := strings.Cut(name, "{")
		if types[family] != "gauge" {
			t.Errorf("%s: type %q, want gauge", name, types[name])
		}
		got, ok := values[name]
		if !ok {
			t.Errorf("exposition missing %s:\n%s", name, text)
			continue
		}
		if want != "" && got != want {
			t.Errorf("%s = %s, want %s", name, got, want)
		}
	}
	if types["flight_bundles"] != "counter" {
		t.Errorf("flight_bundles type %q, want counter", types["flight_bundles"])
	}
	// Two bundles: the health-critical transition auto-tripped the
	// recorder during Refresh's rule pass, then the manual Trip above.
	if got := values["flight_bundles_total"]; got != "2" {
		t.Errorf("flight_bundles_total = %q, want 2", got)
	}
}

// TestFlightEndpoints covers /flight (a decodable JSON bundle),
// including the 404 before any capture.
func TestFlightEndpoints(t *testing.T) {
	o := obs.NewObserver()
	p := NewPlane(o)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/flight")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("/flight before any capture: status %d, want 404", resp.StatusCode)
	}

	if _, err := p.Flight.Trip(flight.Trigger{Kind: flight.TriggerManual, Actor: "test"}); err != nil {
		t.Fatal(err)
	}
	resp, err = srv.Client().Get(srv.URL + "/flight")
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 0, 4096)
	buf := make([]byte, 4096)
	for {
		n, rerr := resp.Body.Read(buf)
		raw = append(raw, buf[:n]...)
		if rerr != nil {
			break
		}
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/flight status %d", resp.StatusCode)
	}
	b, err := flight.DecodeBundle(raw)
	if err != nil {
		t.Fatalf("served bundle does not decode: %v", err)
	}
	if b.Trigger.Kind != flight.TriggerManual {
		t.Errorf("served trigger = %q", b.Trigger.Kind)
	}

	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/flight Content-Type = %q, want application/json", ct)
	}
}

// TestRefreshTakesOneSnapshot: the ledger, the five watchdogs, the four
// objectives and the flight triggers all judge the same single registry
// snapshot per Refresh.
func TestRefreshTakesOneSnapshot(t *testing.T) {
	o := obs.NewObserver()
	p := NewPlane(o)
	o.M().Counter(obs.WANLinkMsgs, "wan-ab").Add(1)
	for i := 1; i <= 3; i++ {
		p.Refresh()
		if got := o.M().Snapshots(); got != int64(i) {
			t.Fatalf("after %d refreshes the registry was snapshotted %d times", i, got)
		}
	}
}

// TestCriticalTransitionTripsRecorderTyped: the recorder learns of a
// health→critical transition from the pass's typed Change. The rule's
// reason here contains neither "critical" nor "->", and the audit event
// text is whatever the monitor formats — the recorder never reads it.
func TestCriticalTransitionTripsRecorderTyped(t *testing.T) {
	o := obs.NewObserver()
	p := NewPlane(o)
	p.Health = health.New(o, health.Config{TripAfter: 1}, health.Rule{Name: "script", Eval: func(*health.Sample) []health.Result {
		return []health.Result{{Entity: health.Entity{Kind: "link", Name: "wan-ab"}, Level: health.Critical, Reason: "carrier lost"}}
	}})
	pass := p.Refresh()
	if len(pass.Changes) != 1 || pass.Changes[0].To != health.Critical {
		t.Fatalf("changes = %+v, want one transition to critical", pass.Changes)
	}
	b, _ := p.Flight.Latest()
	if b == nil || b.Trigger.Kind != flight.TriggerHealthCritical || b.Trigger.Actor != "health:link/wan-ab" {
		t.Fatalf("recorder did not trip on the typed transition: %+v", b)
	}
	if len(b.Health) != 1 || b.Health[0].State != health.Critical {
		t.Errorf("bundle health = %+v, want the pass's states", b.Health)
	}
}
