package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/flight"
	"repro/internal/obs/health"
)

// lingerWatcher is run's stdout: it keeps the report and signals when
// the "lingering" line arrives, i.e. when the plan is over and the
// plane is still being served.
type lingerWatcher struct {
	mu        sync.Mutex
	buf       bytes.Buffer
	lingering chan struct{}
	once      sync.Once
}

func (w *lingerWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if bytes.Contains(w.buf.Bytes(), []byte("\nlingering ")) {
		w.once.Do(func() { close(w.lingering) })
	}
	return len(p), nil
}

func (w *lingerWatcher) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// serve runs fleetd with the plane on an ephemeral port and -linger,
// waits for the plan to end, hands the base URL to scrape, then ends
// the linger and returns run's error.
func serve(t *testing.T, scrape func(base string), args ...string) error {
	t.Helper()
	out := &lingerWatcher{lingering: make(chan struct{})}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run(append(args, "-metrics-addr", "127.0.0.1:0", "-linger", "10m"), out, stop)
	}()
	select {
	case <-out.lingering:
	case err := <-done:
		t.Fatalf("fleetd returned before lingering: %v\n%s", err, out)
	}
	m := regexp.MustCompile(`serving observability plane at (http://[^/]+)/metrics`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no listen address in the output:\n%s", out)
	}
	scrape(m[1])
	close(stop)
	return <-done
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// checkExposition re-parses an OpenMetrics scrape line by line and
// checks every family and every sample against the catalogue: declared
// name, declared kind, exactly the declared label keys.
func checkExposition(t *testing.T, text string) {
	t.Helper()
	sanitize := strings.NewReplacer(".", "_", "-", "_")
	bySanitized := map[string]*obs.Desc{}
	for _, d := range obs.Catalogue() {
		bySanitized[sanitize.Replace(d.Name)] = d
	}
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	if lines[len(lines)-1] != "# EOF" {
		t.Fatalf("exposition ends with %q, want # EOF", lines[len(lines)-1])
	}
	sample := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
	label := regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="`)
	typed := map[string]bool{}
	var current *obs.Desc
	for _, line := range lines[:len(lines)-1] {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			d := bySanitized[f[2]]
			want := map[obs.Kind]string{obs.KindCounter: "counter", obs.KindGauge: "gauge", obs.KindHistogram: "summary"}
			switch {
			case d == nil:
				t.Errorf("family %s is not in the catalogue", f[2])
			case f[3] != want[d.Kind]:
				t.Errorf("family %s typed %s, catalogue says %s", f[2], f[3], d.Kind)
			case typed[f[2]]:
				t.Errorf("family %s has two # TYPE lines", f[2])
			}
			typed[f[2]], current = true, d
			continue
		}
		m := sample.FindStringSubmatch(line)
		if m == nil || current == nil {
			t.Errorf("unparseable sample line %q", line)
			continue
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(m[1], "_total"), "_sum"), "_count")
		if bySanitized[base] != current {
			t.Errorf("sample %q sits under family %s", line, current.Name)
		}
		var keys []string
		for _, k := range label.FindAllStringSubmatch(m[2], -1) {
			if k[1] != "quantile" {
				keys = append(keys, k[1])
			}
		}
		if strings.Join(keys, ",") != strings.Join(current.Labels, ",") {
			t.Errorf("sample %q carries labels %v, catalogue says %v", line, keys, current.Labels)
		}
	}
	if !typed["fleet_migration_latency"] || !typed["wire_bytes_kind"] {
		t.Errorf("a drain must expose fleet_migration_latency and wire_bytes_kind; got %v", typed)
	}
}

// TestSmoke drives the binary's whole flow in-process: a small drain
// with the observability plane on an ephemeral port, every endpoint
// scraped while it lingers, the exposition checked against the
// catalogue; then a plan that cannot be compiled, whose black box must
// be served at /flight.
func TestSmoke(t *testing.T) {
	err := serve(t, func(base string) {
		status, body := get(t, base+"/metrics")
		if status != 200 {
			t.Fatalf("/metrics status %d", status)
		}
		checkExposition(t, string(body))

		var rep analyze.HealthReport
		if status, body = get(t, base+"/health"); status != 200 || json.Unmarshal(body, &rep) != nil {
			t.Fatalf("/health: status %d body %s", status, body)
		}
		// A clean local drain must leave the fleet all-healthy: the
		// watchdogs finding anything degraded here is itself a bug.
		if rep.Overall != health.Healthy {
			t.Errorf("/health after a clean drain: %+v", rep)
		}

		var slo []health.Result
		if status, body = get(t, base+"/slo"); status != 200 || json.Unmarshal(body, &slo) != nil {
			t.Fatalf("/slo: status %d body %s", status, body)
		}
		if len(slo) != 4 {
			t.Errorf("/slo lists %d objectives, want 4: %+v", len(slo), slo)
		}
		for _, r := range slo {
			if r.Violated() {
				t.Errorf("objective %s violated by a clean drain: %+v", r.Rule, r)
			}
		}

		var events []obs.AuditEvent
		if status, body = get(t, base+"/events"); status != 200 || json.Unmarshal(body, &events) != nil || len(events) == 0 {
			t.Errorf("/events: status %d, %d events", status, len(events))
		}
		if status, _ = get(t, base+"/flight"); status != 404 {
			t.Errorf("/flight before any trip: status %d, want 404", status)
		}
	}, "-apps", "12")
	if err != nil {
		t.Fatalf("clean drain: %v", err)
	}

	err = serve(t, func(base string) {
		status, body := get(t, base+"/flight")
		if status != 200 {
			t.Fatalf("/flight after a failed plan: status %d", status)
		}
		b, err := flight.DecodeBundle(body)
		if err != nil || b.Trigger.Kind != flight.TriggerPlanFailure {
			t.Fatalf("served bundle: %v, trigger %+v", err, b)
		}
	}, "-apps", "2", "-machines", "2", "-source", "machine-0,machine-1")
	if err == nil {
		t.Fatal("a drain with no destination left must fail")
	}
}
