package analyze

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/health"
)

// metricName sanitizes a dotted internal metric name into the
// [a-zA-Z_:][a-zA-Z0-9_:]* charset Prometheus requires.
func metricName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// seconds renders a nanosecond duration as the float seconds
// OpenMetrics expects.
func seconds(d time.Duration) string {
	return fmt.Sprintf("%g", float64(d)/float64(time.Second))
}

// labelEscaper escapes a label value per OpenMetrics.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// labelSet renders a series' labels (plus an optional trailing
// quantile label) as {k="v",...}, keys sorted; "" when there are none.
func labelSet(labels map[string]string, quantile string) string {
	var parts []string
	for _, k := range slices.Sorted(maps.Keys(labels)) {
		parts = append(parts, metricName(k)+`="`+labelEscaper.Replace(labels[k])+`"`)
	}
	if quantile != "" {
		parts = append(parts, `quantile="`+quantile+`"`)
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WriteOpenMetrics renders the snapshot as OpenMetrics text exposition:
// counters as <name>_total, gauges verbatim, histograms as summaries
// (quantile series in seconds plus _sum/_count), label values as
// labels, terminated by # EOF. Output is deterministic — the snapshot is
// sorted by family, and each family gets exactly one # TYPE line.
func WriteOpenMetrics(w io.Writer, snap obs.Snapshot) error {
	var b strings.Builder
	prev := ""
	for _, sr := range snap.Series {
		mn, ls := metricName(sr.Name), labelSet(sr.Labels, "")
		if sr.Name != prev {
			typ := string(sr.Kind)
			if sr.Kind == obs.KindHistogram {
				typ = "summary"
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", mn, typ)
			prev = sr.Name
		}
		switch {
		case sr.Kind == obs.KindCounter:
			fmt.Fprintf(&b, "%s_total%s %d\n", mn, ls, sr.Value)
		case sr.Kind == obs.KindHistogram && sr.Hist != nil:
			h := sr.Hist
			for _, q := range []struct {
				q string
				v time.Duration
			}{{"0.5", h.P50}, {"0.99", h.P99}, {"0.999", h.P999}} {
				fmt.Fprintf(&b, "%s%s %s\n", mn, labelSet(sr.Labels, q.q), seconds(q.v))
			}
			fmt.Fprintf(&b, "%s_sum%s %s\n%s_count%s %d\n", mn, ls, seconds(h.Sum), mn, ls, h.Count)
		default:
			fmt.Fprintf(&b, "%s%s %d\n", mn, ls, sr.Value)
		}
	}
	b.WriteString("# EOF\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// Plane is the live export surface served from -metrics-addr. Every
// scrape refreshes the derived metrics (unavailability ledger, dropped
// counters) and runs one rule pass before rendering, so the exposition
// is always current without a background refresher goroutine.
type Plane struct {
	Obs    *obs.Observer
	Ledger *Ledger
	// Health owns the rule table — health watchdogs, objectives and the
	// security trigger — and is evaluated once per Refresh; its states
	// are served as JSON at /health, its objective results at /slo.
	Health *health.Monitor
	// Flight, when attached, is handed every pass and captures a bundle
	// when the pass carries a trigger; the latest bundle is served at
	// /flight.
	Flight *flight.Recorder
}

// NewPlane wires a plane over the observer with the default rule table
// and an in-memory flight recorder.
func NewPlane(o *obs.Observer) *Plane {
	return &Plane{
		Obs:    o,
		Ledger: NewLedger(),
		Health: health.New(o, health.Config{}, health.DefaultRules()...),
		Flight: flight.NewRecorder(o),
	}
}

// Refresh re-derives everything the plane exports: updates the
// unavailability ledger, publishes ring-drop gauges, then runs the one
// rule pass (one registry snapshot) and hands it to the flight
// recorder. It returns the pass for callers that print it.
func (p *Plane) Refresh() *health.Pass {
	if p == nil || p.Obs == nil {
		return &health.Pass{}
	}
	p.Ledger.Update(p.Obs)
	p.Obs.PublishDropped()
	pass := p.Health.Evaluate(time.Now())
	p.Flight.Observe(pass)
	return pass
}

// HealthReport is the /health JSON document.
type HealthReport struct {
	Overall  health.State          `json:"overall"`
	Entities []health.EntityHealth `json:"entities"`
}

// Handler serves the export plane:
//
//	/metrics       OpenMetrics text exposition
//	/metrics.json  JSON metrics snapshot
//	/traces        JSON span dump grouped by trace ID
//	/events        JSON audit event stream
//	/slo           JSON objective results of the rule pass
//	/health        JSON health states (overall + per entity)
//	/flight        JSON latest flight bundle (404 before first trip)
func (p *Plane) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		p.Refresh()
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		_ = WriteOpenMetrics(w, p.Obs.M().Snapshot())
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		p.Refresh()
		writeJSON(w, p.Obs.M().Snapshot())
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, p.Obs.Tracer.ByTrace())
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, p.Obs.Events.Events())
	})
	mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, p.Refresh().Objectives)
	})
	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		pass := p.Refresh()
		writeJSON(w, HealthReport{Overall: p.Health.Overall(), Entities: pass.States})
	})
	mux.HandleFunc("/flight", func(w http.ResponseWriter, r *http.Request) {
		p.Refresh()
		_, raw := p.Flight.Latest()
		if len(raw) == 0 {
			http.Error(w, "no flight bundle captured", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(raw)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
