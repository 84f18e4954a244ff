package analyze

import (
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Window is one derived per-enclave downtime interval.
type Window struct {
	// Enclave is the lib span's Site label ("lib:<MREnclave>").
	Enclave string `json:"enclave"`
	TraceID uint64 `json:"trace_id"`
	// Kind is "freeze" (planned: freeze→resume during migration) or
	// "recovery" (unplanned: detection→resurrection after a kill).
	Kind  string        `json:"kind"`
	Start time.Time     `json:"start"`
	End   time.Time     `json:"end"`
	Dur   time.Duration `json:"dur_ns"`
}

const (
	// WindowFreeze: the enclave was frozen by a migration — from the
	// source's lib.freeze start to the destination's lib.resume end.
	WindowFreeze = "freeze"
	// WindowRecovery: the enclave was down after a failure — from the
	// recovery trace's root start to the lib.recover end, corroborated
	// by a resurrection audit event on the same trace.
	WindowRecovery = "recovery"
)

// UnavailabilityWindows derives downtime windows by pairing lib.* spans
// within each trace, using the audit stream to keep only recoveries that
// actually resurrected (zombie-refused attempts are not downtime ends).
func UnavailabilityWindows(spans []obs.Span, events []obs.AuditEvent) []Window {
	resurrected := map[uint64]bool{}
	for _, e := range events {
		if e.Type == obs.EventResurrection {
			resurrected[e.Trace.TraceID] = true
		}
	}
	var out []Window
	for traceID, trees := range BuildTraces(spans) {
		libs := map[string][]obs.Span{} // name -> spans in this trace
		var roots []obs.Span
		for _, t := range trees {
			collect(t, t.Root, libs)
			if !t.Orphan {
				roots = append(roots, t.Root)
			}
		}
		// Planned freeze windows: pair each lib.freeze with the first
		// lib.resume on the same enclave that ends after it.
		for _, fr := range libs[obs.SpanLibFreeze.Name] {
			for _, re := range libs[obs.SpanLibResume.Name] {
				if re.Site != fr.Site || re.EndTime().Before(fr.Start) {
					continue
				}
				out = append(out, Window{
					Enclave: fr.Site,
					TraceID: traceID,
					Kind:    WindowFreeze,
					Start:   fr.Start,
					End:     re.EndTime(),
					Dur:     re.EndTime().Sub(fr.Start),
				})
				break
			}
		}
		// Recovery windows: detection (root start) to lib.recover end,
		// only when the trace carries a resurrection event.
		if !resurrected[traceID] {
			continue
		}
		for _, rc := range libs[obs.SpanLibRecover.Name] {
			start := rc.Start
			for _, root := range roots {
				if root.Start.Before(start) && !rc.EndTime().Before(root.Start) {
					start = root.Start
				}
			}
			out = append(out, Window{
				Enclave: rc.Site,
				TraceID: traceID,
				Kind:    WindowRecovery,
				Start:   start,
				End:     rc.EndTime(),
				Dur:     rc.EndTime().Sub(start),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].Enclave < out[j].Enclave
	})
	return out
}

func collect(t *Tree, s obs.Span, libs map[string][]obs.Span) {
	switch s.Name {
	case obs.SpanLibFreeze.Name, obs.SpanLibResume.Name, obs.SpanLibRecover.Name:
		libs[s.Name] = append(libs[s.Name], s)
	}
	for _, kid := range t.Children(s.SpanID) {
		collect(t, kid, libs)
	}
}

// windowMetrics names, per window kind, the histogram every window is
// observed into and the gauge holding the longest one seen.
var windowMetrics = map[string]struct {
	window *obs.HistogramDesc
	max    *obs.GaugeDesc
}{
	WindowFreeze:   {obs.UnavailFreezeWindow, obs.UnavailFreezeMax},
	WindowRecovery: {obs.UnavailRecoveryWindow, obs.UnavailRecoveryMax},
}

// Ledger turns derived windows into first-class metrics exactly once
// each: scrapes and plan summaries can call Update repeatedly without
// double-observing the unavail.* histograms.
type Ledger struct {
	mu   sync.Mutex
	seen map[ledgerKey]bool
}

type ledgerKey struct {
	trace   uint64
	enclave string
	kind    string
	start   int64
}

// NewLedger creates an empty unavailability ledger.
func NewLedger() *Ledger {
	return &Ledger{seen: map[ledgerKey]bool{}}
}

// Update derives the current window set from the observer's telemetry
// and publishes metrics for windows not yet accounted:
//
//	unavail.freeze.window    histogram of planned freeze windows
//	unavail.recovery.window  histogram of kill→recovered windows
//	unavail.freeze.max_ns    gauge, lifetime max freeze window
//	unavail.recovery.max_ns  gauge, lifetime max recovery window
//
// It returns every currently derivable window (old and new alike).
func (ld *Ledger) Update(o *obs.Observer) []Window {
	if ld == nil || o == nil {
		return nil
	}
	windows := UnavailabilityWindows(o.Tracer.Spans(), o.Events.Events())
	m := o.M()
	ld.mu.Lock()
	defer ld.mu.Unlock()
	for _, w := range windows {
		k := ledgerKey{trace: w.TraceID, enclave: w.Enclave, kind: w.Kind, start: w.Start.UnixNano()}
		if ld.seen[k] {
			continue
		}
		ld.seen[k] = true
		m.Histogram(windowMetrics[w.Kind].window).Observe(w.Dur)
		if max := m.Gauge(windowMetrics[w.Kind].max); int64(w.Dur) > max.Value() {
			max.Set(int64(w.Dur))
		}
	}
	return windows
}
