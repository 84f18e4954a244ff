package flight

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/health"
)

// populatedObserver builds an observer with finished spans, an open
// span, audit events, and every metric family — the capture fixture.
func populatedObserver() *obs.Observer {
	o := obs.NewObserver()
	root, tc := o.StartSpan("fleet.migrate", obs.TraceContext{})
	root.Site = "dc-a"
	child, _ := o.StartSpan("me.offer", tc)
	child.End()
	root.End()
	o.StartSpan("me.transfer", obs.TraceContext{}) // stays open
	o.Event(obs.EventZombieRefused, "lib:abc", "probe refused", tc)
	o.Event(obs.EventSLOViolation, "slo:mirror-rpo-age", "age 6m > 5m", obs.TraceContext{})
	o.M().Add("wire.msgs", 42)
	o.M().SetGauge("mirror.dirty", 3)
	o.M().Histogram("fleet.migration.latency").Observe(15 * time.Millisecond)
	return o
}

func testBundle() *Bundle {
	o := populatedObserver()
	return Capture(o, Trigger{Kind: TriggerManual, Actor: "test", Detail: "fixture"},
		time.Unix(5000, 123), CaptureOpts{
			Health: []health.EntityHealth{
				{Kind: "mirror", Name: "escrow", State: health.Degraded, Reason: "rpo", Since: time.Unix(4000, 0)},
			},
			SLO: []SLOVerdict{
				{Name: "mirror-rpo-age", Metric: "mirror.flush.last_unix_ns", ActualNs: 360e9, MaxNs: 300e9, Violated: true},
				{Name: "p99-migration", Metric: "fleet.migration.latency", Missing: true},
			},
			Journal: []byte("journal-bytes"),
			Note:    "unit fixture",
		})
}

func TestBundleRoundTrip(t *testing.T) {
	b := testBundle()
	if len(b.Spans) == 0 || len(b.Open) == 0 || len(b.Events) == 0 {
		t.Fatalf("fixture capture incomplete: %d spans %d open %d events", len(b.Spans), len(b.Open), len(b.Events))
	}
	raw := b.Encode()
	got, err := DecodeBundle(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}

	if got.CreatedUnixNs != b.CreatedUnixNs || got.Trigger != b.Trigger || got.Note != b.Note {
		t.Errorf("header mismatch: %+v vs %+v", got.Trigger, b.Trigger)
	}
	if len(got.Health) != 1 || got.Health[0].State != health.Degraded ||
		got.Health[0].Reason != "rpo" || !got.Health[0].Since.Equal(b.Health[0].Since) {
		t.Errorf("health mismatch: %+v", got.Health)
	}
	if len(got.Spans) != len(b.Spans) {
		t.Fatalf("span count %d, want %d", len(got.Spans), len(b.Spans))
	}
	for i := range b.Spans {
		w, g := b.Spans[i], got.Spans[i]
		if g.Name != w.Name || g.Site != w.Site || g.TraceID != w.TraceID ||
			g.SpanID != w.SpanID || g.ParentID != w.ParentID ||
			!g.Start.Equal(w.Start) || g.Dur != w.Dur {
			t.Errorf("span %d mismatch: %+v vs %+v", i, g, w)
		}
	}
	if len(got.Open) != 1 || got.Open[0].Name != "me.transfer" {
		t.Errorf("open spans mismatch: %+v", got.Open)
	}
	if len(got.Events) != len(b.Events) {
		t.Fatalf("event count %d, want %d", len(got.Events), len(b.Events))
	}
	for i := range b.Events {
		if got.Events[i].Type != b.Events[i].Type || got.Events[i].Actor != b.Events[i].Actor ||
			got.Events[i].Detail != b.Events[i].Detail {
			t.Errorf("event %d mismatch: %+v vs %+v", i, got.Events[i], b.Events[i])
		}
	}
	if !reflect.DeepEqual(got.Metrics.Counters, b.Metrics.Counters) ||
		!reflect.DeepEqual(got.Metrics.Gauges, b.Metrics.Gauges) {
		t.Error("metric registries did not round-trip")
	}
	if !reflect.DeepEqual(got.Metrics.Histograms, b.Metrics.Histograms) {
		t.Errorf("histogram snapshots mismatch: %+v vs %+v", got.Metrics.Histograms, b.Metrics.Histograms)
	}
	if !reflect.DeepEqual(got.SLO, b.SLO) {
		t.Errorf("slo mismatch: %+v vs %+v", got.SLO, b.SLO)
	}
	if !bytes.Equal(got.Journal, b.Journal) {
		t.Errorf("journal mismatch: %q", got.Journal)
	}
}

func TestBundleEncodeDeterministic(t *testing.T) {
	b := testBundle()
	if !bytes.Equal(b.Encode(), b.Encode()) {
		t.Error("two encodings of the same bundle differ (map iteration leaked in)")
	}
}

func TestDecodeBundleCorruption(t *testing.T) {
	raw := testBundle().Encode()
	cases := map[string][]byte{
		"empty":     {},
		"bad tag":   append([]byte{0x00}, raw[1:]...),
		"truncated": raw[:len(raw)/2],
		"one byte":  raw[:1],
	}
	// Hostile counts: splice a huge health count right after the header
	// fields; the decoder must refuse rather than allocate.
	for name, c := range cases {
		if _, err := DecodeBundle(c); err == nil {
			t.Errorf("%s: decode accepted corrupt input", name)
		}
	}
	// Every truncation point must error or parse — never panic.
	for i := 0; i < len(raw); i += 7 {
		_, _ = DecodeBundle(raw[:i])
	}
	// Single-byte flips must never panic (errors are fine; a flip inside
	// a string payload may legitimately still parse).
	for i := 0; i < len(raw); i += 11 {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0xFF
		_, _ = DecodeBundle(mut)
	}
}

func TestCaptureBounds(t *testing.T) {
	o := obs.NewObserver()
	for i := 0; i < 20; i++ {
		sp, tc := o.StartSpan("op", obs.TraceContext{})
		sp.End()
		o.Event("audit-test", "actor", "d", tc)
	}
	b := Capture(o, Trigger{Kind: TriggerManual}, time.Unix(1, 0), CaptureOpts{MaxSpans: 5, MaxEvents: 3})
	if len(b.Spans) != 5 {
		t.Errorf("MaxSpans=5 kept %d spans", len(b.Spans))
	}
	if len(b.Events) != 3 {
		t.Errorf("MaxEvents=3 kept %d events", len(b.Events))
	}
	none := Capture(o, Trigger{Kind: TriggerManual}, time.Unix(1, 0), CaptureOpts{MaxSpans: -1, MaxEvents: -1})
	if len(none.Spans) != 0 || len(none.Events) != 0 {
		t.Errorf("negative bounds kept %d spans %d events", len(none.Spans), len(none.Events))
	}
}

func TestRecorderTripPersistsAndServesLatest(t *testing.T) {
	o := populatedObserver()
	dir := t.TempDir()
	r := NewRecorder(o)
	r.SetDir(dir, 2)
	for i := 0; i < 4; i++ {
		if _, err := r.Trip(Trigger{Kind: TriggerManual, Detail: "t"}); err != nil {
			t.Fatalf("trip %d: %v", i, err)
		}
	}
	if got := r.Trips(); got != 4 {
		t.Errorf("Trips = %d, want 4", got)
	}
	files, err := filepath.Glob(filepath.Join(dir, "flight-*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Errorf("keep=2 left %d bundle files: %v", len(files), files)
	}
	b, raw := r.Latest()
	if b == nil || len(raw) == 0 {
		t.Fatal("Latest returned nothing after trips")
	}
	back, err := DecodeBundle(raw)
	if err != nil {
		t.Fatalf("latest bundle does not decode: %v", err)
	}
	if back.Trigger.Kind != TriggerManual {
		t.Errorf("latest trigger = %q", back.Trigger.Kind)
	}
	snap := o.M().Snapshot()
	if snap.Counters["flight.bundles"] != 4 {
		t.Errorf("flight.bundles = %d, want 4", snap.Counters["flight.bundles"])
	}
	if snap.Gauges["flight.last_unix_ns"] == 0 {
		t.Error("flight.last_unix_ns gauge not stamped")
	}
}

// TestRecorderScanTriggers drives the audit-scan path: an SLO violation
// event trips a capture, the cursor advances (no double-trip on the same
// event), and the recorder's own flight-recorded event never retriggers.
func TestRecorderScanTriggers(t *testing.T) {
	o := obs.NewObserver()
	r := NewRecorder(o)
	r.SetMinInterval(0)
	if b := r.Scan(); b != nil {
		t.Fatal("scan with no events captured a bundle")
	}
	o.Event(obs.EventSLOViolation, "slo:p99", "exceeded", obs.TraceContext{})
	b := r.Scan()
	if b == nil {
		t.Fatal("scan missed the SLO violation")
	}
	if b.Trigger.Kind != TriggerSLOViolation {
		t.Errorf("trigger = %q, want %q", b.Trigger.Kind, TriggerSLOViolation)
	}
	if again := r.Scan(); again != nil {
		t.Errorf("same event tripped twice: %+v", again.Trigger)
	}

	o.Event(obs.EventHealthChanged, "health:link/wan-1", "degraded->critical: link down", obs.TraceContext{})
	b = r.Scan()
	if b == nil || b.Trigger.Kind != TriggerHealthCritical {
		t.Fatalf("health-critical transition not captured: %+v", b)
	}
	// A degraded (non-critical) transition is not a trigger.
	o.Event(obs.EventHealthChanged, "health:link/wan-1", "healthy->degraded: loss", obs.TraceContext{})
	if b := r.Scan(); b != nil {
		t.Errorf("non-critical health change tripped the recorder: %+v", b.Trigger)
	}

	o.Event(obs.EventZombieRefused, "lib:abc", "refused", obs.TraceContext{})
	b = r.Scan()
	if b == nil || b.Trigger.Kind != TriggerSecurityEvent {
		t.Fatalf("security event not captured: %+v", b)
	}
}

func TestRecorderScanThrottle(t *testing.T) {
	o := obs.NewObserver()
	r := NewRecorder(o)
	r.SetMinInterval(time.Hour)
	o.Event(obs.EventSLOViolation, "slo:a", "x", obs.TraceContext{})
	if b := r.Scan(); b == nil {
		t.Fatal("first scan should capture")
	}
	o.Event(obs.EventSLOViolation, "slo:b", "y", obs.TraceContext{})
	if b := r.Scan(); b != nil {
		t.Error("second capture inside min-interval should be throttled")
	}
}

func FuzzDecodeBundle(f *testing.F) {
	f.Add([]byte{})
	f.Add(testBundle().Encode())
	f.Add(Capture(nil, Trigger{Kind: TriggerManual}, time.Unix(1, 0), CaptureOpts{}).Encode())
	f.Fuzz(func(t *testing.T, raw []byte) {
		b, err := DecodeBundle(raw)
		if err != nil {
			return
		}
		// Anything that decodes must re-encode and decode again cleanly.
		if _, err := DecodeBundle(b.Encode()); err != nil {
			t.Fatalf("re-decode of re-encoded bundle failed: %v", err)
		}
	})
}
