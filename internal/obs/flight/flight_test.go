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
	root, tc := o.StartSpan(obs.SpanFleetMigrate, obs.TraceContext{})
	root.Site = "dc-a"
	child, _ := o.StartSpan(obs.SpanMEOffer, tc)
	child.End()
	root.End()
	o.StartSpan(obs.SpanMETransfer, obs.TraceContext{}) // stays open
	o.Event(obs.EventZombieRefused, "lib:abc", "probe refused", tc)
	o.Event(obs.EventSLOViolation, "slo:mirror-rpo-age", "age 6m > 5m", obs.TraceContext{})
	o.M().Counter(obs.WireMsgs).Add(42)
	o.M().Counter(obs.QuorumVoteErrors, "rack-a", "10.0.0.7:7000").Add(2)
	o.M().Gauge(obs.MirrorDirty).Set(3)
	o.M().Histogram(obs.FleetMigrationLatency).Observe(15 * time.Millisecond)
	return o
}

func testBundle() *Bundle {
	o := populatedObserver()
	return Capture(o, Trigger{Kind: TriggerManual, Actor: "test", Detail: "fixture"},
		time.Unix(5000, 123), CaptureOpts{
			Health: []health.EntityHealth{
				{Kind: "mirror", Name: "escrow", State: health.Degraded, Reason: "rpo", Since: time.Unix(4000, 0)},
			},
			SLO: []health.Result{
				{Rule: "mirror-rpo-age", Entity: health.Entity{Kind: "slo", Name: "mirror-rpo-age"}, Level: health.Degraded,
					Reason: "mirror.flush.last_unix_ns", Actual: 360 * time.Second, Bound: 300 * time.Second},
				{Rule: "migration-p99", Entity: health.Entity{Kind: "slo", Name: "migration-p99"},
					Reason: "fleet.migration.latency", Bound: 250 * time.Millisecond, Missing: true},
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
	if !reflect.DeepEqual(got.Metrics, b.Metrics) {
		t.Errorf("metric series (labels included) did not round-trip: %+v vs %+v", got.Metrics, b.Metrics)
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
		sp, tc := o.StartSpan(obs.SpanWANHop, obs.TraceContext{})
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
	files, err := filepath.Glob(filepath.Join(dir, "flight-*.json"))
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
	if n, _ := snap.Counter(obs.FlightBundles); n != 4 {
		t.Errorf("flight.bundles = %d, want 4", n)
	}
	if stamp, _ := snap.Gauge(obs.FlightLast); stamp == 0 {
		t.Error("flight.last_unix_ns gauge not stamped")
	}
}

// violated is one violated objective result, as a rule pass yields it.
func violated(name string) health.Result {
	return health.Result{Rule: name, Entity: health.Entity{Kind: "slo", Name: name}, Level: health.Degraded, Reason: "metric"}
}

// TestRecorderScanTriggers drives the pass-subscription path: a violated
// objective trips a capture, a pass without findings does not, a
// transition to critical trips whatever its reason text says (the
// recorder reads the typed Change, never the audit Detail), a merely
// degraded transition does not, and a security event trips.
func TestRecorderScanTriggers(t *testing.T) {
	o := obs.NewObserver()
	r := NewRecorder(o)
	r.minInterval = 0 // no throttle: trip on every pass
	if b := r.Observe(&health.Pass{}); b != nil {
		t.Fatal("pass with no findings captured a bundle")
	}
	b := r.Observe(&health.Pass{Objectives: []health.Result{{Rule: "ok"}, violated("p99")}})
	if b == nil {
		t.Fatal("observe missed the SLO violation")
	}
	if b.Trigger.Kind != TriggerSLOViolation || b.Trigger.Actor != "slo:p99" {
		t.Errorf("trigger = %+v, want %q by slo:p99", b.Trigger, TriggerSLOViolation)
	}
	if len(b.SLO) != 2 {
		t.Errorf("bundle embeds %d objective results, want the pass's 2", len(b.SLO))
	}
	// The recorder's own flight-recorded event is on the audit stream
	// now; a following quiet pass must not trip on it.
	if again := r.Observe(&health.Pass{}); again != nil {
		t.Errorf("quiet pass tripped: %+v", again.Trigger)
	}

	link := health.Entity{Kind: "link", Name: "wan-1"}
	b = r.Observe(&health.Pass{Changes: []health.Change{
		{Entity: link, From: health.Degraded, To: health.Critical, Reason: "worded any way at all"}}})
	if b == nil || b.Trigger.Kind != TriggerHealthCritical || b.Trigger.Actor != "health:link/wan-1" {
		t.Fatalf("health-critical transition not captured: %+v", b)
	}
	// A degraded (non-critical) transition is not a trigger.
	b = r.Observe(&health.Pass{Changes: []health.Change{{Entity: link, From: health.Healthy, To: health.Degraded, Reason: "loss"}}})
	if b != nil {
		t.Errorf("non-critical health change tripped the recorder: %+v", b.Trigger)
	}

	b = r.Observe(&health.Pass{Security: []health.Result{
		{Entity: health.Entity{Kind: "audit", Name: "lib:abc"}, Level: health.Critical, Reason: "zombie-refused: refused"}}})
	if b == nil || b.Trigger.Kind != TriggerSecurityEvent || b.Trigger.Actor != "lib:abc" {
		t.Fatalf("security event not captured: %+v", b)
	}
}

func TestRecorderScanThrottle(t *testing.T) {
	o := obs.NewObserver()
	r := NewRecorder(o)
	r.minInterval = time.Hour
	if b := r.Observe(&health.Pass{Objectives: []health.Result{violated("a")}}); b == nil {
		t.Fatal("first violating pass should capture")
	}
	if b := r.Observe(&health.Pass{Objectives: []health.Result{violated("b")}}); b != nil {
		t.Error("second capture inside min-interval should be throttled")
	}
}

func FuzzDecodeBundle(f *testing.F) {
	raw := testBundle().Encode()
	f.Add([]byte{})
	f.Add([]byte("{}"))
	f.Add(raw)
	f.Add(Capture(nil, Trigger{Kind: TriggerManual}, time.Unix(1, 0), CaptureOpts{}).Encode())
	for _, n := range []int{1, len(raw) / 3, len(raw) / 2, len(raw) - 1} {
		f.Add(raw[:n])
	}
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
