package health

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func findEntity(fs []Finding, kind, name string) (Finding, bool) {
	for _, f := range fs {
		if f.Entity.Kind == kind && f.Entity.Name == name {
			return f, true
		}
	}
	return Finding{}, false
}

func TestQuorumDetectorSkew(t *testing.T) {
	d := NewQuorumDetector()
	s := &Sample{Snap: obs.Snapshot{
		Histograms: map[string]obs.HistogramSnapshot{
			"quorum.vote.latency.rack-a.a1": {Count: 10, P99: 1 * time.Millisecond},
			"quorum.vote.latency.rack-a.a2": {Count: 10, P99: 1 * time.Millisecond},
			"quorum.vote.latency.rack-a.a3": {Count: 10, P99: 20 * time.Millisecond},
		},
	}}
	f, ok := findEntity(d.Detect(s), "group", "rack-a")
	if !ok || f.Level != Degraded {
		t.Fatalf("20ms-vs-1ms skew not degraded: %+v", f)
	}
	if !strings.Contains(f.Reason, "skew") {
		t.Errorf("reason %q does not name the skew", f.Reason)
	}

	// Under the noise floor the same 20x ratio is ignored.
	d2 := NewQuorumDetector()
	s2 := &Sample{Snap: obs.Snapshot{
		Histograms: map[string]obs.HistogramSnapshot{
			"quorum.vote.latency.rack-a.a1": {Count: 10, P99: 50 * time.Microsecond},
			"quorum.vote.latency.rack-a.a2": {Count: 10, P99: 1 * time.Millisecond},
		},
	}}
	f2, ok := findEntity(d2.Detect(s2), "group", "rack-a")
	if !ok || f2.Level != Healthy {
		t.Errorf("sub-floor skew should be healthy: %+v", f2)
	}
}

func TestQuorumDetectorErrorsMajorityCritical(t *testing.T) {
	d := NewQuorumDetector()
	base := obs.Snapshot{
		Histograms: map[string]obs.HistogramSnapshot{
			"quorum.vote.latency.rack-a.a1": {Count: 10, P99: time.Millisecond},
			"quorum.vote.latency.rack-a.a2": {Count: 10, P99: time.Millisecond},
			"quorum.vote.latency.rack-a.a3": {Count: 10, P99: time.Millisecond},
		},
		Counters: map[string]int64{},
	}
	d.Detect(&Sample{Snap: base}) // prime the deltas

	// One replica erroring: degraded.
	one := base
	one.Counters = map[string]int64{"quorum.vote.errors.rack-a.a3": 2}
	f, ok := findEntity(d.Detect(&Sample{Snap: one}), "group", "rack-a")
	if !ok || f.Level != Degraded {
		t.Fatalf("single erroring replica not degraded: %+v", f)
	}

	// Two of three replicas erroring: one fault from quorum loss.
	two := base
	two.Counters = map[string]int64{
		"quorum.vote.errors.rack-a.a2": 3,
		"quorum.vote.errors.rack-a.a3": 5,
	}
	f, ok = findEntity(d.Detect(&Sample{Snap: two}), "group", "rack-a")
	if !ok || f.Level != Critical {
		t.Fatalf("majority erroring not critical: %+v", f)
	}
}

func TestMirrorDetectorRPOAge(t *testing.T) {
	d := NewMirrorDetector()
	now := time.Unix(100000, 0)
	s := &Sample{Now: now, Snap: obs.Snapshot{
		Counters: map[string]int64{"mirror.flush.total": 3, "mirror.push.total": 3, "mirror.enqueue.total": 5},
		Gauges: map[string]int64{
			"mirror.dirty":              2,
			"mirror.known":              2,
			"mirror.flush.last_unix_ns": now.Add(-10 * time.Minute).UnixNano(),
		},
	}}
	f, ok := findEntity(d.Detect(s), "mirror", "escrow")
	if !ok || f.Level != Degraded {
		t.Fatalf("10m RPO age with dirty backlog not degraded: %+v", f)
	}
	if !strings.Contains(f.Reason, "RPO age") {
		t.Errorf("reason %q does not name RPO age", f.Reason)
	}

	// Same age with nothing dirty: there is no unprotected data, healthy.
	s.Snap.Gauges["mirror.dirty"] = 0
	f, _ = findEntity(NewMirrorDetector().Detect(s), "mirror", "escrow")
	if f.Level != Healthy {
		t.Errorf("old flush with zero dirty should be healthy: %+v", f)
	}
}

func TestMirrorDetectorFlushWithoutPush(t *testing.T) {
	d := NewMirrorDetector()
	snap := func(flush, push, known int64) obs.Snapshot {
		return obs.Snapshot{
			Counters: map[string]int64{
				"mirror.flush.total":   flush,
				"mirror.push.total":    push,
				"mirror.enqueue.total": 10,
			},
			Gauges: map[string]int64{"mirror.known": known},
		}
	}
	// First flush pushes: healthy.
	f, _ := findEntity(d.Detect(&Sample{Snap: snap(1, 4, 2)}), "mirror", "escrow")
	if f.Level != Healthy {
		t.Fatalf("pushing flush flagged: %+v", f)
	}
	// Second flush "succeeds" but pushes nothing while instances exist:
	// the chaosmut skip-resync signature. Sticky until a flush pushes.
	f, _ = findEntity(d.Detect(&Sample{Snap: snap(2, 4, 2)}), "mirror", "escrow")
	if f.Level != Degraded || !strings.Contains(f.Reason, "pushed no records") {
		t.Fatalf("flush-without-push not degraded: %+v", f)
	}
	// No new flush this interval: the verdict must not silently clear.
	f, _ = findEntity(d.Detect(&Sample{Snap: snap(2, 4, 2)}), "mirror", "escrow")
	if f.Level != Degraded {
		t.Fatalf("flush-without-push verdict cleared without a pushing flush: %+v", f)
	}
	// A flush that pushes again clears it.
	f, _ = findEntity(d.Detect(&Sample{Snap: snap(3, 6, 2)}), "mirror", "escrow")
	if f.Level != Healthy {
		t.Fatalf("pushing flush did not clear the verdict: %+v", f)
	}
}

func TestMirrorDetectorNeverPushed(t *testing.T) {
	d := NewMirrorDetector()
	s := &Sample{Snap: obs.Snapshot{
		Counters: map[string]int64{
			"mirror.flush.total":   2,
			"mirror.enqueue.total": 6,
		},
	}}
	f, ok := findEntity(d.Detect(s), "mirror", "escrow")
	if !ok || f.Level != Critical {
		t.Fatalf("enqueued-but-never-pushed mirror not critical: %+v", f)
	}
}

func TestLinkDetectorDownAndLoss(t *testing.T) {
	d := NewLinkDetector()
	s := &Sample{Snap: obs.Snapshot{
		Gauges:   map[string]int64{"wan.link.down.wan-1": 1},
		Counters: map[string]int64{"wan.link.msgs.wan-1": 10},
	}}
	f, ok := findEntity(d.Detect(s), "link", "wan-1")
	if !ok || f.Level != Critical {
		t.Fatalf("down link not critical: %+v", f)
	}

	// Back up, but dropping 20% of traffic: degraded.
	s2 := &Sample{Snap: obs.Snapshot{
		Gauges: map[string]int64{"wan.link.down.wan-1": 0},
		Counters: map[string]int64{
			"wan.link.msgs.wan-1": 50,
			"wan.link.lost.wan-1": 10,
		},
	}}
	f, ok = findEntity(d.Detect(s2), "link", "wan-1")
	if !ok || f.Level != Degraded {
		t.Fatalf("20%% loss not degraded: %+v", f)
	}

	// Tiny sample below MinAttempts is not trusted.
	d2 := NewLinkDetector()
	s3 := &Sample{Snap: obs.Snapshot{
		Counters: map[string]int64{
			"wan.link.msgs.wan-1": 3,
			"wan.link.lost.wan-1": 2,
		},
	}}
	f, _ = findEntity(d2.Detect(s3), "link", "wan-1")
	if f.Level != Healthy {
		t.Errorf("sub-minimum sample flagged: %+v", f)
	}
}

func TestStuckSpanDetector(t *testing.T) {
	d := NewStuckSpanDetector()
	now := time.Unix(100000, 0)
	s := &Sample{Now: now, Open: []obs.OpenSpan{
		{Name: "fleet.migrate", SpanID: 7, Start: now.Add(-3 * time.Minute)},
		{Name: "me.transfer", SpanID: 9, Start: now.Add(-5 * time.Minute)},
		{Name: "me.offer", SpanID: 11, Start: now.Add(-time.Hour)}, // unwatched
	}}
	fs := d.Detect(s)
	f, ok := findEntity(fs, "fleet", "migrate")
	if !ok || f.Level != Degraded {
		t.Fatalf("3m-old fleet.migrate not degraded: %+v", f)
	}
	f, ok = findEntity(fs, "me", "transfer")
	if !ok || f.Level != Critical {
		t.Fatalf("5m-old me.transfer not critical: %+v", f)
	}
	if _, ok := findEntity(fs, "me", "offer"); ok {
		t.Error("unwatched span produced a finding")
	}

	// Fresh spans: entities surface as healthy (the watched surface).
	s2 := &Sample{Now: now, Open: []obs.OpenSpan{
		{Name: "fleet.migrate", SpanID: 8, Start: now.Add(-time.Second)},
	}}
	f, ok = findEntity(d.Detect(s2), "fleet", "migrate")
	if !ok || f.Level != Healthy {
		t.Errorf("fresh span not healthy: %+v", f)
	}
}

func TestRefusalStormDetector(t *testing.T) {
	d := NewRefusalStormDetector()
	snap := func(n int64) *Sample {
		return &Sample{Snap: obs.Snapshot{Counters: map[string]int64{"me.session.resume.refused": n}}}
	}
	f, ok := findEntity(d.Detect(snap(1)), "me", "sessions")
	if !ok || f.Level != Healthy {
		t.Fatalf("one refusal flagged: %+v", f)
	}
	f, _ = findEntity(d.Detect(snap(5)), "me", "sessions") // delta 4
	if f.Level != Degraded {
		t.Fatalf("4-refusal burst not degraded: %+v", f)
	}
	f, _ = findEntity(d.Detect(snap(15)), "me", "sessions") // delta 10
	if f.Level != Critical {
		t.Fatalf("10-refusal burst not critical: %+v", f)
	}
	if fs := d.Detect(&Sample{Snap: obs.Snapshot{}}); fs != nil {
		t.Errorf("no counter should mean no findings, got %+v", fs)
	}
}

// TestDefaultDetectorsEndToEnd drives the full default stack through a
// Monitor over a real observer: an injected link-down gauge must commit
// the link entity to critical and emit the audit event.
func TestDefaultDetectorsEndToEnd(t *testing.T) {
	o := obs.NewObserver()
	m := New(o, Config{TripAfter: 1, ClearAfter: 2}, DefaultDetectors()...)
	o.M().SetGauge("wan.link.down.wan-ab", 1)
	o.M().Add("wan.link.msgs.wan-ab", 1)

	m.Evaluate(time.Unix(1000, 0))
	if st := m.StateOf("link", "wan-ab"); st != Critical {
		t.Fatalf("down link state = %s, want critical", st)
	}
	var saw bool
	for _, ev := range o.Events.Events() {
		if ev.Type == obs.EventHealthChanged && ev.Actor == "health:link/wan-ab" {
			saw = true
		}
	}
	if !saw {
		t.Error("no health-changed event for the link transition")
	}

	// Link heals: clears after ClearAfter evaluations.
	o.M().SetGauge("wan.link.down.wan-ab", 0)
	m.Evaluate(time.Unix(1001, 0))
	m.Evaluate(time.Unix(1002, 0))
	if st := m.StateOf("link", "wan-ab"); st != Healthy {
		t.Errorf("healed link state = %s, want healthy", st)
	}
}
