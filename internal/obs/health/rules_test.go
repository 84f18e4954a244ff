package health

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func findEntity(fs []Result, kind, name string) (Result, bool) {
	for _, f := range fs {
		if f.Entity.Kind == kind && f.Entity.Name == name {
			return f, true
		}
	}
	return Result{}, false
}

// voteSample builds a sample whose registry holds ten votes of the given
// latency per (group, replica) and the given cumulative vote errors.
func voteSample(group string, latency map[string]time.Duration, errs map[string]int64) *Sample {
	m := obs.NewMetrics()
	for id, d := range latency {
		for i := 0; i < 10; i++ {
			m.Histogram(obs.QuorumVoteLatency, group, id).Observe(d)
		}
	}
	for id, n := range errs {
		m.Counter(obs.QuorumVoteErrors, group, id).Add(n)
	}
	return &Sample{Snap: m.Snapshot()}
}

// mirrorSample builds a sample from the mirror's counters and gauges; a
// negative gauge value leaves that gauge unregistered.
func mirrorSample(now time.Time, flush, push, enqueue, dirty, known int64, lastFlush time.Time) *Sample {
	m := obs.NewMetrics()
	m.Counter(obs.MirrorFlushTotal).Add(flush)
	m.Counter(obs.MirrorPushTotal).Add(push)
	m.Counter(obs.MirrorEnqueueTotal).Add(enqueue)
	if dirty >= 0 {
		m.Gauge(obs.MirrorDirty).Set(dirty)
	}
	if known >= 0 {
		m.Gauge(obs.MirrorKnown).Set(known)
	}
	if !lastFlush.IsZero() {
		m.Gauge(obs.MirrorFlushLast).Set(lastFlush.UnixNano())
	}
	return &Sample{Now: now, Snap: m.Snapshot()}
}

// linkSample builds a sample for one link; down < 0 leaves the gauge
// unregistered.
func linkSample(link string, down, msgs, lost int64) *Sample {
	m := obs.NewMetrics()
	if down >= 0 {
		m.Gauge(obs.WANLinkDown, link).Set(down)
	}
	m.Counter(obs.WANLinkMsgs, link).Add(msgs)
	m.Counter(obs.WANLinkLost, link).Add(lost)
	return &Sample{Snap: m.Snapshot()}
}

func TestQuorumDetectorSkew(t *testing.T) {
	ms := time.Millisecond
	s := voteSample("rack-a", map[string]time.Duration{"a1": ms, "a2": ms, "a3": 20 * ms}, nil)
	f, ok := findEntity(QuorumRule().Eval(s), "group", "rack-a")
	if !ok || f.Level != Degraded {
		t.Fatalf("20ms-vs-1ms skew not degraded: %+v", f)
	}
	if !strings.Contains(f.Reason, "skew") {
		t.Errorf("reason %q does not name the skew", f.Reason)
	}

	// Under the noise floor the same 20x ratio is ignored.
	s2 := voteSample("rack-a", map[string]time.Duration{"a1": 50 * time.Microsecond, "a2": ms}, nil)
	f2, ok := findEntity(QuorumRule().Eval(s2), "group", "rack-a")
	if !ok || f2.Level != Healthy {
		t.Errorf("sub-floor skew should be healthy: %+v", f2)
	}
}

func TestQuorumDetectorErrorsMajorityCritical(t *testing.T) {
	ms := time.Millisecond
	lat := map[string]time.Duration{"a1": ms, "a2": ms, "a3": ms}
	d := QuorumRule()
	d.Eval(voteSample("rack-a", lat, nil)) // prime the deltas

	// One replica erroring: degraded.
	f, ok := findEntity(d.Eval(voteSample("rack-a", lat, map[string]int64{"a3": 2})), "group", "rack-a")
	if !ok || f.Level != Degraded {
		t.Fatalf("single erroring replica not degraded: %+v", f)
	}

	// Two of three replicas erroring: one fault from quorum loss.
	f, ok = findEntity(d.Eval(voteSample("rack-a", lat, map[string]int64{"a2": 3, "a3": 5})), "group", "rack-a")
	if !ok || f.Level != Critical {
		t.Fatalf("majority erroring not critical: %+v", f)
	}
}

// TestQuorumRuleDottedReplicaIDs pins the bug the label-carrying
// snapshot fixes: replica ids are host:port strings, and when they were
// spliced into the metric name ("quorum.vote.latency.rack.10.0.0.7:7000")
// the rule split at the last dot and reported entity "group/rack.10.0.0"
// with replicas "7:7000" and "8:7000".
func TestQuorumRuleDottedReplicaIDs(t *testing.T) {
	ms := time.Millisecond
	s := voteSample("rack", map[string]time.Duration{
		"10.0.0.7:7000": ms, "10.0.0.8:7000": ms, "10.0.0.9:7000": 20 * ms,
	}, map[string]int64{"10.0.0.9:7000": 2})
	fs := QuorumRule().Eval(s)
	if len(fs) != 1 {
		t.Fatalf("one group must yield one finding, got %+v", fs)
	}
	f, ok := findEntity(fs, "group", "rack")
	if !ok || f.Level != Degraded {
		t.Fatalf("finding = %+v, want group/rack degraded", fs)
	}
	for _, want := range []string{"10.0.0.9:7000 p99", "vs 10.0.0.7:7000", "vote errors from 10.0.0.9:7000"} {
		if !strings.Contains(f.Reason, want) {
			t.Errorf("reason %q does not name %q", f.Reason, want)
		}
	}
}

func TestMirrorDetectorRPOAge(t *testing.T) {
	now := time.Unix(100000, 0)
	s := mirrorSample(now, 3, 3, 5, 2, 2, now.Add(-10*time.Minute))
	f, ok := findEntity(MirrorRule().Eval(s), "mirror", "escrow")
	if !ok || f.Level != Degraded {
		t.Fatalf("10m RPO age with dirty backlog not degraded: %+v", f)
	}
	if !strings.Contains(f.Reason, "RPO age") {
		t.Errorf("reason %q does not name RPO age", f.Reason)
	}

	// Same age with nothing dirty: there is no unprotected data, healthy.
	s = mirrorSample(now, 3, 3, 5, 0, 2, now.Add(-10*time.Minute))
	f, _ = findEntity(MirrorRule().Eval(s), "mirror", "escrow")
	if f.Level != Healthy {
		t.Errorf("old flush with zero dirty should be healthy: %+v", f)
	}
}

func TestMirrorDetectorFlushWithoutPush(t *testing.T) {
	d := MirrorRule()
	snap := func(flush, push, known int64) *Sample {
		return mirrorSample(time.Time{}, flush, push, 10, -1, known, time.Time{})
	}
	// First flush pushes: healthy.
	f, _ := findEntity(d.Eval(snap(1, 4, 2)), "mirror", "escrow")
	if f.Level != Healthy {
		t.Fatalf("pushing flush flagged: %+v", f)
	}
	// Second flush "succeeds" but pushes nothing while instances exist:
	// the chaosmut skip-resync signature. Sticky until a flush pushes.
	f, _ = findEntity(d.Eval(snap(2, 4, 2)), "mirror", "escrow")
	if f.Level != Degraded || !strings.Contains(f.Reason, "pushed no records") {
		t.Fatalf("flush-without-push not degraded: %+v", f)
	}
	// No new flush this interval: the verdict must not silently clear.
	f, _ = findEntity(d.Eval(snap(2, 4, 2)), "mirror", "escrow")
	if f.Level != Degraded {
		t.Fatalf("flush-without-push verdict cleared without a pushing flush: %+v", f)
	}
	// A flush that pushes again clears it.
	f, _ = findEntity(d.Eval(snap(3, 6, 2)), "mirror", "escrow")
	if f.Level != Healthy {
		t.Fatalf("pushing flush did not clear the verdict: %+v", f)
	}
}

func TestMirrorDetectorNeverPushed(t *testing.T) {
	s := mirrorSample(time.Time{}, 2, 0, 6, -1, -1, time.Time{})
	f, ok := findEntity(MirrorRule().Eval(s), "mirror", "escrow")
	if !ok || f.Level != Critical {
		t.Fatalf("enqueued-but-never-pushed mirror not critical: %+v", f)
	}
}

func TestLinkDetectorDownAndLoss(t *testing.T) {
	d := LinkRule()
	f, ok := findEntity(d.Eval(linkSample("wan-1", 1, 10, 0)), "link", "wan-1")
	if !ok || f.Level != Critical {
		t.Fatalf("down link not critical: %+v", f)
	}

	// Back up, but dropping 20% of traffic: degraded.
	f, ok = findEntity(d.Eval(linkSample("wan-1", 0, 50, 10)), "link", "wan-1")
	if !ok || f.Level != Degraded {
		t.Fatalf("20%% loss not degraded: %+v", f)
	}

	// Tiny sample below the minimum attempts is not trusted.
	f, _ = findEntity(LinkRule().Eval(linkSample("wan-1", -1, 3, 2)), "link", "wan-1")
	if f.Level != Healthy {
		t.Errorf("sub-minimum sample flagged: %+v", f)
	}
}

func TestStuckSpanDetector(t *testing.T) {
	d := StuckSpanRule()
	now := time.Unix(100000, 0)
	s := &Sample{Now: now, Open: []obs.OpenSpan{
		{Name: "fleet.migrate", SpanID: 7, Start: now.Add(-3 * time.Minute)},
		{Name: "me.transfer", SpanID: 9, Start: now.Add(-5 * time.Minute)},
		{Name: "me.offer", SpanID: 11, Start: now.Add(-time.Hour)}, // unwatched
	}}
	fs := d.Eval(s)
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
	f, ok = findEntity(d.Eval(s2), "fleet", "migrate")
	if !ok || f.Level != Healthy {
		t.Errorf("fresh span not healthy: %+v", f)
	}
}

func TestRefusalStormDetector(t *testing.T) {
	d := RefusalStormRule()
	snap := func(n int64) *Sample {
		m := obs.NewMetrics()
		m.Counter(obs.MESessionResumeRefused).Add(n)
		return &Sample{Snap: m.Snapshot()}
	}
	f, ok := findEntity(d.Eval(snap(1)), "me", "sessions")
	if !ok || f.Level != Healthy {
		t.Fatalf("one refusal flagged: %+v", f)
	}
	f, _ = findEntity(d.Eval(snap(5)), "me", "sessions") // delta 4
	if f.Level != Degraded {
		t.Fatalf("4-refusal burst not degraded: %+v", f)
	}
	f, _ = findEntity(d.Eval(snap(15)), "me", "sessions") // delta 10
	if f.Level != Critical {
		t.Fatalf("10-refusal burst not critical: %+v", f)
	}
	if fs := d.Eval(&Sample{}); fs != nil {
		t.Errorf("no counter should mean no findings, got %+v", fs)
	}
}

// TestDefaultDetectorsEndToEnd drives the full default stack through a
// Monitor over a real observer: an injected link-down gauge must commit
// the link entity to critical and emit the audit event.
func TestDefaultDetectorsEndToEnd(t *testing.T) {
	o := obs.NewObserver()
	m := New(o, Config{TripAfter: 1, ClearAfter: 2}, DefaultRules()...)
	o.M().Gauge(obs.WANLinkDown, "wan-ab").Set(1)
	o.M().Counter(obs.WANLinkMsgs, "wan-ab").Add(1)

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
	o.M().Gauge(obs.WANLinkDown, "wan-ab").Set(0)
	m.Evaluate(time.Unix(1001, 0))
	m.Evaluate(time.Unix(1002, 0))
	if st := m.StateOf("link", "wan-ab"); st != Healthy {
		t.Errorf("healed link state = %s, want healthy", st)
	}
}
