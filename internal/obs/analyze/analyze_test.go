package analyze

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/health"
)

var base = time.Unix(1_700_000_000, 0)

// span builds a synthetic finished span at base+start lasting dur.
func span(name string, traceID, spanID, parentID uint64, site string, start, dur time.Duration) obs.Span {
	return obs.Span{
		Name:     name,
		TraceID:  traceID,
		SpanID:   spanID,
		ParentID: parentID,
		Site:     site,
		Start:    base.Add(start),
		Dur:      dur,
	}
}

// multiDCTrace models a cross-site migration: the root orchestrates a
// freeze, two wan.hop legs around a transfer, and a resume. Laid out:
//
//	root [0, 100ms]                              orchestrate
//	  lib.freeze   [5ms, 15ms]                   freeze
//	  wan.hop      [15ms, 30ms]                  wan
//	    me.data    [18ms, 25ms]   (inner leg)    transfer
//	  wan.hop      [30ms, 55ms]                  wan
//	  lib.resume   [60ms, 90ms]                  resume
//
// Critical path: orchestrate owns [0,5)+[55,60)+[90,100) = 20ms; freeze
// 10ms; first hop [15,18)+[25,30) = 8ms; me.data 7ms; second hop 25ms;
// resume 30ms. Total 100ms.
func multiDCTrace(traceID uint64) []obs.Span {
	ms := time.Millisecond
	return []obs.Span{
		span("fleet.migrate", traceID, 1, 0, "dc-a", 0, 100*ms),
		span("lib.freeze", traceID, 2, 1, "lib:m1", 5*ms, 10*ms),
		span("wan.hop", traceID, 3, 1, "a->b", 15*ms, 15*ms),
		span("me.data", traceID, 4, 3, "dc-b", 18*ms, 7*ms),
		span("wan.hop", traceID, 5, 1, "b->a", 30*ms, 25*ms),
		span("lib.resume", traceID, 6, 1, "lib:m1", 60*ms, 30*ms),
	}
}

func TestCriticalPathMultiDC(t *testing.T) {
	trees := BuildTraces(multiDCTrace(7))[7]
	if len(trees) != 1 {
		t.Fatalf("trees = %d, want 1", len(trees))
	}
	tree := trees[0]
	if tree.Orphan {
		t.Fatal("root should not be orphaned")
	}
	segs := tree.CriticalPath()

	// Every instant of the root window is attributed exactly once:
	// segments are contiguous and sum to the root duration.
	var total time.Duration
	for i, seg := range segs {
		total += seg.Dur
		if i > 0 && !seg.Start.Equal(segs[i-1].End) {
			t.Fatalf("gap/overlap between segments %d and %d: %v vs %v",
				i-1, i, segs[i-1].End, seg.Start)
		}
	}
	if total != tree.Root.Dur {
		t.Fatalf("segments sum to %v, root lasted %v", total, tree.Root.Dur)
	}

	ms := time.Millisecond
	want := map[string]time.Duration{
		obs.PhaseOrchestrate: 20 * ms,
		obs.PhaseFreeze:      10 * ms,
		obs.PhaseWAN:         33 * ms, // 8ms around me.data + 25ms second hop
		obs.PhaseTransfer:    7 * ms,
		obs.PhaseResume:      30 * ms,
	}
	got := tree.Breakdown()
	for phase, d := range want {
		if got[phase] != d {
			t.Errorf("phase %s = %v, want %v (full: %v)", phase, got[phase], d, got)
		}
	}
}

func TestCriticalPathOrphanedParent(t *testing.T) {
	ms := time.Millisecond
	// The root was evicted from the ring: lib.recover's parent span 99
	// is absent, so it becomes an orphan tree but still analyzable.
	spans := []obs.Span{
		span("lib.recover", 11, 3, 99, "lib:m2", 0, 40*ms),
		span("escrow.get", 11, 4, 3, "rack-1", 5*ms, 10*ms),
	}
	trees := BuildTraces(spans)[11]
	if len(trees) != 1 || !trees[0].Orphan {
		t.Fatalf("want one orphan tree, got %+v", trees)
	}
	got := trees[0].Breakdown()
	if got[obs.PhaseRecover] != 30*ms || got[obs.PhaseEscrow] != 10*ms {
		t.Fatalf("breakdown = %v", got)
	}
}

func TestCriticalPathOutOfOrderEnd(t *testing.T) {
	ms := time.Millisecond
	// The child's window leaks past its parent's end (End called after
	// the parent ended, or cross-machine clock skew): it must be clamped
	// so the partition property still holds.
	spans := []obs.Span{
		span("fleet.migrate", 13, 1, 0, "", 0, 20*ms),
		span("me.transfer", 13, 2, 1, "", 10*ms, 30*ms), // ends at 40ms > parent 20ms
		span("lib.freeze", 13, 3, 1, "", -5*ms, 10*ms),  // starts before parent
	}
	tree := BuildTraces(spans)[13][0]
	var total time.Duration
	for _, seg := range tree.CriticalPath() {
		total += seg.Dur
	}
	if total != 20*ms {
		t.Fatalf("clamped segments sum to %v, want 20ms", total)
	}
	got := tree.Breakdown()
	if got[obs.PhaseTransfer] != 10*ms || got[obs.PhaseFreeze] != 5*ms || got[obs.PhaseOrchestrate] != 5*ms {
		t.Fatalf("breakdown = %v", got)
	}
}

func TestSummarizeAggregatesRoots(t *testing.T) {
	spans := append(multiDCTrace(21), multiDCTrace(22)...)
	sum := Summarize(spans, "fleet.migrate")
	if sum.Count != 2 {
		t.Fatalf("Count = %d, want 2", sum.Count)
	}
	if sum.Mean != 100*time.Millisecond {
		t.Fatalf("Mean = %v, want 100ms", sum.Mean)
	}
	var frac float64
	for _, p := range sum.Phases {
		frac += p.Fraction
	}
	if frac < 0.999 || frac > 1.001 {
		t.Fatalf("phase fractions sum to %v, want 1", frac)
	}
	if sum.Phases[0].Phase != obs.PhaseWAN {
		t.Fatalf("dominant phase = %s, want wan", sum.Phases[0].Phase)
	}
	if miss := Summarize(spans, "fleet.recover"); miss.Count != 0 {
		t.Fatalf("unexpected fleet.recover summary: %+v", miss)
	}
}

func TestUnavailabilityWindows(t *testing.T) {
	ms := time.Millisecond
	spans := multiDCTrace(31)
	// A recovery trace: root fleet.recover with lib.recover inside, and
	// a second one that was refused (no resurrection event).
	spans = append(spans,
		span("fleet.recover", 32, 1, 0, "dc-a", 200*ms, 50*ms),
		span("lib.recover", 32, 2, 1, "lib:m9", 210*ms, 30*ms),
		span("fleet.recover", 33, 1, 0, "dc-a", 300*ms, 50*ms),
		span("lib.recover", 33, 2, 1, "lib:zz", 310*ms, 30*ms),
	)
	events := []obs.AuditEvent{
		{Type: obs.EventResurrection, Actor: "m9", Trace: obs.TraceContext{TraceID: 32}},
		{Type: obs.EventZombieRefused, Actor: "zz", Trace: obs.TraceContext{TraceID: 33}},
	}
	windows := UnavailabilityWindows(spans, events)
	if len(windows) != 2 {
		t.Fatalf("windows = %+v, want freeze + recovery", windows)
	}
	fr, rc := windows[0], windows[1]
	if fr.Kind != WindowFreeze || fr.Enclave != "lib:m1" || fr.Dur != 85*ms {
		t.Fatalf("freeze window = %+v (want lib:m1, 85ms freeze→resume-end)", fr)
	}
	if rc.Kind != WindowRecovery || rc.Enclave != "lib:m9" || rc.Dur != 40*ms {
		t.Fatalf("recovery window = %+v (want lib:m9, 40ms root-start→recover-end)", rc)
	}
}

func TestLedgerObservesOnce(t *testing.T) {
	o := obs.NewObserver()
	sp, tc := o.StartSpan(obs.SpanFleetRecover, obs.TraceContext{})
	lib, _ := o.StartSpan(obs.SpanLibRecover, tc)
	time.Sleep(time.Millisecond)
	lib.End()
	o.Event(obs.EventResurrection, "m1", "", tc)
	sp.End()

	ld := NewLedger()
	if got := len(ld.Update(o)); got != 1 {
		t.Fatalf("windows = %d, want 1", got)
	}
	ld.Update(o) // second pass must not double-observe
	snap := o.M().Snapshot()
	h, _ := snap.Histogram(obs.UnavailRecoveryWindow)
	if h.Count != 1 {
		t.Fatalf("recovery histogram count = %d, want 1 after two updates", h.Count)
	}
	if max, _ := snap.Gauge(obs.UnavailRecoveryMax); max <= 0 {
		t.Fatalf("max gauge = %d, want > 0", max)
	}
}

func TestSLOEvaluate(t *testing.T) {
	m := obs.NewMetrics()
	for i := 0; i < 100; i++ {
		m.Histogram(obs.UnavailFreezeWindow).Observe(10 * time.Millisecond)
	}
	m.Gauge(obs.MirrorFlushLast).Set(base.UnixNano())
	now := base.Add(10 * time.Minute)

	o := &obs.Observer{Metrics: m, Events: obs.NewEventLog()}
	pass := health.New(o, health.Config{}, health.DefaultRules()...).Evaluate(now)
	byName := map[string]health.Result{}
	for _, v := range pass.Objectives {
		byName[v.Rule] = v
	}
	if len(byName) != 4 {
		t.Fatalf("objectives = %+v, want the four defaults", pass.Objectives)
	}
	if v := byName["freeze-window-p99"]; v.Violated() || v.Missing {
		t.Fatalf("freeze-window-p99 = %+v, want pass", v)
	}
	if v := byName["migration-p99"]; !v.Missing || v.Violated() {
		t.Fatalf("migration-p99 = %+v, want missing (no data), and missing is not a violation", v)
	}
	// The mirror last flushed 10 minutes ago against a 5-minute RPO.
	if v := byName["mirror-rpo-age"]; !v.Violated() || v.Actual != 10*time.Minute || v.Bound != 5*time.Minute {
		t.Fatalf("mirror-rpo-age = %+v, want violated", v)
	}

	if got, _ := m.Snapshot().Gauge(obs.SLOViolations); got != 1 {
		t.Fatalf("slo.violations = %d, want 1", got)
	}
	events := o.Events.Events()
	if len(events) != 1 || events[0].Type != obs.EventSLOViolation || events[0].Actor != "slo:mirror-rpo-age" {
		t.Fatalf("events = %+v, want one slo-violation", events)
	}
}

func TestWriteOpenMetrics(t *testing.T) {
	m := obs.NewMetrics()
	m.Counter(obs.WireMsgsKind, "migrate-offer").Add(3)
	m.Gauge(obs.ObsDroppedSpans).Set(0)
	m.Histogram(obs.FleetMigrationLatency).Observe(856 * time.Microsecond)
	m.Histogram(obs.WANCompressRatioLink, "a-b").Observe(250)

	var b strings.Builder
	if err := WriteOpenMetrics(&b, m.Snapshot()); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE wire_msgs_kind counter\nwire_msgs_kind_total{kind=\"migrate-offer\"} 3\n",
		"wan_compress_ratio_link{link=\"a-b\",quantile=\"0.5\"} ",
		"wan_compress_ratio_link_count{link=\"a-b\"} 1\n",
		"# TYPE obs_dropped_spans gauge\nobs_dropped_spans 0\n",
		"# TYPE fleet_migration_latency summary\n",
		"fleet_migration_latency{quantile=\"0.99\"} ",
		"fleet_migration_latency_count 1\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if !strings.HasSuffix(text, "# EOF\n") {
		t.Fatalf("exposition must end with # EOF:\n%s", text)
	}
	// Minimal parse: every non-comment line is "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Fatalf("unparseable exposition line %q", line)
		}
	}
}

// TestOpenMetricsLabelsNotSplicedNames pins what carrying labels
// structurally fixes. Links "a-b" and "a.b" used to sanitize to the same
// wan_link_down_a_b family, emitted twice (a repeated # TYPE line is an
// invalid exposition); now they are two label values of one family. And
// label values are escaped per OpenMetrics.
func TestOpenMetricsLabelsNotSplicedNames(t *testing.T) {
	m := obs.NewMetrics()
	m.Gauge(obs.WANLinkDown, "a-b").Set(1)
	m.Gauge(obs.WANLinkDown, "a.b").Set(0)
	m.Gauge(obs.WANLinkDown, "q\"uote\\slash\nline").Set(1)
	var b strings.Builder
	if err := WriteOpenMetrics(&b, m.Snapshot()); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	seen := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			if seen[line] {
				t.Errorf("repeated %q:\n%s", line, text)
			}
			seen[line] = true
		}
	}
	if !seen["# TYPE wan_link_down gauge"] || len(seen) != 1 {
		t.Errorf("want exactly the wan_link_down family, got %v", seen)
	}
	for _, want := range []string{
		"wan_link_down{link=\"a-b\"} 1\n",
		"wan_link_down{link=\"a.b\"} 0\n",
		`wan_link_down{link="q\"uote\\slash\nline"} 1` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestSpanCatalogueHasPhases: every declared span books to a phase of
// its own, and a name nobody declared is still "other".
func TestSpanCatalogueHasPhases(t *testing.T) {
	for _, d := range obs.SpanCatalogue() {
		if d.Phase == "" || d.Phase == obs.PhaseOther {
			t.Errorf("span %s has phase %q", d.Name, d.Phase)
		}
		if got := obs.PhaseOf(d.Name); got != d.Phase {
			t.Errorf("PhaseOf(%s) = %s, catalogue says %s", d.Name, got, d.Phase)
		}
	}
	if got := obs.PhaseOf("me.batch-offer"); got != PhaseOther {
		t.Errorf("PhaseOf(undeclared) = %s, want other", got)
	}
}

// TestCriticalPathAdoptsLateChild: a span that starts after its parent
// ended (destination lib.resume under the source's me.migrate-out) is
// partitioned under the nearest ancestor still running, not clamped to
// nothing, and the segments still sum to the root exactly.
func TestCriticalPathAdoptsLateChild(t *testing.T) {
	ms := time.Millisecond
	spans := []obs.Span{
		span("fleet.migrate", 17, 1, 0, "", 0, 100*ms),
		span("me.migrate-out", 17, 2, 1, "", 10*ms, 30*ms), // ends at 40ms
		span("me.transfer", 17, 3, 2, "", 15*ms, 20*ms),
		span("lib.resume", 17, 4, 2, "", 50*ms, 20*ms), // parent already over
		span("me.done", 17, 5, 4, "", 60*ms, 5*ms),
		span("lib.resume", 17, 6, 3, "", 200*ms, 5*ms), // after every ancestor: stays clamped away
	}
	tree := BuildTraces(spans)[17][0]
	var total time.Duration
	for _, seg := range tree.CriticalPath() {
		total += seg.Dur
	}
	if total != 100*ms {
		t.Fatalf("segments sum to %v, want the root's 100ms", total)
	}
	got := tree.Breakdown()
	want := map[string]time.Duration{
		obs.PhaseResume:      15 * ms, // [50,60) + [65,70)
		obs.PhaseCommit:      5 * ms,
		obs.PhaseTransfer:    30 * ms,
		obs.PhaseOrchestrate: 50 * ms,
	}
	for phase, d := range want {
		if got[phase] != d {
			t.Errorf("phase %s = %v, want %v (full: %v)", phase, got[phase], d, got)
		}
	}
}
