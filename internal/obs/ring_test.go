package obs

import (
	"sync"
	"testing"
)

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracerWithCapacity(4)
	for i := 0; i < 10; i++ {
		sp, _ := tr.StartSpan(SpanWANHop, TraceContext{})
		sp.End()
	}
	if got := tr.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	spans := tr.Spans()
	// Oldest-first order, and span IDs keep the allocator's monotone order
	// across eviction: the four survivors are the last four started.
	for i := 1; i < len(spans); i++ {
		if spans[i].SpanID <= spans[i-1].SpanID {
			t.Fatalf("span IDs out of order after eviction: %d then %d",
				spans[i-1].SpanID, spans[i].SpanID)
		}
	}
	if spans[0].SpanID != 7 || spans[3].SpanID != 10 {
		t.Fatalf("survivors = [%d..%d], want [7..10]", spans[0].SpanID, spans[3].SpanID)
	}
}

func TestTracerSetCapacityShrink(t *testing.T) {
	tr := NewTracerWithCapacity(0) // unbounded
	for i := 0; i < 8; i++ {
		sp, _ := tr.StartSpan(SpanWANHop, TraceContext{})
		sp.End()
	}
	tr.SetCapacity(3)
	if got := tr.Len(); got != 3 {
		t.Fatalf("Len after shrink = %d, want 3", got)
	}
	if got := tr.Dropped(); got != 5 {
		t.Fatalf("Dropped after shrink = %d, want 5", got)
	}
	// The ring keeps working at the new bound.
	sp, _ := tr.StartSpan(SpanWANHop, TraceContext{})
	sp.End()
	if got := tr.Len(); got != 3 {
		t.Fatalf("Len after post-shrink append = %d, want 3", got)
	}
}

func TestEventLogRingEviction(t *testing.T) {
	l := NewEventLogWithCapacity(3)
	for i := 0; i < 7; i++ {
		l.Append(EventFreeze, "actor", "", TraceContext{})
	}
	if got := l.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	if got := l.Dropped(); got != 4 {
		t.Fatalf("Dropped = %d, want 4", got)
	}
	events := l.Events()
	// Seq stays monotone across eviction — never reset to the ring index.
	want := uint64(4)
	for _, e := range events {
		if e.Seq != want {
			t.Fatalf("Seq = %d, want %d", e.Seq, want)
		}
		want++
	}
}

func TestEventLogSeqMonotoneAcrossSetCapacity(t *testing.T) {
	l := NewEventLogWithCapacity(0)
	for i := 0; i < 5; i++ {
		l.Append(EventFreeze, "a", "", TraceContext{})
	}
	l.SetCapacity(2)
	l.Append(EventFreeze, "a", "", TraceContext{})
	events := l.Events()
	if len(events) != 2 {
		t.Fatalf("Len = %d, want 2", len(events))
	}
	if events[0].Seq != 4 || events[1].Seq != 5 {
		t.Fatalf("Seqs = [%d %d], want [4 5]", events[0].Seq, events[1].Seq)
	}
	if got := l.Dropped(); got != 4 {
		t.Fatalf("Dropped = %d, want 4 (3 on shrink + 1 on append)", got)
	}
}

// TestRingConcurrency hammers small rings from many goroutines; run with
// -race to check the eviction paths.
func TestRingConcurrency(t *testing.T) {
	tr := NewTracerWithCapacity(8)
	l := NewEventLogWithCapacity(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp, tc := tr.StartSpan(SpanWANHop, TraceContext{})
				l.Append(EventFreeze, "actor", "", tc)
				sp.End()
				if i%50 == 0 {
					tr.Spans()
					l.Events()
				}
			}
		}()
	}
	wg.Wait()
	if tr.Len() != 8 || l.Len() != 8 {
		t.Fatalf("Len = (%d, %d), want (8, 8)", tr.Len(), l.Len())
	}
	const total = 8 * 200
	if got := tr.Dropped(); got != total-8 {
		t.Fatalf("tracer Dropped = %d, want %d", got, total-8)
	}
	if got := l.Dropped(); got != total-8 {
		t.Fatalf("events Dropped = %d, want %d", got, total-8)
	}
	// Every retained seq is unique and the max equals total appends - 1.
	seen := map[uint64]bool{}
	var max uint64
	for _, e := range l.Events() {
		if seen[e.Seq] {
			t.Fatalf("duplicate Seq %d", e.Seq)
		}
		seen[e.Seq] = true
		if e.Seq > max {
			max = e.Seq
		}
	}
	if max != total-1 {
		t.Fatalf("max Seq = %d, want %d", max, total-1)
	}

	o := &Observer{Tracer: tr, Metrics: NewMetrics(), Events: l}
	o.PublishDropped()
	snap := o.Metrics.Snapshot()
	spans, _ := snap.Gauge(ObsDroppedSpans)
	events, _ := snap.Gauge(ObsDroppedEvents)
	if spans != total-8 || events != total-8 {
		t.Fatalf("dropped gauges = %d spans, %d events, want %d each", spans, events, total-8)
	}
}
