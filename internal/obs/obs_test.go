package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestInjectExtractRoundTrip(t *testing.T) {
	tc := TraceContext{TraceID: 0xDEADBEEFCAFE, SpanID: 42}
	payload := []byte("sealed migration data")
	wire := Inject(tc, payload)
	if len(wire) != traceEnvelopeLen+len(payload) {
		t.Fatalf("envelope length = %d, want %d", len(wire), traceEnvelopeLen+len(payload))
	}
	got, inner := Extract(wire)
	if got != tc {
		t.Fatalf("extracted %+v, want %+v", got, tc)
	}
	if !bytes.Equal(inner, payload) {
		t.Fatalf("inner payload corrupted: %q", inner)
	}
}

func TestInjectZeroContextIsIdentity(t *testing.T) {
	payload := []byte("plain")
	wire := Inject(TraceContext{}, payload)
	if &wire[0] != &payload[0] {
		t.Fatal("zero-context Inject must return the payload unchanged, no copy")
	}
}

func TestExtractPassesThroughUnwrappedPayloads(t *testing.T) {
	for _, payload := range [][]byte{
		nil,
		{},
		[]byte("short"),
		bytes.Repeat([]byte{0xD7}, traceEnvelopeLen+4), // first magic byte, wrong rest
		make([]byte, traceEnvelopeLen),                 // right length, zero bytes
	} {
		tc, inner := Extract(payload)
		if tc.Valid() {
			t.Fatalf("payload %x misdetected as envelope", payload)
		}
		if !bytes.Equal(inner, payload) {
			t.Fatalf("payload %x altered by Extract", payload)
		}
	}
}

func TestTraceMarshalRoundTrip(t *testing.T) {
	tc := TraceContext{TraceID: 7, SpanID: 9}
	if got := UnmarshalTrace(tc.Marshal()); got != tc {
		t.Fatalf("round trip = %+v, want %+v", got, tc)
	}
	if raw := (TraceContext{}).Marshal(); raw != nil {
		t.Fatalf("zero context Marshal = %x, want nil", raw)
	}
	if got := UnmarshalTrace([]byte("not sixteen")); got.Valid() {
		t.Fatalf("malformed input decoded to %+v", got)
	}
}

func TestTracerSpanTree(t *testing.T) {
	tr := NewTracer()
	root, rootTC := tr.StartSpan(SpanFleetMigrate, TraceContext{})
	if !rootTC.Valid() {
		t.Fatal("root span did not allocate a trace ID")
	}
	child, childTC := tr.StartSpan(SpanLibFreeze, rootTC)
	if childTC.TraceID != rootTC.TraceID {
		t.Fatal("child span left the trace")
	}
	child.End()
	child.End() // idempotent
	root.End()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("exported %d spans, want 2", len(spans))
	}
	if spans[0].Name != "lib.freeze" || spans[0].ParentID != root.SpanID {
		t.Fatalf("child span wrong: %+v", spans[0])
	}
	if spans[1].ParentID != 0 {
		t.Fatalf("root span has parent %d", spans[1].ParentID)
	}
	byTrace := tr.ByTrace()
	if len(byTrace) != 1 || len(byTrace[rootTC.TraceID]) != 2 {
		t.Fatalf("ByTrace grouping wrong: %v", byTrace)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp, tc := tr.StartSpan(SpanWANHop, TraceContext{TraceID: 3, SpanID: 1})
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	if tc != (TraceContext{TraceID: 3, SpanID: 1}) {
		t.Fatal("nil tracer did not propagate the parent context")
	}
	sp.End()
	tr.Reset()
	_ = tr.Spans()
	_ = tr.Len()

	var m *Metrics
	m.Counter(WireMsgs).Add(1)
	m.Gauge(MirrorDirty).Set(2)
	m.Histogram(FleetMigrationLatency).Observe(3)
	m.Counter(WANLinkMsgs, "l").Add(1)
	_ = m.Snapshot()
	_ = m.Snapshots()

	var l *EventLog
	l.Append(EventFreeze, "a", "d", TraceContext{})
	_ = l.Events()

	var o *Observer
	sp, _ = o.StartSpan(SpanWANHop, TraceContext{})
	sp.End()
	o.Event(EventFreeze, "a", "d", TraceContext{})
	o.M().Counter(WireMsgs).Add(1)
}

var updateREADME = flag.Bool("update", false, "rewrite README's telemetry reference from the catalogue")

// TestREADMEReference keeps README's metric and span reference equal to
// what the catalogue generates.
func TestREADMEReference(t *testing.T) {
	const begin, end = "<!-- telemetry-reference:begin -->\n", "<!-- telemetry-reference:end -->"
	path := filepath.Join("..", "..", "README.md")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	i, j := strings.Index(readme, begin), strings.Index(readme, end)
	if i < 0 || j < i {
		t.Fatalf("README.md lacks the %q … %q markers", begin, end)
	}
	i += len(begin)
	if readme[i:j] == Reference() {
		return
	}
	if !*updateREADME {
		t.Fatalf("README's telemetry reference drifted from the catalogue; run\n\tgo test ./internal/obs -run TestREADMEReference -update\nwant:\n%s", Reference())
	}
	if err := os.WriteFile(path, []byte(readme[:i]+Reference()+readme[j:]), 0o644); err != nil {
		t.Fatal(err)
	}
}
