// Package obs is the repository's observability layer: in-band trace
// propagation, a lock-cheap metrics registry, an append-only audit event
// stream with a stable codec, and the catalogue that declares every
// metric family and span once (catalogue.go). It imports only the
// standard library and the wirec framing primitives.
//
// All three pillars are nil-safe: every method on *Tracer, *Metrics,
// *EventLog, and *Observer works on a nil receiver and reduces to a few
// predictable branches, so instrumented hot paths (the Fig. 3 counter
// increment) pay nothing measurable when observability is disabled.
//
// Tracing model. A TraceContext is a (trace ID, span ID) pair. The trace
// ID names one logical operation end to end — a migration, a recovery, a
// quorum commit — and stays constant as the operation crosses goroutines,
// processes, and data centers. The span ID names the immediate parent
// span, so the exported span set reconstructs the tree. Contexts cross
// transport.Messenger boundaries as a small envelope prefix on the Send
// payload (Inject/Extract); transports strip the prefix before invoking
// handlers and surface the context on Message.Trace, so handlers that
// decrypt or decode their payloads never see it.
package obs

import (
	"crypto/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/wirec"
)

// TraceContext identifies a position in one distributed trace. The zero
// value means "no trace": instrumentation treats it as absent and
// propagation becomes a no-op.
type TraceContext struct {
	TraceID uint64 `json:"trace_id"`
	SpanID  uint64 `json:"span_id"`
}

// Valid reports whether the context carries a live trace.
func (tc TraceContext) Valid() bool { return tc.TraceID != 0 }

// traceEnvelopeLen is the size of the in-band envelope: an 8-byte magic
// followed by the trace and span IDs.
const traceEnvelopeLen = 8 + 8 + 8

// traceMagic marks a payload carrying a trace envelope. Eight bytes keep
// the false-positive rate on random (sealed) payloads at 2^-64; the first
// byte deliberately collides with no codec tag used by the repo's wire
// formats (0xA*/0xE* blocks).
var traceMagic = [8]byte{0xD7, 'o', 'b', 's', 't', 'r', 'c', 0x01}

// Inject prefixes payload with the trace envelope. A zero context returns
// the payload unchanged, so uninstrumented callers cost nothing.
func Inject(tc TraceContext, payload []byte) []byte {
	if !tc.Valid() {
		return payload
	}
	out := make([]byte, 0, traceEnvelopeLen+len(payload))
	out = append(out, traceMagic[:]...)
	out = wirec.AppendU64(out, tc.TraceID)
	out = wirec.AppendU64(out, tc.SpanID)
	return append(out, payload...)
}

// Extract detects and strips a trace envelope, returning the carried
// context and the inner payload. Payloads without the envelope pass
// through untouched with a zero context (backwards compatibility).
func Extract(payload []byte) (TraceContext, []byte) {
	if len(payload) < traceEnvelopeLen || [8]byte(payload[:8]) != traceMagic {
		return TraceContext{}, payload
	}
	return UnmarshalTrace(payload[8:traceEnvelopeLen]), payload[traceEnvelopeLen:]
}

// Marshal encodes the context as 16 fixed bytes (for codecs that carry a
// context inside their own framing, e.g. the core local-call protocol).
func (tc TraceContext) Marshal() []byte {
	if !tc.Valid() {
		return nil
	}
	return wirec.AppendU64(wirec.AppendU64(make([]byte, 0, 16), tc.TraceID), tc.SpanID)
}

// UnmarshalTrace decodes a context produced by Marshal. Empty or
// malformed input yields the zero context — absent, never an error.
func UnmarshalTrace(raw []byte) TraceContext {
	if len(raw) != 16 {
		return TraceContext{}
	}
	rd := wirec.MakeReader(raw)
	return TraceContext{TraceID: rd.U64(), SpanID: rd.U64()}
}

// Span is one finished or in-flight operation within a trace. Spans form
// a tree via ParentID; the root span of a trace has ParentID 0.
type Span struct {
	Name     string `json:"name"`
	TraceID  uint64 `json:"trace_id"`
	SpanID   uint64 `json:"span_id"`
	ParentID uint64 `json:"parent_id,omitempty"`
	// Site labels where the span was recorded (a machine, DC, or
	// component name); optional.
	Site string `json:"site,omitempty"`
	// Start is the wall-clock instant StartSpan ran; Dur is the elapsed
	// time at the first End call. Together they make the exported span
	// set analyzable: critical-path extraction and the unavailability
	// ledger (internal/obs/analyze) both work from these two fields.
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur_ns"`

	tracer *Tracer
	ended  bool
}

// EndTime returns the span's wall-clock end (Start + Dur).
func (s Span) EndTime() time.Time { return s.Start.Add(s.Dur) }

// Context returns the propagation context for work done under this span:
// children parented here share the span's trace.
func (s *Span) Context() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: s.TraceID, SpanID: s.SpanID}
}

// End exports the span to its tracer. Safe on nil spans and safe to call
// more than once; only the first call records.
func (s *Span) End() {
	if s == nil || s.ended || s.tracer == nil {
		return
	}
	s.ended = true
	s.Dur = time.Since(s.Start)
	s.tracer.export(s)
}

// DefaultSpanCapacity bounds a NewTracer ring: old spans evict (counted
// in Dropped) instead of growing without limit, so a long soak with an
// observer wired holds memory flat.
const DefaultSpanCapacity = 1 << 16

// openTrackCapacity bounds the open-span registry: a workload that opens
// spans and never ends them cannot grow the tracer without limit.
// Registrations past the bound are simply not tracked (the span itself
// still records normally when it ends).
const openTrackCapacity = 8192

// OpenSpan is the immutable registration record of a span that has been
// started but not yet ended. It is captured at StartSpan time, before the
// caller may mutate the *Span (e.g. assigning Site), so snapshots of the
// open set are race-free by construction.
type OpenSpan struct {
	Name     string    `json:"name"`
	TraceID  uint64    `json:"trace_id"`
	SpanID   uint64    `json:"span_id"`
	ParentID uint64    `json:"parent_id,omitempty"`
	Start    time.Time `json:"start"`
}

// Tracer collects finished spans in a bounded ring (oldest evicted
// first). It is safe for concurrent use. A nil *Tracer is a valid
// disabled tracer: StartSpan returns a nil span and propagates the
// parent context unchanged.
type Tracer struct {
	mu   sync.Mutex
	ring ring[Span]
	seq  uint64 // span ID allocator; IDs are unique per tracer
	open map[uint64]OpenSpan
}

// NewTracer creates an in-memory span collector bounded at
// DefaultSpanCapacity retained spans.
func NewTracer() *Tracer { return NewTracerWithCapacity(DefaultSpanCapacity) }

// NewTracerWithCapacity creates a collector retaining at most n spans
// (n <= 0 means unbounded — the pre-ring behavior, for tests and
// short-lived tools that must never lose a span).
func NewTracerWithCapacity(n int) *Tracer { return &Tracer{ring: ring[Span]{capacity: n}} }

// SetCapacity re-bounds the ring to n retained spans (n <= 0 removes
// the bound). When shrinking, the oldest spans beyond the new bound are
// evicted and counted as dropped.
func (t *Tracer) SetCapacity(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ring.setCapacity(n)
}

// Dropped returns how many spans the ring has evicted over the tracer's
// lifetime (exported as the obs.dropped.spans gauge).
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.ring.dropped.Load()
}

// StartSpan opens a span of catalogue kind d under parent (zero parent
// starts a new trace with a random trace ID) and returns it with the
// context to propagate into child work. On a nil tracer — or a nil
// descriptor, which is how a handler skips recording a message kind the
// catalogue does not know — the span is nil and the parent context flows
// through unchanged, so propagation still works without recording.
func (t *Tracer) StartSpan(d *SpanDesc, parent TraceContext) (*Span, TraceContext) {
	if t == nil || d == nil {
		return nil, parent
	}
	start := time.Now()
	traceID := parent.TraceID
	if traceID == 0 {
		traceID = randomID()
	}
	t.mu.Lock()
	t.seq++
	id := t.seq
	if t.open == nil {
		t.open = make(map[uint64]OpenSpan)
	}
	if len(t.open) < openTrackCapacity {
		t.open[id] = OpenSpan{
			Name:     d.Name,
			TraceID:  traceID,
			SpanID:   id,
			ParentID: parent.SpanID,
			Start:    start,
		}
	}
	t.mu.Unlock()
	sp := &Span{
		Name:     d.Name,
		TraceID:  traceID,
		SpanID:   id,
		ParentID: parent.SpanID,
		Start:    start,
		tracer:   t,
	}
	return sp, TraceContext{TraceID: sp.TraceID, SpanID: sp.SpanID}
}

func (t *Tracer) export(s *Span) {
	t.mu.Lock()
	delete(t.open, s.SpanID)
	t.ring.push(*s)
	t.mu.Unlock()
}

// OpenSpans returns the registration records of spans started but not
// yet ended, oldest first. The records are immutable snapshots taken at
// StartSpan time, so this is safe to call while the spans' owners are
// still mutating them. The stuck-span watchdog (internal/obs/health)
// reads this to find operations open past their deadline.
func (t *Tracer) OpenSpans() []OpenSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]OpenSpan, 0, len(t.open))
	for _, rec := range t.open {
		out = append(out, rec)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].SpanID < out[j].SpanID
	})
	return out
}

// Spans returns a copy of the retained finished spans in end order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.ordered()
}

// Len returns the number of retained finished spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ring.buf)
}

// Reset discards collected spans (the ID allocator keeps advancing, so
// span IDs stay unique across resets; the dropped tally is lifetime and
// also survives).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ring.reset()
	t.mu.Unlock()
}

// ByTrace groups finished spans by trace ID.
func (t *Tracer) ByTrace() map[uint64][]Span {
	out := make(map[uint64][]Span)
	for _, s := range t.Spans() {
		out[s.TraceID] = append(out[s.TraceID], s)
	}
	return out
}

// randomID draws a nonzero 64-bit ID from crypto/rand. Trace IDs must be
// unforgeable enough not to collide across independent processes; spans
// within one tracer use the cheap sequential allocator instead.
func randomID() uint64 {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			// crypto/rand does not fail on supported platforms; if it
			// ever does, a constant non-zero ID keeps tracing functional.
			return 1
		}
		if id := wirec.NewReader(b[:]).U64(); id != 0 {
			return id
		}
	}
}
