package obs

import "sync"

// Audit event types: the security-relevant state transitions the paper's
// arguments hinge on. The chaos invariant checker replays this stream,
// so the names are a stable contract.
const (
	// EventFreeze: a library sealed its final pre-migration state and
	// destroyed its counters; the source instance can never run again.
	EventFreeze = "freeze"
	// EventBindingWin: a recovering library won the exactly-one-winner
	// DestroyAndRead race on an escrow binding counter.
	EventBindingWin = "binding-win"
	// EventResurrection: a library instance was fully restored from
	// escrowed state on a new machine.
	EventResurrection = "resurrection"
	// EventZombieRefused: an instance observed ErrRecoveredAway — its
	// state was resurrected elsewhere — and refused to continue.
	EventZombieRefused = "zombie-refused"
	// EventGrantRevoked: a federation trust grant was revoked
	// (Disconnect distrusted the partner's issuer).
	EventGrantRevoked = "grant-revoked"
	// EventSiteLossFailover: a forced cross-site recovery proceeded
	// without origin arbitration (site presumed lost); the deferred
	// origin-binding revocation was queued.
	EventSiteLossFailover = "site-loss-failover"
	// EventEscrowSupersede: a newer escrow version replaced (superseded)
	// an older record for the same instance.
	EventEscrowSupersede = "escrow-supersede"
	// EventEscrowTombstone: an escrow record was tombstoned after its
	// single-use resurrection was consumed.
	EventEscrowTombstone = "escrow-tombstone"
	// EventSLOViolation: a declared service-level objective
	// (internal/obs/analyze) was evaluated and found breached.
	EventSLOViolation = "slo-violation"
	// EventHealthChanged: the health plane (internal/obs/health) moved an
	// entity between healthy/degraded/critical states.
	EventHealthChanged = "health-changed"
	// EventFlightRecorded: the flight recorder (internal/obs/flight)
	// captured a black-box bundle in response to a trigger.
	EventFlightRecorded = "flight-recorded"
)

// AuditEvent is one entry in the append-only audit stream.
type AuditEvent struct {
	// Seq is the append index within the log (assigned by EventLog).
	Seq uint64 `json:"seq"`
	// Type is one of the Event* constants.
	Type string `json:"type"`
	// Actor names the component recording the event (a machine, library
	// measurement, group, or federation link).
	Actor string `json:"actor,omitempty"`
	// Detail is free-form context (counter UUIDs, escrow IDs, versions).
	Detail string `json:"detail,omitempty"`
	// Trace ties the event into a distributed trace when one was active.
	Trace TraceContext `json:"trace,omitempty"`
}

// DefaultEventCapacity bounds a NewEventLog ring: the oldest events
// evict (counted in Dropped) instead of growing without limit.
const DefaultEventCapacity = 1 << 16

// EventLog is the append-order audit stream, retained in a bounded ring
// (oldest evicted first; Seq stays monotone across eviction, so a reader
// can detect the gap). It is safe for concurrent use; a nil *EventLog
// discards appends.
type EventLog struct {
	mu   sync.Mutex
	ring ring[AuditEvent]
	seq  uint64 // next sequence number; never reset
}

// NewEventLog creates an audit log bounded at DefaultEventCapacity
// retained events.
func NewEventLog() *EventLog { return NewEventLogWithCapacity(DefaultEventCapacity) }

// NewEventLogWithCapacity creates a log retaining at most n events
// (n <= 0 means unbounded).
func NewEventLogWithCapacity(n int) *EventLog {
	return &EventLog{ring: ring[AuditEvent]{capacity: n}}
}

// SetCapacity re-bounds the ring to n retained events (n <= 0 removes
// the bound). When shrinking, the oldest events beyond the new bound
// are evicted and counted as dropped.
func (l *EventLog) SetCapacity(n int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ring.setCapacity(n)
}

// Dropped returns how many events the ring has evicted over the log's
// lifetime (exported as the obs.dropped.events gauge).
func (l *EventLog) Dropped() int64 {
	if l == nil {
		return 0
	}
	return l.ring.dropped.Load()
}

// Append records one event, assigning its sequence number. Sequence
// numbers are monotone for the log's lifetime — eviction never reuses
// one — so consumers can detect how much of the stream they missed.
func (l *EventLog) Append(typ, actor, detail string, tc TraceContext) {
	if l == nil {
		return
	}
	l.mu.Lock()
	e := AuditEvent{
		Seq:    l.seq,
		Type:   typ,
		Actor:  actor,
		Detail: detail,
		Trace:  tc,
	}
	l.seq++
	l.ring.push(e)
	l.mu.Unlock()
}

// Events returns a copy of the retained stream in append order.
func (l *EventLog) Events() []AuditEvent {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.ordered()
}

// Len returns the number of retained events.
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ring.buf)
}

// Observer bundles the three pillars into the single handle the rest of
// the repo plumbs around. Any field — or the whole observer — may be
// nil; every helper below is nil-safe.
type Observer struct {
	Tracer  *Tracer
	Metrics *Metrics
	Events  *EventLog
}

// NewObserver creates an observer with all three sinks enabled.
func NewObserver() *Observer {
	return &Observer{Tracer: NewTracer(), Metrics: NewMetrics(), Events: NewEventLog()}
}

// StartSpan opens a span on the observer's tracer. With a nil observer
// or tracer the span is nil and the parent context propagates unchanged.
func (o *Observer) StartSpan(d *SpanDesc, parent TraceContext) (*Span, TraceContext) {
	if o == nil {
		return nil, parent
	}
	return o.Tracer.StartSpan(d, parent)
}

// Event appends to the observer's audit log (no-op when disabled).
func (o *Observer) Event(typ, actor, detail string, tc TraceContext) {
	if o == nil {
		return
	}
	o.Events.Append(typ, actor, detail, tc)
}

// M returns the observer's metrics registry (nil when disabled; the nil
// registry hands out nil handles that ignore updates).
func (o *Observer) M() *Metrics {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// PublishDropped copies the tracer's and event log's ring-eviction
// tallies into the obs.dropped.{spans,events} gauges, so exporters see
// at scrape time how much telemetry the rings have shed.
func (o *Observer) PublishDropped() {
	if o == nil || o.Metrics == nil {
		return
	}
	o.Metrics.Gauge(ObsDroppedSpans).Set(o.Tracer.Dropped())
	o.Metrics.Gauge(ObsDroppedEvents).Set(o.Events.Dropped())
}
