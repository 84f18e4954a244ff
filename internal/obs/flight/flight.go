// Package flight is the fleet's black-box flight recorder. The passive
// telemetry rings (internal/obs) evict old spans and events, so by the
// time a human investigates an incident the evidence is usually gone;
// this package captures a self-contained bundle — recent spans and audit
// events, the open-span set, a full metrics snapshot, SLO verdicts,
// health states, and the fleet journal tail — at the exact moment a
// trigger fires: an SLO violation, a security audit event, a chaos
// invariant breach, a fleet plan failure, or an entity reaching critical
// health.
//
// A bundle is an export a person or a tool reads, not a message between
// machines, so its one encoding is JSON. The decoder is fuzzed: a black
// box pulled off a crashed deployment must never be able to crash the
// tool reading it.
package flight

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/health"
)

// Trigger kinds.
const (
	TriggerSLOViolation   = "slo-violation"
	TriggerSecurityEvent  = "security-event"
	TriggerChaosViolation = "chaos-violation"
	TriggerPlanFailure    = "plan-failure"
	TriggerHealthCritical = "health-critical"
	TriggerManual         = "manual"
)

// Trigger records why a bundle was captured.
type Trigger struct {
	// Kind is one of the Trigger* constants.
	Kind string `json:"kind"`
	// Actor is the component that tripped the recorder.
	Actor string `json:"actor,omitempty"`
	// Detail is free-form context (the violated objective, the audit
	// event detail, the failed plan).
	Detail string `json:"detail,omitempty"`
	// UnixNs is the trigger instant.
	UnixNs int64 `json:"unix_ns"`
}

// Bundle is one black-box capture.
type Bundle struct {
	// CreatedUnixNs is the capture instant.
	CreatedUnixNs int64 `json:"created_unix_ns"`
	// Trigger is why the capture happened.
	Trigger Trigger `json:"trigger"`
	// Note is optional operator context.
	Note string `json:"note,omitempty"`
	// Health is the per-entity state set at capture time.
	Health []health.EntityHealth `json:"health,omitempty"`
	// Spans is the tail of the finished-span ring (most recent last).
	Spans []obs.Span `json:"spans,omitempty"`
	// Open is the in-flight span set — what was still running when the
	// trigger fired.
	Open []obs.OpenSpan `json:"open,omitempty"`
	// Events is the tail of the audit event ring.
	Events []obs.AuditEvent `json:"events,omitempty"`
	// Metrics is the full registry snapshot.
	Metrics obs.Snapshot `json:"metrics"`
	// SLO is the most recent rule pass's objective results.
	SLO []health.Result `json:"slo,omitempty"`
	// Journal is an opaque encoded fleet journal tail
	// (fleet.DecodeJournal reads it); empty when no planner is attached.
	Journal []byte `json:"journal,omitempty"`
}

// CaptureOpts bounds and enriches a capture.
type CaptureOpts struct {
	// MaxSpans / MaxEvents bound how much ring tail the bundle carries
	// (defaults 512 each; <0 means none).
	MaxSpans  int
	MaxEvents int
	// Health, SLO, Journal, Note are attached verbatim.
	Health  []health.EntityHealth
	SLO     []health.Result
	Journal []byte
	Note    string
}

// Capture snapshots o into a bundle. now is the capture instant; a zero
// trig.UnixNs is stamped with it.
func Capture(o *obs.Observer, trig Trigger, now time.Time, opts CaptureOpts) *Bundle {
	if trig.UnixNs == 0 {
		trig.UnixNs = now.UnixNano()
	}
	if opts.MaxSpans == 0 {
		opts.MaxSpans = 512
	}
	if opts.MaxEvents == 0 {
		opts.MaxEvents = 512
	}
	b := &Bundle{
		CreatedUnixNs: now.UnixNano(),
		Trigger:       trig,
		Note:          opts.Note,
		Health:        opts.Health,
		SLO:           opts.SLO,
		Journal:       opts.Journal,
	}
	if o != nil {
		b.Spans = tail(o.Tracer.Spans(), opts.MaxSpans)
		b.Open = o.Tracer.OpenSpans()
		b.Events = tail(o.Events.Events(), opts.MaxEvents)
		b.Metrics = o.M().Snapshot()
	}
	return b
}

// tail keeps the newest max entries of a ring dump (max < 0: none).
func tail[T any](s []T, max int) []T {
	if max < 0 {
		return nil
	}
	return s[len(s)-min(len(s), max):]
}

// ErrBundleFormat reports bytes that are not an encoded bundle.
var ErrBundleFormat = errors.New("flight: malformed bundle")

// Encode serializes the bundle as JSON — the one bundle encoding, read
// by DecodeBundle, served at /flight and written to bundle files. Two
// encodings of one bundle are byte-identical: encoding/json sorts the
// metric label maps.
func (b *Bundle) Encode() []byte {
	// Marshal cannot fail here: no field is a channel, func or float,
	// and every time.Time comes from a clock or a decoded RFC 3339 text.
	raw, _ := json.Marshal(b)
	return raw
}

// DecodeBundle parses an encoded bundle. A JSON document without a
// trigger kind is not a bundle and is refused.
func DecodeBundle(raw []byte) (*Bundle, error) {
	var b Bundle
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBundleFormat, err)
	}
	if b.Trigger.Kind == "" {
		return nil, fmt.Errorf("%w: no trigger kind", ErrBundleFormat)
	}
	return &b, nil
}
