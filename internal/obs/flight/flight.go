// Package flight is the fleet's black-box flight recorder. The passive
// telemetry rings (internal/obs) evict old spans and events, so by the
// time a human investigates an incident the evidence is usually gone;
// this package captures a self-contained, tagged+versioned binary bundle
// — recent spans and audit events, the open-span set, a full metrics
// snapshot, SLO verdicts, health states, and the fleet journal tail — at
// the exact moment a trigger fires: an SLO violation, a security audit
// event, a chaos invariant breach, a fleet plan failure, or an entity
// reaching critical health.
//
// Bundles decode with the same hostile-input discipline as the rest of
// the repo's wire formats (wirec length clamps, fuzzed decoder): a black
// box pulled off a crashed deployment must never be able to crash the
// tool reading it.
package flight

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/health"
	"repro/internal/wirec"
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

// Flight bundle codec: tag 0xBF (0xB* block: obs). Version 2 carries
// the metrics as one labelled series list; version 1 (three name→value
// maps with entities spliced into the names) still decodes, so archived
// bundles stay readable. Every other section is the same in both.
const (
	tagFlightBundle     byte = 0xBF
	flightBundleVersion byte = 2
)

// ErrBundleFormat reports malformed or truncated bundle bytes.
var ErrBundleFormat = errors.New("flight: malformed bundle")

const (
	sloFlagViolated byte = 1 << 0
	sloFlagMissing  byte = 1 << 1
)

var kindCodes = []obs.Kind{obs.KindCounter, obs.KindGauge, obs.KindHistogram}

// Encode serializes the bundle.
func (b *Bundle) Encode() []byte {
	out := make([]byte, 0, 4096)
	out = wirec.AppendHeader(out, tagFlightBundle, flightBundleVersion)
	out = wirec.AppendU64(out, uint64(b.CreatedUnixNs))
	out = wirec.AppendString(out, b.Trigger.Kind)
	out = wirec.AppendString(out, b.Trigger.Actor)
	out = wirec.AppendString(out, b.Trigger.Detail)
	out = wirec.AppendU64(out, uint64(b.Trigger.UnixNs))
	out = wirec.AppendString(out, b.Note)

	out = wirec.AppendU32(out, uint32(len(b.Health)))
	for _, h := range b.Health {
		out = wirec.AppendString(out, h.Kind)
		out = wirec.AppendString(out, h.Name)
		out = append(out, byte(h.State))
		out = wirec.AppendString(out, h.Reason)
		out = wirec.AppendU64(out, uint64(h.Since.UnixNano()))
	}

	out = wirec.AppendU32(out, uint32(len(b.Spans)))
	for _, sp := range b.Spans {
		out = wirec.AppendString(out, sp.Name)
		out = wirec.AppendString(out, sp.Site)
		out = wirec.AppendU64(out, sp.TraceID)
		out = wirec.AppendU64(out, sp.SpanID)
		out = wirec.AppendU64(out, sp.ParentID)
		out = wirec.AppendU64(out, uint64(sp.Start.UnixNano()))
		out = wirec.AppendU64(out, uint64(sp.Dur))
	}

	out = wirec.AppendU32(out, uint32(len(b.Open)))
	for _, sp := range b.Open {
		out = wirec.AppendString(out, sp.Name)
		out = wirec.AppendU64(out, sp.TraceID)
		out = wirec.AppendU64(out, sp.SpanID)
		out = wirec.AppendU64(out, sp.ParentID)
		out = wirec.AppendU64(out, uint64(sp.Start.UnixNano()))
	}

	var events []byte
	for _, e := range b.Events {
		events = append(events, e.Encode()...)
	}
	out = wirec.AppendBytes(out, events)

	out = wirec.AppendU32(out, uint32(len(b.Metrics.Series)))
	for _, sr := range b.Metrics.Series {
		out = wirec.AppendString(out, sr.Name)
		out = append(out, byte(slices.Index(kindCodes, sr.Kind)))
		out = wirec.AppendU32(out, uint32(len(sr.Labels)))
		for _, k := range slices.Sorted(maps.Keys(sr.Labels)) {
			out = wirec.AppendString(out, k)
			out = wirec.AppendString(out, sr.Labels[k])
		}
		out = wirec.AppendU64(out, uint64(sr.Value))
		if sr.Kind == obs.KindHistogram {
			out = appendHistogram(out, sr.Hist)
		}
	}

	out = wirec.AppendU32(out, uint32(len(b.SLO)))
	for _, r := range b.SLO {
		out = wirec.AppendString(out, r.Rule)
		out = wirec.AppendString(out, r.Reason)
		out = wirec.AppendU64(out, uint64(r.Actual))
		out = wirec.AppendU64(out, uint64(r.Bound))
		var flags byte
		if r.Violated() {
			flags |= sloFlagViolated
		}
		if r.Missing {
			flags |= sloFlagMissing
		}
		out = append(out, flags)
	}

	return wirec.AppendBytes(out, b.Journal)
}

func appendHistogram(out []byte, h *obs.HistogramSnapshot) []byte {
	if h == nil {
		h = &obs.HistogramSnapshot{}
	}
	out = wirec.AppendU64(out, uint64(h.Count))
	for _, d := range []time.Duration{h.Sum, h.Mean, h.P50, h.P99, h.P999, h.Max} {
		out = wirec.AppendU64(out, uint64(d))
	}
	return out
}

func readHistogram(rd *wirec.Reader) *obs.HistogramSnapshot {
	return &obs.HistogramSnapshot{
		Count: int64(rd.U64()),
		Sum:   time.Duration(rd.U64()),
		Mean:  time.Duration(rd.U64()),
		P50:   time.Duration(rd.U64()),
		P99:   time.Duration(rd.U64()),
		P999:  time.Duration(rd.U64()),
		Max:   time.Duration(rd.U64()),
	}
}

// count reads a declared entry count and clamps it against the
// remaining input before anything is allocated for it, so hostile bytes
// can neither bomb the decoder nor make it allocate past the input size.
func count(rd *wirec.Reader, what string, minEntry int) (uint32, error) {
	n := rd.U32()
	if !rd.CanHold(n, minEntry) {
		return 0, fmt.Errorf("%w: %s count %d exceeds input", ErrBundleFormat, what, n)
	}
	return n, nil
}

// DecodeBundle parses an encoded bundle of either version.
func DecodeBundle(raw []byte) (*Bundle, error) {
	version := flightBundleVersion
	if len(raw) >= 2 && raw[1] == 1 {
		version = 1
	}
	rd := wirec.NewReader(raw)
	if !rd.Header(tagFlightBundle, version) {
		return nil, fmt.Errorf("%w: %v", ErrBundleFormat, rd.Err())
	}
	var b Bundle
	b.CreatedUnixNs = int64(rd.U64())
	b.Trigger.Kind = rd.String()
	b.Trigger.Actor = rd.String()
	b.Trigger.Detail = rd.String()
	b.Trigger.UnixNs = int64(rd.U64())
	b.Note = rd.String()

	n, err := count(rd, "health", 4+4+1+4+8)
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < n && rd.Err() == nil; i++ {
		var h health.EntityHealth
		h.Kind = rd.String()
		h.Name = rd.String()
		h.State = health.State(rd.U8())
		h.Reason = rd.String()
		h.Since = time.Unix(0, int64(rd.U64()))
		b.Health = append(b.Health, h)
	}

	if n, err = count(rd, "span", 4+4+5*8); err != nil {
		return nil, err
	}
	for i := uint32(0); i < n && rd.Err() == nil; i++ {
		var sp obs.Span
		sp.Name = rd.String()
		sp.Site = rd.String()
		sp.TraceID = rd.U64()
		sp.SpanID = rd.U64()
		sp.ParentID = rd.U64()
		sp.Start = time.Unix(0, int64(rd.U64()))
		sp.Dur = time.Duration(rd.U64())
		b.Spans = append(b.Spans, sp)
	}

	if n, err = count(rd, "open-span", 4+4*8); err != nil {
		return nil, err
	}
	for i := uint32(0); i < n && rd.Err() == nil; i++ {
		var sp obs.OpenSpan
		sp.Name = rd.String()
		sp.TraceID = rd.U64()
		sp.SpanID = rd.U64()
		sp.ParentID = rd.U64()
		sp.Start = time.Unix(0, int64(rd.U64()))
		b.Open = append(b.Open, sp)
	}

	if events := rd.Bytes(); rd.Err() == nil && len(events) > 0 {
		evs, err := obs.DecodeEvents(events)
		if err != nil {
			return nil, fmt.Errorf("%w: events: %v", ErrBundleFormat, err)
		}
		b.Events = evs
	}

	if version == 1 {
		err = decodeV1Metrics(rd, &b)
	} else {
		err = decodeMetrics(rd, &b)
	}
	if err != nil {
		return nil, err
	}

	// Objective results, in both versions: rule name, the metric read,
	// actual, bound, flags. The entity is implied (slo/<rule>) and an
	// objective's level is Degraded exactly when it is violated.
	if n, err = count(rd, "slo", 4+4+2*8+1); err != nil {
		return nil, err
	}
	for i := uint32(0); i < n && rd.Err() == nil; i++ {
		var r health.Result
		r.Rule = rd.String()
		r.Entity = health.Entity{Kind: "slo", Name: r.Rule}
		r.Reason = rd.String()
		r.Actual = time.Duration(rd.U64())
		r.Bound = time.Duration(rd.U64())
		flags := rd.U8()
		if flags&sloFlagViolated != 0 {
			r.Level = health.Degraded
		}
		r.Missing = flags&sloFlagMissing != 0
		b.SLO = append(b.SLO, r)
	}

	if j := rd.Bytes(); len(j) > 0 {
		b.Journal = append([]byte(nil), j...)
	}
	if err := rd.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBundleFormat, err)
	}
	return &b, nil
}

// decodeMetrics reads the version-2 metrics section: one series list.
func decodeMetrics(rd *wirec.Reader, b *Bundle) error {
	n, err := count(rd, "series", 4+1+4+8)
	if err != nil {
		return err
	}
	for i := uint32(0); i < n && rd.Err() == nil; i++ {
		sr := obs.Series{Name: rd.String()}
		kind := rd.U8()
		if int(kind) >= len(kindCodes) {
			return fmt.Errorf("%w: series kind %d", ErrBundleFormat, kind)
		}
		sr.Kind = kindCodes[kind]
		labels, err := count(rd, "label", 4+4)
		if err != nil {
			return err
		}
		for j := uint32(0); j < labels && rd.Err() == nil; j++ {
			if sr.Labels == nil {
				sr.Labels = map[string]string{}
			}
			k := rd.String()
			sr.Labels[k] = rd.String()
		}
		sr.Value = int64(rd.U64())
		if sr.Kind == obs.KindHistogram {
			sr.Hist = readHistogram(rd)
		}
		b.Metrics.Series = append(b.Metrics.Series, sr)
	}
	return nil
}

// decodeV1Metrics reads the version-1 metrics section: counters, gauges
// and histograms as three name→value maps, entities spliced into the
// names, no labels.
func decodeV1Metrics(rd *wirec.Reader, b *Bundle) error {
	for _, kind := range kindCodes {
		minEntry := 4 + 8
		if kind == obs.KindHistogram {
			minEntry = 4 + 7*8
		}
		n, err := count(rd, string(kind), minEntry)
		if err != nil {
			return err
		}
		for i := uint32(0); i < n && rd.Err() == nil; i++ {
			sr := obs.Series{Name: rd.String(), Kind: kind}
			if kind == obs.KindHistogram {
				sr.Hist = readHistogram(rd)
				sr.Value = sr.Hist.Count
			} else {
				sr.Value = int64(rd.U64())
			}
			b.Metrics.Series = append(b.Metrics.Series, sr)
		}
	}
	return nil
}
