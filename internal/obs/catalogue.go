package obs

import (
	"fmt"
	"strings"
)

// This file is the telemetry contract: every metric family and every
// span the repository emits is declared here, once. Emitters and
// readers hold the descriptors below instead of name strings, so a name
// nobody declared does not compile, entities travel as label values and
// are never spliced into (or parsed out of) a name, and the README
// reference table is generated from the same declarations.

// Kind is a metric family's type.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// maxLabels bounds a family's label keys (the registry keys children by
// a fixed-size array of label values).
const maxLabels = 2

// Desc declares one metric family. The fields are read-only outside
// this file; only descriptors declared here resolve to live handles.
type Desc struct {
	Name   string
	Kind   Kind
	Unit   string
	Labels []string
	Help   string

	id int // 1-based position in the catalogue; 0 = not catalogued
}

// CounterDesc, GaugeDesc and HistogramDesc type a descriptor by kind, so
// asking the registry for a gauge handle of a counter does not compile.
type (
	CounterDesc   Desc
	GaugeDesc     Desc
	HistogramDesc Desc
)

// Family is any kind-typed descriptor (readers that walk a whole family
// accept all three).
type Family interface{ desc() *Desc }

func (d *CounterDesc) desc() *Desc   { return (*Desc)(d) }
func (d *GaugeDesc) desc() *Desc     { return (*Desc)(d) }
func (d *HistogramDesc) desc() *Desc { return (*Desc)(d) }

var (
	metricCatalogue []*Desc
	metricByName    = map[string]*Desc{}
)

func declare(kind Kind, name, unit, help string, labels []string) *Desc {
	if len(labels) > maxLabels || metricByName[name] != nil {
		panic("obs: " + name + " is declared twice or with more than maxLabels label keys")
	}
	d := &Desc{Name: name, Kind: kind, Unit: unit, Labels: labels, Help: help, id: len(metricCatalogue) + 1}
	metricCatalogue = append(metricCatalogue, d)
	metricByName[name] = d
	return d
}

func counter(name, unit, help string, labels ...string) *CounterDesc {
	return (*CounterDesc)(declare(KindCounter, name, unit, help, labels))
}

func gauge(name, unit, help string, labels ...string) *GaugeDesc {
	return (*GaugeDesc)(declare(KindGauge, name, unit, help, labels))
}

func histogram(name, unit, help string, labels ...string) *HistogramDesc {
	return (*HistogramDesc)(declare(KindHistogram, name, unit, help, labels))
}

// Catalogue returns every declared metric family in declaration order.
func Catalogue() []*Desc { return metricCatalogue }

// Lookup returns the family declared under name, or nil (how a reader of
// exported telemetry — a scrape, a JSON snapshot, a decoded bundle —
// checks it against the contract).
func Lookup(name string) *Desc { return metricByName[name] }

// Metric families, grouped by emitting layer.
var (
	// fleet.Meter: traffic crossing the wrapped transport.Messenger.
	WireMsgs      = counter("wire.msgs", "1", "messages sent through the metered transport")
	WireBytes     = counter("wire.bytes", "B", "request plus reply bytes through the metered transport")
	WireMsgsKind  = counter("wire.msgs.kind", "1", "messages by wire message kind", "kind")
	WireBytesKind = counter("wire.bytes.kind", "B", "request plus reply bytes by wire message kind", "kind")

	// core: the ME↔ME migration stream.
	WireBytesSaved         = counter("wire.bytes.saved", "B", "bytes DEFLATE removed from migration streams before sealing")
	WANCompressRatio       = histogram("wan.compress.ratio", "permille", "compressed/input size of one migration stream (1000 = incompressible)")
	WANCompressRatioLink   = histogram("wan.compress.ratio.link", "permille", "stream compression ratio by WAN link", "link")
	MESessionResumed       = counter("me.session.resumed", "1", "attested sessions resumed, source and destination side")
	MESessionResumeHit     = counter("me.session.resume.hit", "1", "offers answered from a cached session (no quote, no IAS)")
	MESessionResumeMiss    = counter("me.session.resume.miss", "1", "offers that found no usable cached session")
	MESessionResumeRefused = counter("me.session.resume.refused", "1", "resume attempts a destination refused")
	MESessionEvicted       = counter("me.session.evicted", "1", "destination sessions evicted by the table bound")
	MEStreamRxEvicted      = counter("me.stream.rx.evicted", "1", "destination reassembly states evicted by the table bound")
	MEStreamRxAborted      = counter("me.stream.rx.aborted", "1", "streams ended by an authenticated migrate-abort")

	// transport.WANLink.
	WANLinkMsgs    = counter("wan.link.msgs", "1", "exchanges a WAN link carried", "link")
	WANLinkLost    = counter("wan.link.lost", "1", "exchanges the link's loss model dropped", "link")
	WANLinkRefused = counter("wan.link.refused", "1", "exchanges refused while the link was down", "link")
	WANLinkErrors  = counter("wan.link.errors", "1", "exchanges whose far side returned an error", "link")
	WANLinkDown    = gauge("wan.link.down", "bool", "1 while the link is partitioned", "link")

	// pserepl: quorum operations and per-replica votes.
	QuorumIncrement   = counter("quorum.increment", "1", "replicated counter increments")
	QuorumCreate      = counter("quorum.create", "1", "replicated counter creations")
	QuorumDestroyRead = counter("quorum.destroy-read", "1", "replicated destroy-and-read arbitrations")
	QuorumEscrowPut   = counter("quorum.escrow-put", "1", "escrow records written to the rack")
	QuorumEscrowGet   = counter("quorum.escrow-get", "1", "escrow records read from the rack")
	QuorumVoteLatency = histogram("quorum.vote.latency", "ns", "one replica's vote round trip", "group", "replica")
	QuorumVoteErrors  = counter("quorum.vote.errors", "1", "votes that failed (timeout, unsynced replica, bad reply)", "group", "replica")

	// federation: the cross-DC escrow mirror.
	MirrorEnqueueTotal = counter("mirror.enqueue.total", "1", "escrow puts queued for mirroring")
	MirrorFlushTotal   = counter("mirror.flush.total", "1", "mirror flushes attempted")
	MirrorFlushErrors  = counter("mirror.flush.errors", "1", "mirror flushes that failed")
	MirrorFlushLast    = gauge("mirror.flush.last_unix_ns", "unix-ns", "instant of the last successful flush (the RPO anchor)")
	MirrorPushTotal    = counter("mirror.push.total", "1", "per-instance mirror syncs attempted")
	MirrorPushErrors   = counter("mirror.push.errors", "1", "per-instance mirror syncs that failed")
	MirrorPushLatency  = histogram("mirror.push.latency", "ns", "one per-instance mirror sync")
	MirrorPushLast     = gauge("mirror.push.last_unix_ns", "unix-ns", "instant of the last record pushed")
	MirrorDirty        = gauge("mirror.dirty", "1", "instances waiting for the next flush")
	MirrorKnown        = gauge("mirror.known", "1", "instances the mirror has pushed at least once")

	// fleet: plan execution.
	FleetMigration        = counter("fleet.migration", "1", "migrations by final journal status", "status")
	FleetMigrationLatency = histogram("fleet.migration.latency", "ns", "completed migration, schedule to DONE")
	FleetRecovery         = counter("fleet.recovery", "1", "recoveries by final journal status", "status")
	FleetRecoveryLatency  = histogram("fleet.recovery.latency", "ns", "completed kill→recovered resurrection")

	// obs/analyze: the unavailability ledger and the plane itself.
	UnavailFreezeWindow   = histogram("unavail.freeze.window", "ns", "per-enclave lib.freeze start → lib.resume end")
	UnavailFreezeMax      = gauge("unavail.freeze.max_ns", "ns", "longest freeze window seen")
	UnavailRecoveryWindow = histogram("unavail.recovery.window", "ns", "per-enclave recovery root start → lib.recover end")
	UnavailRecoveryMax    = gauge("unavail.recovery.max_ns", "ns", "longest recovery window seen")
	ObsDroppedSpans       = gauge("obs.dropped.spans", "1", "spans the tracer ring has evicted")
	ObsDroppedEvents      = gauge("obs.dropped.events", "1", "audit events the event ring has evicted")

	// obs/health and obs/flight: what the rule pass publishes.
	SLOViolations          = gauge("slo.violations", "1", "objectives violated at the last rule pass")
	HealthState            = gauge("health.state", "level", "worst entity state (0 healthy, 1 degraded, 2 critical)")
	HealthStateEntity      = gauge("health.state.entity", "level", "one watched entity's state", "kind", "name")
	HealthEntitiesDegraded = gauge("health.entities.degraded", "1", "entities currently degraded")
	HealthEntitiesCritical = gauge("health.entities.critical", "1", "entities currently critical")
	FlightBundles          = counter("flight.bundles", "1", "flight bundles captured")
	FlightLast             = gauge("flight.last_unix_ns", "unix-ns", "instant of the last capture")
	FlightBytes            = gauge("flight.bytes", "B", "encoded size of the last bundle")

	// bench / cmd/benchfig: offline experiment samples.
	Fig3              = histogram("fig3", "ns", "Fig. 3 counter-operation samples", "op", "variant")
	Fig4              = histogram("fig4", "ns", "Fig. 4 init and sealing samples", "op", "variant")
	MigrationEndToEnd = histogram("migration.end-to-end.overhead", "ns", "§VII-B single-enclave migration samples")
	SimOp             = gauge("sim.op", "1", "operations the latency model charged", "op")
)

// Migration/recovery phases, in narrative order. A phase names what the
// protocol is doing while the enclave's time is being spent there.
const (
	PhaseFreeze      = "freeze"      // seal final state, destroy counters
	PhaseAttest      = "attest"      // offer/accept: attestation + channel
	PhaseTransfer    = "transfer"    // sealed Table I/II state on the wire
	PhaseResume      = "resume"      // unseal + rebuild at the destination
	PhaseCommit      = "commit"      // done handshake, source release
	PhaseEscrow      = "escrow"      // rack escrow reads/writes, mirroring
	PhaseBinding     = "binding"     // rollback-binding arbitration
	PhaseWAN         = "wan"         // cross-site link traversal
	PhaseQuorum      = "quorum"      // replicated counter operations
	PhaseRecover     = "recover"     // resurrect-from-escrow path
	PhaseOrchestrate = "orchestrate" // fleet/federation coordination + gaps
	PhaseOther       = "other"       // anything unrecognized
)

// SpanDesc declares one span: its name and the phase the critical-path
// partition books its self time to.
type SpanDesc struct {
	Name  string
	Phase string
}

var (
	spanCatalogue []*SpanDesc
	phaseBySpan   = map[string]string{}
)

func span(name, phase string) *SpanDesc {
	d := &SpanDesc{Name: name, Phase: phase}
	spanCatalogue = append(spanCatalogue, d)
	phaseBySpan[name] = phase
	return d
}

// SpanCatalogue returns every declared span in declaration order.
func SpanCatalogue() []*SpanDesc { return spanCatalogue }

// PhaseOf classifies a span name; a name the catalogue does not declare
// (an old bundle, a foreign tracer) is PhaseOther.
func PhaseOf(name string) string {
	if p, ok := phaseBySpan[name]; ok {
		return p
	}
	return PhaseOther
}

// Spans, in Fig. 2 order, then recovery, replication and orchestration.
var (
	SpanLibFreeze          = span("lib.freeze", PhaseFreeze)
	SpanMEMigrateOut       = span("me.migrate-out", PhaseTransfer)
	SpanMETransfer         = span("me.transfer", PhaseTransfer)
	SpanMEOffer            = span("me.offer", PhaseAttest)
	SpanMEData             = span("me.data", PhaseTransfer)
	SpanMEDone             = span("me.done", PhaseCommit)
	SpanMEHandleOffer      = span("me.handle-migrate-offer", PhaseAttest)
	SpanMEHandleData       = span("me.handle-migrate-data", PhaseTransfer)
	SpanMEHandleDone       = span("me.handle-migrate-done", PhaseCommit)
	SpanMEHandleAbort      = span("me.handle-migrate-abort", PhaseTransfer)
	SpanLibResume          = span("lib.resume", PhaseResume)
	SpanWANHop             = span("wan.hop", PhaseWAN)
	SpanLibRecover         = span("lib.recover", PhaseRecover)
	SpanEscrowGet          = span("escrow.get", PhaseEscrow)
	SpanBindingWin         = span("binding.win", PhaseBinding)
	SpanMirrorPush         = span("mirror.push", PhaseEscrow)
	SpanMirrorHandleEnsure = span("mirror.handle-fed-ensure", PhaseEscrow)
	SpanMirrorHandlePush   = span("mirror.handle-fed-push", PhaseEscrow)
	SpanQuorumIncrement    = span("quorum.increment", PhaseQuorum)
	SpanQuorumCreate       = span("quorum.create", PhaseQuorum)
	SpanQuorumDestroyRead  = span("quorum.destroy-read", PhaseQuorum)
	SpanQuorumEscrowPut    = span("quorum.escrow-put", PhaseQuorum)
	SpanQuorumEscrowGet    = span("quorum.escrow-get", PhaseQuorum)
	SpanFleetMigrate       = span("fleet.migrate", PhaseOrchestrate)
	SpanFleetRecover       = span("fleet.recover", PhaseOrchestrate)
	SpanFedRecover         = span("fed.recover", PhaseOrchestrate)
)

// Reference renders the catalogue as the Markdown tables README embeds
// between its telemetry-reference markers (TestREADMEReference fails
// when the two drift).
func Reference() string {
	var b strings.Builder
	b.WriteString("| Metric | Kind | Unit | Labels | Meaning |\n|---|---|---|---|---|\n")
	for _, d := range metricCatalogue {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n", d.Name, d.Kind, d.Unit, strings.Join(d.Labels, ", "), d.Help)
	}
	b.WriteString("\n| Span | Phase |\n|---|---|\n")
	for _, d := range spanCatalogue {
		fmt.Fprintf(&b, "| `%s` | %s |\n", d.Name, d.Phase)
	}
	return b.String()
}
