package fleet

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/transport"
)

// Execution errors.
var (
	// ErrRestoreOnLiveDestination reports a restore failure on a
	// destination whose Migration Enclave is still alive. The orchestrator
	// refuses to redirect in that case: the destination ME may hold a
	// deliverable copy of the state, and re-sending it elsewhere would
	// open a two-copy (fork) window. The migration is reported failed
	// instead, with the data parked safely at the MEs.
	ErrRestoreOnLiveDestination = errors.New("fleet: restore failed on live destination; not redirecting (single-delivery preserved)")
	// ErrSourceNotFrozen reports a completed transfer whose source library
	// did not verify frozen — a violated invariant, never expected.
	ErrSourceNotFrozen = errors.New("fleet: source library not frozen after transfer")
	// ErrAttemptsExhausted reports a migration that used up its attempt
	// budget. The source stays frozen and the data is held at the source
	// Migration Enclave for later redirection — safe, but not completed.
	ErrAttemptsExhausted = errors.New("fleet: delivery attempts exhausted")
	// ErrNoReplicaTarget reports a drain/evacuate whose source hosts a
	// counter replica but no eligible machine can take the role over
	// (every target is a source, dead, or already hosts a replica).
	// Draining anyway would shrink the replica group below 2f+1, so the
	// plan is refused before any enclave moves.
	ErrNoReplicaTarget = errors.New("fleet: no machine available to take over the source's counter-replica role")
)

// EventType classifies orchestrator progress events.
type EventType int

// Event types.
const (
	// EventStart: a worker picked up the migration.
	EventStart EventType = iota + 1
	// EventDelivered: migration data reached the destination ME.
	EventDelivered
	// EventRetry: a delivery attempt failed; the worker will retry.
	EventRetry
	// EventRedirect: the worker re-targeted the migration to a new
	// destination after the planned one became unreachable.
	EventRedirect
	// EventCompleted: restore verified on the destination, source frozen.
	EventCompleted
	// EventFailed: the migration terminated without completing.
	EventFailed
	// EventCanceled: the context was canceled before completion (the
	// migration may never have started).
	EventCanceled
	// EventReplicaHandoff: a source machine's counter-replica role was
	// handed to a target machine before the drain (Source/Dest name the
	// machines; App is empty).
	EventReplicaHandoff
	// EventRecovered: a dead source's enclave was resurrected on Dest
	// from the rack escrow (recovery mode).
	EventRecovered
)

// Event is one progress notification, emitted synchronously from worker
// goroutines (handlers must be fast and concurrency-safe).
type Event struct {
	Type    EventType
	App     string
	Source  string
	Dest    string
	Attempt int
	// Link names the federation WAN link the destination is reached
	// through (empty for intra-DC destinations).
	Link string
	Err  error
}

// Config tunes the orchestrator.
type Config struct {
	// Workers bounds the groups (streams; recoveries) in progress at once,
	// and sizes each group's freeze pool and restore pool: a group of n
	// members freezes and restores min(Workers, n) of them at a time.
	// Default 8.
	Workers int
	// BatchSize groups migrations that share a (source, destination)
	// pair into streams of up to this many enclaves
	// (core.MigrationEnclave.BeginBatch): one attested session — resumed
	// when cached — and one pipelined chunk stream amortize the per-
	// migration protocol cost. Default 1: every migration is a stream of
	// one, the paper's Fig. 2 exchange.
	BatchSize int
	// MaxAttempts bounds delivery attempts per migration. Default 4.
	MaxAttempts int
	// RetryBackoff is the delay before the second attempt; it doubles
	// per attempt, capped at MaxBackoff. Defaults 5ms and 250ms.
	// Deliveries that traverse a WAN link back off from
	// wanBackoffFactor times this base. Retry timing is deterministic.
	RetryBackoff time.Duration
	MaxBackoff   time.Duration
	// Meter, when set, contributes wire-traffic totals to the report.
	Meter *Meter
	// OnEvent, when set, receives progress events.
	OnEvent func(Event)
	// SnapshotStore, when set, receives an encoded journal snapshot
	// after every recorded outcome and at plan end — durable progress an
	// orchestrator that crashes mid-plan can be resumed from
	// (DecodeJournal + ResumeParked), instead of only plan-end
	// snapshots. Writes are best-effort: a failing store never fails the
	// plan.
	SnapshotStore core.Storage
	// LinkCap bounds, per federation WAN link (by link name), the groups
	// that are between their first freeze and their last restore: a
	// cross-DC drain must not stampede a constrained link — or the
	// destination's cores — with the whole worker pool. A group opens its
	// stream before it takes a slot and flushes its DONE confirmations
	// after it gave the slot back; those two round trips carry no migration
	// data. The restores stay inside the slot: in a CPU-bound drain it is
	// also the limit on work in progress, and letting the next group freeze
	// while this one still restores lengthens every migration. Zero/absent
	// means no per-link cap.
	LinkCap map[string]int
	// Obs, when set, receives fleet telemetry: one root span per
	// migration ("fleet.migrate") and recovery ("fleet.recover") whose
	// trace context is threaded through freeze, transfer, WAN hops, and
	// restore, plus completion latency histograms
	// ("fleet.migration.latency", "fleet.recovery.latency") and outcome
	// counters. Nil keeps all instrumentation as no-ops.
	Obs *obs.Observer
}

// latencyConfidence is the CI level of a report's latency summary (the
// paper's level).
const latencyConfidence = 0.99

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 1
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 5 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 250 * time.Millisecond
	}
	return c
}

// Report is the outcome of one executed plan.
type Report struct {
	Planned   int
	Completed int
	Failed    int
	Canceled  int
	// Wall is the end-to-end wall time of the whole operation.
	Wall time.Duration
	// Throughput is completed migrations per second of wall time.
	Throughput float64
	// Latency summarizes per-migration latency (ms, mean ± CI); valid
	// when at least two migrations completed.
	Latency    stats.Summary
	HasLatency bool
	// WireBytes/WireMessages are the traffic the configured Meter
	// observed during this run (a start-to-end delta: plans running
	// concurrently with a shared Meter each count the overlap window's
	// traffic).
	WireBytes    int64
	WireMessages int64
	// ReplicaHandoffs counts counter-replica roles handed off source
	// machines before their enclaves moved.
	ReplicaHandoffs int
	// Journal holds the per-migration entries behind the aggregates.
	Journal *Journal
}

// String renders a one-look operations summary.
func (r *Report) String() string {
	s := fmt.Sprintf("%d planned: %d completed, %d failed, %d canceled in %s (%.1f migrations/s)",
		r.Planned, r.Completed, r.Failed, r.Canceled, r.Wall.Round(time.Millisecond), r.Throughput)
	if r.HasLatency {
		s += fmt.Sprintf("\nper-migration latency: %s ms", r.Latency)
	}
	if r.WireMessages > 0 {
		s += fmt.Sprintf("\nwire traffic: %d messages, %d bytes", r.WireMessages, r.WireBytes)
	}
	return s
}

// Orchestrator executes compiled plans against one data center.
type Orchestrator struct {
	dc  *cloud.DataCenter
	cfg Config

	// remoteMu guards the cross-DC bookkeeping below.
	remoteMu sync.Mutex
	// remotes remembers every remote destination any plan has named, by
	// ME address, so resumed migrations (ResumeParked) can resolve a
	// parked transfer's previous destination even when it lives in a
	// peer data center.
	remotes map[transport.Address]RemoteTarget
	// linkSlots are the per-link concurrency semaphores (LinkCap).
	linkSlots map[string]chan struct{}
}

// New creates an orchestrator for the data center.
func New(dc *cloud.DataCenter, cfg Config) *Orchestrator {
	return &Orchestrator{
		dc:        dc,
		cfg:       cfg.withDefaults(),
		remotes:   make(map[transport.Address]RemoteTarget),
		linkSlots: make(map[string]chan struct{}),
	}
}

// rememberRemotes records a plan's remote targets for later resolution
// (redirects, resumes) and returns the link label per target machine.
func (o *Orchestrator) rememberRemotes(rts []RemoteTarget) map[*cloud.Machine]string {
	links := make(map[*cloud.Machine]string)
	o.remoteMu.Lock()
	defer o.remoteMu.Unlock()
	for _, rt := range rts {
		if rt.Machine == nil {
			continue
		}
		o.remotes[rt.Machine.MEAddress()] = rt
		links[rt.Machine] = rt.Link
	}
	// Previously remembered remotes keep their labels (a resumed plan
	// has no RemoteTargets of its own).
	for _, rt := range o.remotes {
		if _, ok := links[rt.Machine]; !ok {
			links[rt.Machine] = rt.Link
		}
	}
	return links
}

// linkSlot returns the semaphore for a capped link (nil when uncapped).
func (o *Orchestrator) linkSlot(link string) chan struct{} {
	if link == "" {
		return nil
	}
	cap, ok := o.cfg.LinkCap[link]
	if !ok || cap <= 0 {
		return nil
	}
	o.remoteMu.Lock()
	defer o.remoteMu.Unlock()
	sem, ok := o.linkSlots[link]
	if !ok {
		sem = make(chan struct{}, cap)
		o.linkSlots[link] = sem
	}
	return sem
}

func (o *Orchestrator) emit(e Event) {
	if o.cfg.OnEvent != nil {
		o.cfg.OnEvent(e)
	}
}

// machineByAddress finds the machine whose ME listens on addr — in this
// data center, or among the remote destinations plans have named.
func (o *Orchestrator) machineByAddress(addr transport.Address) *cloud.Machine {
	for _, m := range o.dc.Machines() {
		if m.MEAddress() == addr {
			return m
		}
	}
	o.remoteMu.Lock()
	defer o.remoteMu.Unlock()
	if rt, ok := o.remotes[addr]; ok {
		return rt.Machine
	}
	return nil
}

// pickAlternate chooses a live replacement destination among the plan's
// targets, consulting the placement policy. Returns nil when no live
// alternative exists.
func (o *Orchestrator) pickAlternate(app *cloud.App, current *cloud.Machine, source *cloud.Machine, targets []*cloud.Machine, policy Policy) *cloud.Machine {
	var candidates []*cloud.Machine
	load := make(map[string]int)
	for _, t := range targets {
		if t.ID() == current.ID() || t.ID() == source.ID() {
			continue
		}
		if !t.ME.Enclave().Alive() {
			continue
		}
		candidates = append(candidates, t)
		load[t.ID()] = t.AppCount()
	}
	if len(candidates) == 0 {
		return nil
	}
	alt, err := policy.Pick(app, candidates, load)
	if err != nil {
		return nil
	}
	return alt
}

// matchesSentinel recognizes a core sentinel across transports: it
// survives only as message text when errors cross a TCP Messenger or
// are folded into ErrMigrationPending's detail.
func matchesSentinel(err, sentinel error) bool {
	return err != nil &&
		(errors.Is(err, sentinel) || strings.Contains(err.Error(), sentinel.Error()))
}

// isMigrationDone recognizes the source ME's already-completed refusal.
func isMigrationDone(err error) bool { return matchesSentinel(err, core.ErrMigrationDone) }

// isEnvelopeConsumed recognizes the destination's fetched-envelope
// tombstone refusal; completion is then decided by the source's record.
func isEnvelopeConsumed(err error) bool { return matchesSentinel(err, core.ErrEnvelopeConsumed) }

// wanBackoffFactor scales the backoff base of deliveries that traverse
// a WAN link: loss and partitions on an inter-DC link clear on longer
// scales than intra-DC blips, and hammering a lossy link just loses more.
const wanBackoffFactor = 4

// backoff waits before retry attempt (attempt >= 2), honoring ctx: the
// base delay, doubled per further attempt, capped at MaxBackoff.
func (o *Orchestrator) backoff(ctx context.Context, attempt int, wan bool) error {
	d := o.cfg.RetryBackoff
	if wan {
		d *= wanBackoffFactor
	}
	for i := 2; i < attempt; i++ {
		d *= 2
		if d >= o.cfg.MaxBackoff {
			d = o.cfg.MaxBackoff
			break
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// acquireLink takes one concurrency slot on a capped WAN link (no-op
// for uncapped links and intra-DC destinations), honoring ctx while
// waiting. The returned release must be called exactly once.
func (o *Orchestrator) acquireLink(ctx context.Context, link string) (func(), error) {
	sem := o.linkSlot(link)
	if sem == nil {
		return func() {}, nil
	}
	select {
	case sem <- struct{}{}:
		return func() { <-sem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// stateBytes computes the canonical encoded size of the app's Table I
// payload (active-counter table + MSK). The real envelope's size varies
// by a few dozen bytes with the digits of the secret values, which the
// orchestrator cannot read; key material is sized worst-case here so the
// figure is a stable near-upper bound.
func stateBytes(app *cloud.App) int {
	var data core.MigrationData
	for i := range data.MSK {
		data.MSK[i] = 255
	}
	for i := 0; i < app.Library.ActiveCounters() && i < core.NumCounters; i++ {
		data.CountersActive[i] = true
	}
	raw, err := data.Encode()
	if err != nil {
		return 0
	}
	return len(raw)
}

// Execute compiles the plan and runs every assignment through the worker
// pool. It returns a report plus the journal of per-migration outcomes;
// the returned error covers orchestration-level failures (bad plan,
// canceled context), not individual migration failures, which are
// reported per entry.
func (o *Orchestrator) Execute(ctx context.Context, plan Plan) (*Report, error) {
	assignments, err := plan.Compile(o.dc)
	if err != nil {
		return nil, err
	}
	return o.Run(ctx, plan, assignments)
}

// Run executes pre-compiled assignments (Execute's second half; exposed
// so callers can inspect or filter the compiled plan first).
func (o *Orchestrator) Run(ctx context.Context, plan Plan, assignments []Assignment) (*Report, error) {
	policy := plan.Policy
	if policy == nil {
		policy = LeastLoaded{}
	}
	// Redirect candidates: every destination the plan may use, not just
	// the ones the compiled assignments happen to hit — explicit targets
	// when given, otherwise the shared default rule. pickAlternate
	// additionally excludes each migration's own source and re-checks
	// liveness at redirect time.
	var targets []*cloud.Machine
	if len(plan.Targets) > 0 {
		resolved, err := resolve(o.dc, plan.Targets)
		if err != nil {
			return nil, err
		}
		targets = resolved
	} else {
		isSource := make(map[string]bool, len(plan.Sources))
		for _, id := range plan.Sources {
			isSource[id] = true
		}
		targets = defaultTargets(o.dc, isSource)
	}

	// Remote destinations: remember them for redirects/resumes and label
	// each target machine with the WAN link it is reached through.
	links := o.rememberRemotes(plan.RemoteTargets)
	for _, rt := range plan.RemoteTargets {
		if rt.Machine != nil {
			targets = append(targets, rt.Machine)
		}
	}

	// A machine being drained must not take its rack's counter-replica
	// share down with it: hand the role to a surviving target first, so
	// the quorum stays at full strength while (and after) the enclaves
	// move (the paper's evacuation story plus rollback protection that
	// outlives the machine). Remote targets are never handoff takers —
	// a replica role cannot leave its rack.
	handoffs, err := o.handoffReplicas(plan, targets, links)
	if err != nil {
		return nil, err
	}

	journal := NewJournal()
	var meterBytes, meterMessages int64
	if o.cfg.Meter != nil {
		meterBytes, meterMessages = o.cfg.Meter.Bytes(), o.cfg.Meter.Messages()
	}
	// snapshot persists the journal-so-far mid-plan (and once at the
	// end). Serialized so concurrent workers cannot interleave a stale
	// snapshot after a newer one; best-effort by design.
	var snapMu sync.Mutex
	snapshot := func() {
		if o.cfg.SnapshotStore == nil {
			return
		}
		snapMu.Lock()
		defer snapMu.Unlock()
		if raw, err := journal.Encode(); err == nil {
			_ = o.cfg.SnapshotStore.Save(raw)
		}
	}
	record := func(e Entry) {
		journal.Record(e)
		snapshot()
	}
	start := time.Now()
	// Workers consume whole groups: a recovery alone, migrations as the
	// members of one stream.
	work := make(chan []Assignment)
	cancelGroup := func(group []Assignment) {
		for _, as := range group {
			name := ""
			if as.App != nil {
				name = as.App.Image().Name
			} else if as.Lost.Image != nil {
				name = as.Lost.Image.Name
			}
			record(Entry{
				App: name, Source: as.Source.ID(),
				PlannedDest: as.Dest.ID(), Recovered: as.Recover,
				Status: StatusCanceled, Err: ctx.Err().Error(),
			})
			o.emit(Event{Type: EventCanceled, App: name, Source: as.Source.ID(), Dest: as.Dest.ID(), Err: ctx.Err()})
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < o.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for group := range work {
				if ctx.Err() != nil {
					cancelGroup(group)
					continue
				}
				if group[0].Recover {
					record(o.recoverOne(ctx, group[0], targets, policy))
					continue
				}
				for _, e := range o.migrateGroup(ctx, group, targets, policy, links) {
					record(e)
				}
			}
		}()
	}
	// Migrations left parked by an earlier plan are resolved first: what
	// still has data to send is re-targeted and grouped with the rest.
	streamable := make([]Assignment, 0, len(assignments))
	for _, as := range assignments {
		as, settled := o.resolveParked(as, links)
		if settled != nil {
			record(*settled)
			continue
		}
		streamable = append(streamable, as)
	}
	for _, g := range groupAssignments(streamable, o.cfg.BatchSize) {
		work <- g
	}
	close(work)
	wg.Wait()
	snapshot()

	wall := time.Since(start)
	report := &Report{
		Planned:   len(assignments),
		Completed: journal.Count(StatusCompleted),
		Failed:    journal.Count(StatusFailed),
		Canceled:  journal.Count(StatusCanceled),
		Wall:      wall,
		Journal:   journal,
	}
	report.ReplicaHandoffs = handoffs
	if wall > 0 {
		report.Throughput = float64(report.Completed) / wall.Seconds()
	}
	if sum, err := journal.LatencySummary(latencyConfidence); err == nil {
		report.Latency = sum
		report.HasLatency = true
	}
	if o.cfg.Meter != nil {
		// Delta over the run, so provisioning traffic and earlier plans
		// on a shared Meter are not billed to this one.
		report.WireBytes = o.cfg.Meter.Bytes() - meterBytes
		report.WireMessages = o.cfg.Meter.Messages() - meterMessages
	}
	if ctx.Err() != nil {
		return report, ctx.Err()
	}
	return report, nil
}

// handoffReplicas moves the counter-replica role off every drain/
// evacuate source that hosts one, onto the least-loaded eligible target
// (alive, not itself a source, not already hosting a replica). Plans
// whose sources host replicas but have no eligible takers are refused
// with ErrNoReplicaTarget before any enclave moves.
func (o *Orchestrator) handoffReplicas(plan Plan, targets []*cloud.Machine, links map[*cloud.Machine]string) (int, error) {
	if plan.Intent != IntentDrain && plan.Intent != IntentEvacuate {
		return 0, nil
	}
	sources, err := resolve(o.dc, plan.Sources)
	if err != nil {
		return 0, err
	}
	isSource := make(map[string]bool, len(sources))
	for _, s := range sources {
		isSource[s.ID()] = true
	}
	// Phase 1: match every replica-hosting source to a distinct eligible
	// taker before touching anything. A handoff permanently rack-
	// associates the taker, so a plan that cannot be completed must be
	// refused before the first side effect — not midway through.
	type move struct{ src, dst string }
	var moves []move
	claimed := make(map[string]bool)
	for _, src := range sources {
		if !src.Alive() {
			// A dead source's replica share cannot be handed anywhere (its
			// durable counter state is on that machine); the group already
			// runs degraded without it, within its f budget, and recovery
			// mode resurrects the machine's enclaves from the quorum. The
			// operator re-arms the group via Restart+Reseed or an explicit
			// HandoffReplica onto a fresh machine.
			continue
		}
		if !src.HostsReplica() {
			continue
		}
		srcGroup := src.Group()
		var best *cloud.Machine
		for _, t := range targets {
			if isSource[t.ID()] || claimed[t.ID()] || t.HostsReplica() || !t.ME.Enclave().Alive() {
				continue
			}
			// A remote machine cannot take the role: replica groups are
			// rack-scoped, and the rack does not span the WAN.
			if links[t] != "" {
				continue
			}
			// A machine already rack-associated with a different group
			// cannot take this role (its counter facility is spoken for).
			if tg := t.Group(); tg != nil && tg != srcGroup {
				continue
			}
			if best == nil || t.AppCount() < best.AppCount() ||
				(t.AppCount() == best.AppCount() && t.ID() < best.ID()) {
				best = t
			}
		}
		if best == nil {
			return 0, fmt.Errorf("%w: replica on %s", ErrNoReplicaTarget, src.ID())
		}
		claimed[best.ID()] = true
		moves = append(moves, move{src: src.ID(), dst: best.ID()})
	}
	// Phase 2: execute. A failure here (e.g. quorum unreachable) still
	// leaves completed handoffs in place — they are reported through the
	// emitted events and the error.
	handoffs := 0
	for _, mv := range moves {
		if err := o.dc.HandoffReplica(mv.src, mv.dst); err != nil {
			return handoffs, fmt.Errorf("hand off replica %s -> %s (%d of %d done): %w",
				mv.src, mv.dst, handoffs, len(moves), err)
		}
		handoffs++
		o.emit(Event{Type: EventReplicaHandoff, Source: mv.src, Dest: mv.dst})
	}
	return handoffs, nil
}

// recoverOne resurrects one dead source's enclave on the destination
// from the rack escrow (Assignment.Recover), with retry and
// redirect-to-another-rack-peer when the destination dies mid-plan.
// Failures that cannot succeed on any peer — the escrow binding already
// consumed, the state frozen by a migration, the instance still running —
// are terminal immediately.
func (o *Orchestrator) recoverOne(ctx context.Context, as Assignment, targets []*cloud.Machine, policy Policy) Entry {
	dest := as.Dest
	entry := Entry{
		App:         as.Lost.Image.Name,
		Source:      as.Source.ID(),
		PlannedDest: dest.ID(),
		Recovered:   true,
	}
	o.emit(Event{Type: EventStart, App: entry.App, Source: entry.Source, Dest: dest.ID()})
	start := time.Now()
	sp, tc := o.cfg.Obs.StartSpan(obs.SpanFleetRecover, obs.TraceContext{})
	if sp != nil {
		sp.Site = entry.App
	}
	finish := func(st Status, ev EventType, err error) Entry {
		entry.Status = st
		entry.Dest = dest.ID()
		entry.Latency = time.Since(start)
		if err != nil {
			entry.Err = err.Error()
		}
		sp.End()
		if st == StatusCompleted {
			o.cfg.Obs.M().Histogram(obs.FleetRecoveryLatency).Observe(entry.Latency)
		}
		o.cfg.Obs.M().Counter(obs.FleetRecovery, st.String()).Add(1)
		o.emit(Event{Type: ev, App: entry.App, Source: entry.Source, Dest: dest.ID(), Attempt: entry.Attempts, Err: err})
		return entry
	}
	srcGroup := as.Source.Group()
	var lastErr error
	for attempt := 1; attempt <= o.cfg.MaxAttempts; attempt++ {
		entry.Attempts = attempt
		if attempt > 1 {
			if err := o.backoff(ctx, attempt, false); err != nil {
				return finish(StatusCanceled, EventCanceled, err)
			}
			if !dest.ME.Enclave().Alive() {
				for _, t := range targets {
					if t.ID() != dest.ID() && t.ID() != as.Source.ID() &&
						t.Group() == srcGroup && t.ME.Enclave().Alive() {
						entry.Redirects++
						o.emit(Event{Type: EventRedirect, App: entry.App, Source: entry.Source, Dest: t.ID(), Attempt: attempt})
						dest = t
						break
					}
				}
			}
		}
		app, err := dest.RecoverAppCtx(tc, as.Lost.Image, as.Lost.EscrowID)
		if err == nil {
			as.Source.DropLost(as.Lost.EscrowID)
			entry.StateBytes = stateBytes(app)
			entry.Counters = app.Library.ActiveCounters()
			return finish(StatusCompleted, EventRecovered, nil)
		}
		lastErr = err
		if errors.Is(err, core.ErrEscrowConsumed) || errors.Is(err, core.ErrFrozen) ||
			errors.Is(err, cloud.ErrInstanceAlive) {
			// No peer can ever win this record's binding again.
			return finish(StatusFailed, EventFailed, err)
		}
		o.emit(Event{Type: EventRetry, App: entry.App, Source: entry.Source, Dest: dest.ID(), Attempt: attempt, Err: err})
	}
	return finish(StatusFailed, EventFailed,
		fmt.Errorf("%w after %d attempts: %v", ErrAttemptsExhausted, entry.Attempts, lastErr))
}

// ResumeParked finds every parked migration in the data center — the
// unfinished business of crashed or interrupted orchestrators — and runs
// it to completion: for each machine, the source ME's OutstandingTokens
// name the migrations without a DONE, and the frozen libraries holding a
// matching token are re-driven through the normal resume path
// (resolveParked: re-deliver to the previously targeted machine while it
// lives, redirect only away from dead destinations). Call it on
// orchestrator start; together with mid-plan SnapshotStore writes it
// makes plans survive their orchestrator.
func (o *Orchestrator) ResumeParked(ctx context.Context) (*Report, error) {
	policy := Policy(LeastLoaded{})
	machines := o.dc.Machines()
	targets := defaultTargets(o.dc, nil)
	load := make(map[string]int, len(targets))
	for _, t := range targets {
		load[t.ID()] = t.AppCount()
	}
	var assignments []Assignment
	for _, m := range machines {
		if !m.Alive() {
			continue
		}
		outstanding := make(map[string]bool)
		for _, tok := range m.ME.OutstandingTokens() {
			outstanding[string(tok)] = true
		}
		if len(outstanding) == 0 {
			continue
		}
		for _, app := range m.Apps() {
			tok := app.Library.MigrationToken()
			if tok == nil || !outstanding[string(tok)] || !app.Library.Frozen() {
				continue
			}
			var candidates []*cloud.Machine
			for _, t := range targets {
				if t.ID() != m.ID() && t.ME.Enclave().Alive() {
					candidates = append(candidates, t)
				}
			}
			dest, err := policy.Pick(app, candidates, load)
			if err != nil {
				return nil, fmt.Errorf("fleet: resume %s from %s: %w", app.Image().Name, m.ID(), err)
			}
			load[dest.ID()]++
			assignments = append(assignments, Assignment{App: app, Source: m, Dest: dest})
		}
	}
	return o.Run(ctx, Plan{Intent: IntentDrain, Policy: policy}, assignments)
}
