package federation

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pse"
	"repro/internal/pserepl"
	"repro/internal/seal"
	"repro/internal/sgx"
	"repro/internal/transport"
	"repro/internal/xcrypto"
)

// Mirroring errors.
var (
	// ErrNotMirrored reports a cross-DC recovery of an instance the
	// partner holds no mirrored record for (the mirror never synced it).
	ErrNotMirrored = errors.New("federation: instance not mirrored at the partner site")
	// ErrMirrorStale reports a cross-DC recovery refused because the
	// partner's mirrored record is behind the origin's live binding
	// counter: recovering from it would roll the state back. Run
	// Mirror.Flush (or Sync) and retry.
	ErrMirrorStale = errors.New("federation: mirrored record is behind the origin binding counter")
	// ErrMirrorRefused reports a mirror exchange the partner endpoint
	// refused.
	ErrMirrorRefused = errors.New("federation: mirror exchange refused by partner")
)

// instanceKey identifies one mirrored enclave instance.
type instanceKey struct {
	owner sgx.Measurement
	id    [16]byte
}

// originInfo is the mirror's registry entry for one instance: the
// origin rack's binding counter behind the last pushed version. The
// federation's cross-DC recovery arbitrates against (or, after a site
// loss, queues a revocation of) exactly this binding.
type originInfo struct {
	bind     pse.UUID
	version  uint32
	consumed bool // origin binding destroyed by a cross-DC recovery we arbitrated
}

// Mirror asynchronously replicates one origin rack's escrow records
// into a partner rack in a peer data center: every committed escrow put
// at the origin enqueues the instance, and a worker re-reads the record,
// has the partner provision shadow counters (ensure), re-wraps the
// record for the partner's escrow key re-bound to the shadow binding
// counter, and pushes record + forward-only counter advances over the
// WAN. Shadow values therefore trail the origin by the mirror lag;
// Flush drains the queue when an operator needs the partner current
// (e.g. before a planned failover, or in tests).
//
// The mirror is the federation's one new trusted component (see the
// package comment): it holds both racks' escrow keys, as an agent
// enclave provisioned at partnering time would.
type Mirror struct {
	name    string
	origin  *pserepl.Group
	partner *seal.StateSealer // partner rack's escrow key
	msgr    transport.Messenger
	dest    transport.Address // partner mirror endpoint (exported over the WAN)
	sealer  *xcrypto.Sealer   // partnership link key

	mu      sync.Mutex
	cond    *sync.Cond
	pending map[instanceKey]struct{}
	// seq stamps each instance at its first-ever enqueue; flushes sync
	// in (owner, seq) order. The seq — not the instance id — is the
	// within-owner tiebreak because escrow instance ids are minted
	// randomly: sorting by id would sync one owner's old and migrated
	// instances in a different order each run, while the first commit of
	// the pre-migration instance always precedes the migrated one.
	seq     map[instanceKey]uint64
	nextSeq uint64
	inWork  int
	errs    []error
	known   map[instanceKey]*originInfo
	closed  bool
	manual  bool

	obs atomic.Pointer[obs.Observer]
	ep  *mirrorEndpoint // partner-side half (same process; for observer fan-out)
}

// SetObserver installs a telemetry observer on both halves of the
// mirror: the origin-side pusher opens a "mirror.push" span per sync
// whose trace context rides the exchange in-band, and the partner-side
// endpoint continues that trace in its handler spans.
func (m *Mirror) SetObserver(o *obs.Observer) {
	m.obs.Store(o)
	if m.ep != nil {
		m.ep.obs.Store(o)
	}
}

// newMirror wires a mirror to its origin group and partner endpoint and
// starts the sync worker.
func newMirror(name string, origin *pserepl.Group, partner *seal.StateSealer, msgr transport.Messenger, dest transport.Address, sealer *xcrypto.Sealer) *Mirror {
	m := &Mirror{
		name:    name,
		origin:  origin,
		partner: partner,
		msgr:    msgr,
		dest:    dest,
		sealer:  sealer,
		pending: make(map[instanceKey]struct{}),
		seq:     make(map[instanceKey]uint64),
		known:   make(map[instanceKey]*originInfo),
	}
	m.cond = sync.NewCond(&m.mu)
	origin.SetEscrowObserver(func(owner sgx.Measurement, id [16]byte, _ uint32) {
		m.enqueue(instanceKey{owner: owner, id: id})
	})
	go m.worker()
	return m
}

// Name returns the mirror's partnership name.
func (m *Mirror) Name() string { return m.name }

// enqueue marks an instance dirty; the worker syncs it soon.
func (m *Mirror) enqueue(k instanceKey) {
	m.mu.Lock()
	if !m.closed {
		m.pending[k] = struct{}{}
		if _, ok := m.seq[k]; !ok {
			m.nextSeq++
			m.seq[k] = m.nextSeq
		}
		met := m.obs.Load().M()
		met.Counter(obs.MirrorEnqueueTotal).Add(1)
		met.Gauge(obs.MirrorDirty).Set(int64(len(m.pending)))
		m.cond.Broadcast()
	}
	m.mu.Unlock()
}

// SetManual switches the mirror between its normal background worker
// (false, the default) and manual mode (true): while manual, committed
// escrow puts still mark instances dirty but nothing syncs until Flush
// or Sync runs — on the caller's goroutine, in a deterministic (owner,
// id) order. Chaos harnesses use manual mode so a schedule's WAN
// exchanges (and therefore the link's seeded loss draws) happen at
// reproducible points instead of racing a background goroutine.
func (m *Mirror) SetManual(manual bool) {
	m.mu.Lock()
	m.manual = manual
	m.cond.Broadcast()
	m.mu.Unlock()
}

// worker drains the dirty set, one instance at a time.
func (m *Mirror) worker() {
	m.mu.Lock()
	for {
		for (len(m.pending) == 0 || m.manual) && !m.closed {
			m.cond.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return
		}
		var k instanceKey
		for k = range m.pending {
			break
		}
		delete(m.pending, k)
		m.inWork++
		m.mu.Unlock()
		err := m.syncOne(k)
		m.mu.Lock()
		m.inWork--
		if err != nil {
			// Failed syncs are reported through Flush; the instance is NOT
			// auto-requeued (a down link would busy-loop) — the next origin
			// persist or an explicit Sync/Flush retries it.
			m.errs = append(m.errs, fmt.Errorf("mirror %s: %x/%x: %w", m.name, k.owner[:4], k.id[:4], err))
		}
		m.cond.Broadcast()
	}
}

// Flush brings the partner current as of now: every known instance is
// re-enqueued (counter increments do not touch the escrow store, so
// shadow VALUES only move when a sync runs — a re-sync reads the live
// origin values), the queue is drained, and the errors accumulated
// since the last Flush are returned (nil when the partner is fully
// current). Operators run it before a planned failover; production
// deployments would drive the same re-sync from a timer to bound the
// value RPO.
func (m *Mirror) Flush() error {
	return m.noteFlush(m.flush())
}

// noteFlush records flush telemetry: the attempt counter always moves,
// and a clean flush stamps mirror.flush.last_unix_ns — the gauge the
// mirror-rpo-age objective (internal/obs/health) measures freshness from.
func (m *Mirror) noteFlush(err error) error {
	met := m.obs.Load().M()
	met.Counter(obs.MirrorFlushTotal).Add(1)
	if err == nil {
		met.Gauge(obs.MirrorFlushLast).Set(time.Now().UnixNano())
	} else {
		met.Counter(obs.MirrorFlushErrors).Add(1)
	}
	m.mu.Lock()
	met.Gauge(obs.MirrorDirty).Set(int64(len(m.pending)))
	m.publishKnownLocked(met)
	m.mu.Unlock()
	return err
}

// publishKnownLocked refreshes the mirror.known gauge: how many live
// (non-consumed) instances the partner currently shadows. The mirror
// health detector reads it to tell an idle mirror from a lying one — a
// successful flush with known instances must push records. m.mu held.
func (m *Mirror) publishKnownLocked(met *obs.Metrics) {
	n := int64(0)
	for _, info := range m.known {
		if !info.consumed {
			n++
		}
	}
	met.Gauge(obs.MirrorKnown).Set(n)
}

func (m *Mirror) flush() error {
	m.mu.Lock()
	if !m.closed {
		for k, info := range m.known {
			if info.consumed {
				continue // recovered away; nothing to keep current
			}
			m.pending[k] = struct{}{}
		}
		m.cond.Broadcast()
	}
	if m.manual && !m.closed {
		// Manual mode: drain on the caller's goroutine, sorted by
		// (owner, first-enqueue seq) so a seeded chaos run syncs — and
		// draws WAN loss — in a reproducible order. The seq tiebreak
		// matters once migrations put two instances of one owner in the
		// same flush: their randomly minted ids would order differently
		// each run, while first-commit order is stable.
		keys := make([]instanceKey, 0, len(m.pending))
		for k := range m.pending {
			keys = append(keys, k)
		}
		seqOf := make(map[instanceKey]uint64, len(keys))
		for _, k := range keys {
			seqOf[k] = m.seq[k]
		}
		clear(m.pending)
		errs := m.errs
		m.errs = nil
		m.mu.Unlock()
		sort.Slice(keys, func(i, j int) bool {
			if c := bytes.Compare(keys[i].owner[:], keys[j].owner[:]); c != 0 {
				return c < 0
			}
			return seqOf[keys[i]] < seqOf[keys[j]]
		})
		for _, k := range keys {
			if err := m.syncOne(k); err != nil {
				errs = append(errs, fmt.Errorf("mirror %s: %x/%x: %w", m.name, k.owner[:4], k.id[:4], err))
			}
		}
		return errors.Join(errs...)
	}
	for (len(m.pending) > 0 || m.inWork > 0) && !m.closed {
		m.cond.Wait()
	}
	errs := m.errs
	m.errs = nil
	m.mu.Unlock()
	return errors.Join(errs...)
}

// Sync mirrors one instance synchronously (the manual/retry path).
func (m *Mirror) Sync(owner sgx.Measurement, id [16]byte) error {
	return m.syncOne(instanceKey{owner: owner, id: id})
}

// Close stops the worker (pending syncs are dropped).
func (m *Mirror) Close() {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	m.origin.SetEscrowObserver(nil)
}

// originBinding reports the registry entry for an instance.
func (m *Mirror) originBinding(k instanceKey) (originInfo, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	info, ok := m.known[k]
	if !ok {
		return originInfo{}, false
	}
	return *info, true
}

// markConsumed records that a cross-DC recovery destroyed the origin
// binding through this mirror's arbitration.
func (m *Mirror) markConsumed(k instanceKey) {
	m.mu.Lock()
	if info, ok := m.known[k]; ok {
		info.consumed = true
	} else {
		m.known[k] = &originInfo{consumed: true}
	}
	m.mu.Unlock()
}

// exchange runs one sealed request/response with the partner endpoint.
// The trace context travels outside the sealed payload (the transport
// envelope), so the endpoint authenticates exactly what it always did.
func (m *Mirror) exchange(tc obs.TraceContext, kind string, payload []byte) ([]byte, error) {
	sealed, err := m.sealer.Seal(payload, aadReq(kind, m.name))
	if err != nil {
		return nil, err
	}
	reply, err := m.msgr.Send(transport.Address("fed-mirror-src/"+m.name), m.dest, kind, obs.Inject(tc, sealed))
	if err != nil {
		return nil, err
	}
	return m.sealer.Open(reply, aadRep(kind, m.name))
}

// syncOne brings the partner current for one instance: tombstones
// propagate as tombstones, live records as ensure + transform + push.
func (m *Mirror) syncOne(k instanceKey) (err error) {
	if faultSkipMirrorResync && m.alreadyMirrored(k) {
		// Mutation self-test only (build tag chaosmut): silently claim
		// success without re-pushing an instance the partner already
		// shadows, so flushes "succeed" while shadow values go stale. The
		// chaos checker must convict the resulting post-failover rollback,
		// and the mirror health detector must flag the flush-without-push
		// signature — nothing is recorded here on purpose, a liar leaves
		// no tracks.
		return nil
	}
	o := m.obs.Load()
	sp, tc := o.StartSpan(obs.SpanMirrorPush, obs.TraceContext{})
	if sp != nil {
		sp.Site = m.name
		defer sp.End()
	}
	start := time.Now()
	defer func() {
		o.M().Counter(obs.MirrorPushTotal).Add(1)
		o.M().Histogram(obs.MirrorPushLatency).Observe(time.Since(start))
		if err != nil {
			o.M().Counter(obs.MirrorPushErrors).Add(1)
		}
	}()
	ver, bind, blob, err := m.origin.EscrowGet(k.owner, k.id)
	if errors.Is(err, pserepl.ErrEscrowDecommissioned) {
		return m.pushTombstone(tc, k)
	}
	if err != nil {
		return fmt.Errorf("origin escrow get: %w", err)
	}
	view, err := core.InspectEscrowRecord(m.origin.EscrowSealer(), k.owner, k.id, ver, bind, blob)
	if err != nil {
		return err
	}

	// Ensure the partner's shadows exist (idempotent; the endpoint keeps
	// the mapping stable across syncs).
	var slots []uint8
	for _, s := range view.Slots {
		slots = append(slots, uint8(s))
	}
	nonce, err := newNonce()
	if err != nil {
		return err
	}
	ens := &ensureMessage{Owner: k.owner, ID: k.id, Slots: slots, Nonce: nonce}
	raw, err := m.exchange(tc, kindEnsure, ens.encode())
	if err != nil {
		return fmt.Errorf("ensure shadows: %w", err)
	}
	rep, err := decodeEnsureReply(raw)
	if err != nil {
		return err
	}
	if rep.Nonce != nonce {
		return fmt.Errorf("%w: stale ensure reply", ErrMirrorRefused)
	}
	if rep.Status != statusOK {
		return fmt.Errorf("%w: ensure status %d", ErrMirrorRefused, rep.Status)
	}
	shadow := make(map[int]pse.UUID, len(rep.Pairs))
	for _, p := range rep.Pairs {
		shadow[int(p.Slot)] = p.UUID
	}

	// Read the origin values the shadows must reach. Reading after the
	// record fetch can only observe NEWER values than the record's
	// version covers — forward-only advances make that harmless (the
	// shadow can never be behind the mirrored record, which is the
	// invariant recovery needs).
	adv := make([]counterAdvance, 0, len(view.Slots)+1)
	if !view.Frozen {
		for i, s := range view.Slots {
			v, err := m.origin.Inspect(k.owner, view.UUIDs[i])
			if err != nil {
				return fmt.Errorf("inspect origin counter slot %d: %w", s, err)
			}
			su, ok := shadow[s]
			if !ok {
				return fmt.Errorf("%w: partner returned no shadow for slot %d", ErrMirrorRefused, s)
			}
			adv = append(adv, counterAdvance{UUID: su, Value: v})
		}
	}
	// The shadow binding advances to exactly the record's version.
	adv = append(adv, counterAdvance{UUID: rep.Bind, Value: ver})

	rec, err := core.TransformEscrowForMirror(
		m.origin.EscrowSealer(), m.partner, k.owner, k.id, ver, bind, blob, rep.Bind, shadow)
	if err != nil {
		return err
	}
	if nonce, err = newNonce(); err != nil {
		return err
	}
	push := &pushMessage{Owner: k.owner, ID: k.id, Version: ver, Bind: rep.Bind, Record: rec, Adv: adv, Nonce: nonce}
	raw, err = m.exchange(tc, kindPush, push.encode())
	if err != nil {
		return fmt.Errorf("push record: %w", err)
	}
	prep, err := decodePushReply(raw)
	if err != nil {
		return err
	}
	if prep.Nonce != nonce {
		return fmt.Errorf("%w: stale push reply", ErrMirrorRefused)
	}
	if prep.Status == statusObsolete {
		// The partner already resurrected this instance; it no longer
		// mirrors from here. Stop re-syncing it.
		m.markConsumed(k)
		return nil
	}
	if prep.Status != statusOK {
		return fmt.Errorf("%w: push status %d", ErrMirrorRefused, prep.Status)
	}

	m.mu.Lock()
	if info, ok := m.known[k]; ok {
		if ver >= info.version {
			info.bind, info.version = bind, ver
		}
	} else {
		m.known[k] = &originInfo{bind: bind, version: ver}
	}
	met := o.M()
	met.Gauge(obs.MirrorPushLast).Set(time.Now().UnixNano())
	m.publishKnownLocked(met)
	m.mu.Unlock()
	return nil
}

// alreadyMirrored reports whether the partner already shadows a live
// copy of k (the chaosmut skip-resync gate's predicate).
func (m *Mirror) alreadyMirrored(k instanceKey) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	info, ok := m.known[k]
	return ok && !info.consumed
}

// pushTombstone propagates a decommission to the partner.
func (m *Mirror) pushTombstone(tc obs.TraceContext, k instanceKey) error {
	nonce, err := newNonce()
	if err != nil {
		return err
	}
	push := &pushMessage{Owner: k.owner, ID: k.id, Version: pserepl.EscrowTombstoneVersion, Nonce: nonce}
	raw, err := m.exchange(tc, kindPush, push.encode())
	if err != nil {
		return fmt.Errorf("push tombstone: %w", err)
	}
	rep, err := decodePushReply(raw)
	if err != nil {
		return err
	}
	if rep.Nonce != nonce || rep.Status != statusOK {
		return fmt.Errorf("%w: tombstone push refused", ErrMirrorRefused)
	}
	m.mu.Lock()
	delete(m.known, k)
	m.mu.Unlock()
	return nil
}

// newNonce draws a per-request freshness value.
func newNonce() (uint64, error) {
	b, err := xcrypto.RandomBytes(8)
	if err != nil {
		return 0, fmt.Errorf("request nonce: %w", err)
	}
	var n uint64
	for _, c := range b {
		n = n<<8 | uint64(c)
	}
	return n, nil
}

// shadowSet is the endpoint's provisioning record for one instance.
type shadowSet struct {
	bind  pse.UUID
	slots map[int]pse.UUID
}

// mirrorEndpoint is the partner-side half: it provisions shadow
// counters in the partner group, applies forward-only advances, and
// stores re-wrapped records — all behind the sealed link channel.
type mirrorEndpoint struct {
	name  string
	group *pserepl.Group
	seal  *xcrypto.Sealer
	obs   atomic.Pointer[obs.Observer]

	mu      sync.Mutex
	shadows map[instanceKey]*shadowSet
}

// newMirrorEndpoint registers the endpoint on the partner DC's
// messenger at addr.
func newMirrorEndpoint(name string, group *pserepl.Group, sealer *xcrypto.Sealer, msgr transport.Messenger, addr transport.Address) (*mirrorEndpoint, error) {
	ep := &mirrorEndpoint{
		name:    name,
		group:   group,
		seal:    sealer,
		shadows: make(map[instanceKey]*shadowSet),
	}
	if err := msgr.Register(addr, ep.handle); err != nil {
		return nil, fmt.Errorf("register mirror endpoint: %w", err)
	}
	return ep, nil
}

// handleSpans names the partner-side span of each mirror message kind.
var handleSpans = map[string]*obs.SpanDesc{
	kindEnsure: obs.SpanMirrorHandleEnsure,
	kindPush:   obs.SpanMirrorHandlePush,
}

// handle authenticates and dispatches one mirror exchange.
func (ep *mirrorEndpoint) handle(msg transport.Message) ([]byte, error) {
	sp, _ := ep.obs.Load().StartSpan(handleSpans[msg.Kind], msg.Trace)
	if sp != nil {
		sp.Site = ep.name
		defer sp.End()
	}
	payload, err := ep.seal.Open(msg.Payload, aadReq(msg.Kind, ep.name))
	if err != nil {
		return nil, fmt.Errorf("federation: mirror message failed authentication: %w", err)
	}
	var reply []byte
	switch msg.Kind {
	case kindEnsure:
		reply, err = ep.handleEnsure(payload)
	case kindPush:
		reply, err = ep.handlePush(payload)
	default:
		return nil, fmt.Errorf("%w: unknown kind %q", ErrWireFormat, msg.Kind)
	}
	if err != nil {
		return nil, err
	}
	sealed, err := ep.seal.Seal(reply, aadRep(msg.Kind, ep.name))
	if err != nil {
		return nil, fmt.Errorf("seal mirror reply: %w", err)
	}
	return sealed, nil
}

// handleEnsure provisions (or reports) the shadow set for an instance.
func (ep *mirrorEndpoint) handleEnsure(payload []byte) ([]byte, error) {
	m, err := decodeEnsureMessage(payload)
	if err != nil {
		return nil, err
	}
	k := instanceKey{owner: m.Owner, id: m.ID}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	set, ok := ep.shadows[k]
	if !ok {
		bind, err := ep.group.AdminCreate(m.Owner)
		if err != nil {
			return nil, fmt.Errorf("create shadow binding: %w", err)
		}
		set = &shadowSet{bind: bind, slots: make(map[int]pse.UUID)}
		ep.shadows[k] = set
	}
	rep := &ensureReply{Status: statusOK, Bind: set.bind, Nonce: m.Nonce}
	for _, s := range m.Slots {
		uuid, ok := set.slots[int(s)]
		if !ok {
			var err error
			if uuid, err = ep.group.AdminCreate(m.Owner); err != nil {
				return nil, fmt.Errorf("create shadow counter slot %d: %w", s, err)
			}
			set.slots[int(s)] = uuid
		}
		rep.Pairs = append(rep.Pairs, shadowPair{Slot: s, UUID: uuid})
	}
	return rep.encode(), nil
}

// handlePush applies advances and stores (or tombstones) the record.
// Everything applied is forward-only, so replayed or repeated pushes
// cannot regress anything.
func (ep *mirrorEndpoint) handlePush(payload []byte) ([]byte, error) {
	m, err := decodePushMessage(payload)
	if err != nil {
		return nil, err
	}
	k := instanceKey{owner: m.Owner, id: m.ID}
	if m.Record == nil && m.Version == pserepl.EscrowTombstoneVersion {
		// Decommission propagated from the origin: destroy the shadows
		// and make the partner copy permanently unrecoverable too.
		ep.mu.Lock()
		set := ep.shadows[k]
		delete(ep.shadows, k)
		ep.mu.Unlock()
		if set != nil {
			_, _ = ep.group.AdminDestroy(m.Owner, set.bind)
			for _, uuid := range set.slots {
				_, _ = ep.group.AdminDestroy(m.Owner, uuid)
			}
		}
		if err := ep.group.EscrowTombstone(m.Owner, m.ID); err != nil {
			return nil, err
		}
		return (&pushReply{Status: statusOK, Nonce: m.Nonce}).encode(), nil
	}
	// Advances first, record second: if the put fails midway the shadow
	// binding may be ahead of the stored record, which recovery rejects
	// as stale (fails safe) until the next push lands.
	for _, a := range m.Adv {
		if _, err := ep.group.AdminAdvance(m.Owner, a.UUID, a.Value); err != nil {
			if errors.Is(err, pse.ErrCounterNotFound) {
				// The shadow binding (or a shadow counter) was consumed: a
				// cross-DC recovery already resurrected this instance HERE,
				// and its live library owns fresh counters now. Tell the
				// mirror to stop syncing it.
				return (&pushReply{Status: statusObsolete, Nonce: m.Nonce}).encode(), nil
			}
			return nil, fmt.Errorf("advance shadow: %w", err)
		}
	}
	if err := ep.group.EscrowPut(m.Owner, m.ID, m.Version, m.Bind, m.Record); err != nil &&
		!errors.Is(err, pserepl.ErrEscrowSuperseded) {
		// A superseded put means a newer record (e.g. the partner-side
		// recovery's re-escrow) already landed — current enough, not an
		// error; anything else (no quorum) is.
		return nil, err
	}
	return (&pushReply{Status: statusOK, Nonce: m.Nonce}).encode(), nil
}
