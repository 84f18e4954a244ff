// Package pserepl replicates the Platform Services monotonic-counter
// facility across machines, turning the per-machine pse.Service singleton
// into a datacenter-grade primitive that survives machine failure
// (TrInc-style distributed trusted counters; ROADMAP "Counter-service
// replication").
//
// A Group fronts 2f+1 Replicas hosted on distinct machines. Mutations
// (Create, Increment, IncrementN, DestroyAndRead) commit when a majority
// (f+1) of replicas ack; Read returns the maximum value reported by a
// majority, then repairs stragglers up to it. Because any two majorities
// intersect, the maximum over a read quorum always includes the latest
// committed increment, and the repair keeps any value a read has
// returned — including one left by a partial, quorum-failed increment —
// visible to every later majority: counter values never regress while at
// most f replicas are down, the rollback protection the migration
// protocol needs, now minus the single-machine single point of failure.
//
// There is one counter write, "advance to at least N" (opAdvance). The
// coordinator serializes a counter's writers and remembers the highest
// value it issued for it, so an increment by n is one broadcast of
// "advance to issued+n": above everything any replica holds, hence a
// unique result above every earlier read. Repairs, reseeds and handoffs
// write the same way, and a replica applies max(local, N), so writes
// commute: one that arrives late, twice, out of order, or after a repair
// that already covered it changes nothing. A replicated counter never
// skips — it is as strong as a native one (the paper's R1).
//
// Replication messages ride the repository's tagged binary wire codec
// over transport.Messenger, so every hop is charged through sim.Latency
// (one network RTT plus the replica-side apply and firmware costs per
// replica) and the latency price of replication is measurable — see
// bench.ReplicationSweep.
//
// Recovery: a replica that rejoins after a machine restart refuses to
// serve until Group.Reseed raises its counters to the quorum's
// per-counter maxima; a machine being drained hands its replica role to
// a fresh machine through Group.Handoff the same way. Neither path can
// ever lower a counter value.
package pserepl

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pse"
	"repro/internal/seal"
	"repro/internal/sgx"
	"repro/internal/transport"
	"repro/internal/xcrypto"
)

// Group coordination errors.
var (
	// ErrNoQuorum reports an operation that could not gather a majority of
	// replica votes: the counter state is unavailable (not lost) until
	// enough replicas come back.
	ErrNoQuorum = errors.New("pserepl: no quorum of replica acks")
	// ErrBadReplication reports an invalid group configuration.
	ErrBadReplication = errors.New("pserepl: invalid replication configuration")
	// ErrUnknownReplica reports a reseed or handoff naming a non-member.
	ErrUnknownReplica = errors.New("pserepl: unknown replica")
	// ErrWireFormat reports malformed replication wire bytes.
	ErrWireFormat = errors.New("pserepl: malformed replication message")
)

// Group is the coordinator for one replicated counter group (one rack's
// quorum). It implements the same counter facility interface as
// *pse.Service (core.CounterService), so the Migration Library works
// against it unchanged. All methods are safe for concurrent use.
//
// The coordinator is in the trusted computing base, as the Migration
// Enclave is: it runs as an enclave on a rack machine and is provisioned
// with the group key and the rack escrow key. It is trusted for those two
// keys (whoever holds the group key can seal any op or repair, whoever
// holds the escrow key can unwrap every escrowed MSK), for destroy
// arbitration (its counter record decides which destroy of a counter may
// run and what it captures: the paper's R3 and R4), and for the values it
// issues (unique increment results). Each replica still enforces the UUID
// nonce capability and the owner identity itself, and a committed value
// survives f replica failures by quorum intersection.
type Group struct {
	name   string
	f      int
	msgr   transport.Messenger
	addr   transport.Address // From address on replication messages
	nextID atomic.Uint64

	// sealer holds the group key every replication message is
	// AEAD-sealed under. The key is installed on each replica in-process
	// when it joins (the provisioning phase), so the untrusted network
	// carries only sealed bytes: no forged ops or reseeds, no forged
	// votes, and no UUID nonce capabilities in the clear.
	sealer *xcrypto.Sealer

	// escrowSealer is the rack escrow key: enclaves on rack-associated
	// machines wrap their MSK under it when escrowing state, and a
	// recovering enclave on any rack peer unwraps it. Like the group key
	// it is installed during the secure provisioning phase (the cloud
	// layer hands it to the Migration Library at launch).
	escrowSealer *seal.StateSealer

	// pending tracks broadcast sender goroutines and late-vote repairers
	// that outlive an early-quorum return; Quiesce waits for them.
	pending sync.WaitGroup

	// memMu guards membership and is held (read) while a quorum
	// broadcast collects its deciding votes, so reconfiguration (Reseed,
	// Handoff) serializes against the commit point of in-flight
	// operations: a snapshot taken under the write lock reflects every
	// operation that has returned. Straggler writes and their background
	// repairs can outlive the read lock (the early-quorum return); every
	// one of them is an opAdvance to a value the snapshot's quorum already
	// holds or exceeds, so landing before, during or after the reseed it
	// neither regresses the target nor pushes it past what was issued.
	// Quiesce waits them out when a settled group is needed.
	memMu   sync.RWMutex
	members map[string]transport.Address

	// ownerMu guards the counter budget. Every replica backs group
	// counters with local hardware counters created under its single
	// agent identity, so the whole group shares one facility's budget
	// (pse.MaxCounters) across all owners: total counts the live counters
	// plus the creates in flight, and bounds every owner's share as well.
	ownerMu sync.Mutex
	total   int

	// destroyMu serializes destroys group-wide (they are rare: one per
	// counter lifetime, driven by migration freezes). The coordinator is
	// the serialization point the firmware singleton provided for free:
	// under it a destroy finds its counter's record or is refused before
	// any broadcast, so of two racing destroys of one counter — a forked
	// enclave's freeze and the original's — only the first can succeed.
	destroyMu sync.Mutex

	// incrMu stripes hold the counter records and serialize the writers of
	// a counter, again standing in for the firmware's serial rate-limited
	// transactions (at most pse.MaxCounters records in all). Every value a
	// replica holds was issued here, so issued+n exceeds them all and no
	// two increments share a result — the unique-result property
	// TrInc-style attestation builds on.
	incrMu [16]counterStripe

	// recoverMu guards aborted and the escrow hooks.
	recoverMu sync.Mutex
	// aborted records IDs of creates that failed their quorum: their
	// best-effort rollback may itself have missed a minority replica,
	// and without a tombstone that ghost entry would re-propagate
	// through snapshots. Treating aborted IDs as tombstones in every
	// snapshot merge cleans the ghosts up at the next reseed instead.
	aborted map[uint32]struct{}

	// escrowObs and escrowAud, when set, observe committed escrow puts
	// (guarded by recoverMu; see SetEscrowObserver / SetEscrowAuditor).
	escrowObs func(owner sgx.Measurement, id [16]byte, version uint32)
	escrowAud func(owner sgx.Measurement, id [16]byte, version uint32)

	// obs records quorum-operation spans, per-op counters, per-replica
	// vote telemetry and escrow audit events; nil disables recording.
	obs atomic.Pointer[groupObs]
}

// counterStripe is one stripe of Group.incrMu: under its lock, live maps
// each live counter whose ID falls in the stripe to its record.
type counterStripe struct {
	sync.Mutex
	live map[uint32]*counterRecord
}

// counterRecord is the coordinator's only per-counter state. A successful
// create inserts it and a successful destroy deletes it, so an ID without
// one is not live: writes and destroys naming it are refused before any
// broadcast, and a counter can be destroyed only once.
type counterRecord struct {
	owner sgx.Measurement
	// issued is the highest value written for the counter (0 at create).
	issued uint32
	// captured is the highest final value a replica reported OK in a
	// destroy attempt that failed its quorum. That replica dropped the
	// counter, and its final may be the only copy left of the latest
	// acknowledged increment, so the destroy that succeeds reports at least
	// it (R4) even when its own OK votes come from stragglers.
	captured uint32
}

// groupObs is the group's observer with every member's children of the
// quorum.vote.* families resolved, so a vote touches no registry. It is
// immutable and g.obs is never nil (the zero value records nothing);
// SetObserver and Handoff replace it.
type groupObs struct {
	o     *obs.Observer
	votes map[string]voteTelemetry // by replica ID
}

// voteTelemetry feeds the quorum health rule: latency skew singles out
// a browning-out replica, error counts surface lagging/unsynced ones.
type voteTelemetry struct {
	latency *obs.Histogram
	errors  *obs.Counter
}

// NewGroup assembles a replicated counter group from exactly 2f+1
// replicas (f >= 0) and seeds each of them empty, marking them serving.
func NewGroup(name string, f int, msgr transport.Messenger, replicas ...*Replica) (*Group, error) {
	if f < 0 {
		return nil, fmt.Errorf("%w: negative replication factor", ErrBadReplication)
	}
	if len(replicas) != 2*f+1 {
		return nil, fmt.Errorf("%w: f=%d needs %d replicas, got %d", ErrBadReplication, f, 2*f+1, len(replicas))
	}
	key, err := xcrypto.RandomBytes(32)
	if err != nil {
		return nil, fmt.Errorf("group key: %w", err)
	}
	sealer, err := xcrypto.NewSealer(key)
	if err != nil {
		return nil, fmt.Errorf("group sealer: %w", err)
	}
	escrowKeyBytes, err := xcrypto.RandomBytes(32)
	if err != nil {
		return nil, fmt.Errorf("escrow key: %w", err)
	}
	escrowSealer, err := seal.NewStateSealer(escrowKeyBytes)
	if err != nil {
		return nil, fmt.Errorf("escrow sealer: %w", err)
	}
	g := &Group{
		name:         name,
		f:            f,
		msgr:         msgr,
		addr:         transport.Address("ctr-group/" + name),
		sealer:       sealer,
		escrowSealer: escrowSealer,
		members:      make(map[string]transport.Address, len(replicas)),
		aborted:      make(map[uint32]struct{}),
	}
	for i := range g.incrMu {
		g.incrMu[i].live = make(map[uint32]*counterRecord)
	}
	g.obs.Store(&groupObs{})
	seen := make(map[string]bool, len(replicas))
	for _, r := range replicas {
		if seen[r.ID()] {
			return nil, fmt.Errorf("%w: duplicate replica %q", ErrBadReplication, r.ID())
		}
		seen[r.ID()] = true
	}
	for _, r := range replicas {
		r.join(g.sealer)
		if err := g.seedReplica(r.Address(), r.ID(), &syncMessage{}); err != nil {
			return nil, fmt.Errorf("seed replica %s: %w", r.ID(), err)
		}
		g.members[r.ID()] = r.Address()
	}
	return g, nil
}

// SetObserver installs the group's observability sink (nil disables).
// Quorum operations then record "quorum.*" spans and counters, and
// escrow supersede/tombstone transitions append audit events.
func (g *Group) SetObserver(o *obs.Observer) {
	g.memMu.RLock()
	defer g.memMu.RUnlock()
	g.setObserverLocked(o)
}

// setObserverLocked resolves the vote telemetry of the current members
// (memMu held).
func (g *Group) setObserverLocked(o *obs.Observer) {
	t := &groupObs{o: o, votes: make(map[string]voteTelemetry, len(g.members))}
	for id := range g.members {
		t.votes[id] = voteTelemetry{
			latency: o.M().Histogram(obs.QuorumVoteLatency, g.name, id),
			errors:  o.M().Counter(obs.QuorumVoteErrors, g.name, id),
		}
	}
	g.obs.Store(t)
}

// opSpan opens a root span and bumps the per-op counter for one quorum
// operation; the returned span is nil (and free) when no observer is set.
func (g *Group) opSpan(span *obs.SpanDesc, count *obs.CounterDesc) *obs.Span {
	o := g.obs.Load().o
	if o == nil {
		return nil
	}
	sp, _ := o.StartSpan(span, obs.TraceContext{})
	if sp != nil {
		sp.Site = "group:" + g.name
	}
	o.M().Counter(count).Add(1)
	return sp
}

// sendSealed performs one sealed request/response exchange with a single
// replica and returns the opened reply bytes.
func (g *Group) sendSealed(to transport.Address, id, kind string, payload []byte) ([]byte, error) {
	sealed, err := g.sealer.Seal(payload, aadReq(kind, id))
	if err != nil {
		return nil, err
	}
	reply, err := g.msgr.Send(g.addr, to, kind, sealed)
	if err != nil {
		return nil, err
	}
	return g.sealer.Open(reply, aadRep(kind, id))
}

// seedReplica fetches the target's freshness challenge and sends it the
// snapshot as a challenge-bound reseed. Both exchanges are nonce-echoed,
// so neither the challenge reply nor the reseed ack can be satisfied
// from recorded traffic.
func (g *Group) seedReplica(to transport.Address, id string, snap *syncMessage) error {
	nonce, err := newNonce()
	if err != nil {
		return err
	}
	raw, err := g.sendSealed(to, id, kindOp, (&opMessage{Op: opChallenge, Nonce: nonce}).encode())
	if err != nil {
		return err
	}
	ch, err := decodeSyncMessage(raw)
	if err != nil {
		return err
	}
	if ch.Nonce != nonce {
		return fmt.Errorf("%w: stale challenge reply", ErrBadAuth)
	}
	snap.Challenge = ch.Challenge
	if snap.Nonce, err = newNonce(); err != nil {
		return err
	}
	raw, err = g.sendSealed(to, id, kindReseed, snap.encode())
	if err != nil {
		return err
	}
	rep, err := decodeOpReply(raw)
	if err != nil {
		return err
	}
	if rep.Nonce != snap.Nonce {
		return fmt.Errorf("%w: stale reseed ack", ErrBadAuth)
	}
	if rep.Status != statusOK {
		return fmt.Errorf("%w: reseed refused with status %d", ErrBadReplication, rep.Status)
	}
	return nil
}

// Name returns the group name.
func (g *Group) Name() string { return g.name }

// F returns the replication factor (the group tolerates f failures).
func (g *Group) F() int { return g.f }

// Quorum returns the majority size, f+1.
func (g *Group) Quorum() int { return g.f + 1 }

// Members returns the member replica IDs, sorted.
func (g *Group) Members() []string {
	g.memMu.RLock()
	defer g.memMu.RUnlock()
	ids := make([]string, 0, len(g.members))
	for id := range g.members {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// vote is one replica's answer to a broadcast.
type vote struct {
	id    string
	reply *opReply
	snap  *syncMessage
	esc   *escrowReply
	err   error
}

// Reply kinds a broadcast decodes into votes.
const (
	replyOp = iota
	replySnap
	replyEscrow
)

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

// broadcastLocked seals one message under the group key — separately per
// replica, the AAD binding each copy to its addressee — fans it out in
// parallel, and collects the authenticated, decoded answers. A vote that
// fails authentication or does not echo the request nonce is as dead as
// an unreachable replica: it never counts toward a quorum, so recorded
// votes from earlier requests (or another replica's vote for this one)
// cannot fake an ack. Callers hold memMu (read for ops, write for
// reconfiguration).
//
// When early is non-nil, the collection returns as soon as early(votes)
// reports the outcome decidable instead of waiting for every replica's
// reply — so one hung peer adds nothing to the operation's latency
// instead of its full transport deadline. The returned late channel
// (non-nil only after an early return) carries the outstanding votes;
// senders write into a fully buffered channel and can never block, so a
// caller may simply drop it. Callers that fail (no early return) always
// see the complete vote set.
func (g *Group) broadcastLocked(members map[string]transport.Address, kind string, payload []byte, nonce uint64, replyKind int, early func([]vote) bool) (votes []vote, late <-chan vote) {
	ch := make(chan vote, len(members))
	t := g.obs.Load()
	for id, addr := range members {
		g.pending.Add(1)
		go func(id string, addr transport.Address) {
			defer g.pending.Done()
			tel := t.votes[id]
			if t.o != nil {
				start := time.Now()
				defer func() { tel.latency.Observe(time.Since(start)) }()
			}
			v := vote{id: id}
			sealed, err := g.sealer.Seal(payload, aadReq(kind, id))
			if err == nil {
				var raw []byte
				raw, err = g.msgr.Send(g.addr, addr, kind, sealed)
				if err == nil {
					raw, err = g.sealer.Open(raw, aadRep(kind, id))
				}
				if err == nil {
					switch replyKind {
					case replySnap:
						v.snap, err = decodeSyncMessage(raw)
						if err == nil && v.snap.Nonce != nonce {
							v.snap, err = nil, fmt.Errorf("%w: stale snapshot reply", ErrBadAuth)
						}
					case replyEscrow:
						v.esc, err = decodeEscrowReply(raw)
						if err == nil && v.esc.Nonce != nonce {
							v.esc, err = nil, fmt.Errorf("%w: stale escrow reply", ErrBadAuth)
						}
					default:
						v.reply, err = decodeOpReply(raw)
						if err == nil && v.reply.Nonce != nonce {
							v.reply, err = nil, fmt.Errorf("%w: stale vote", ErrBadAuth)
						}
					}
				}
			}
			v.err = err
			if err != nil {
				tel.errors.Add(1)
			}
			ch <- v
		}(id, addr)
	}
	votes = make([]vote, 0, len(members))
	for i := 0; i < len(members); i++ {
		votes = append(votes, <-ch)
		if early != nil && early(votes) && i+1 < len(members) {
			return votes, ch
		}
	}
	return votes, nil
}

// successRule is the early-return predicate of a quorum op: the outcome
// is decidably successful once a majority acked, counting tolerated
// refusals (see tally) beside at least one OK. Failure is never decided
// early — refusals and transport errors wait for the full vote set,
// because a late ack can still flip a refusal into success or
// ErrNoQuorum. Success is safe to decide early by quorum intersection:
// any committed (or read-observed, hence read-repaired onto a majority)
// value lives on f+1 replicas, so the maximum over ANY f+1 acks already
// includes it.
func (g *Group) successRule(tolerated byte) func([]vote) bool {
	q := g.Quorum()
	return func(votes []vote) bool {
		oks, tols := 0, 0
		for i := range votes {
			v := &votes[i]
			if v.err != nil || v.reply == nil {
				continue
			}
			if v.reply.Status == statusOK {
				oks++
			} else if tolerated != 0 && v.reply.Status == tolerated {
				tols++
			}
		}
		return oks >= 1 && oks+tols >= q
	}
}

// Quiesce waits for background broadcast work: straggler votes still in
// flight after an early-quorum return and the read-repairs driven by
// them. Operators and tests call it to observe a settled group; normal
// operation never needs to.
func (g *Group) Quiesce() { g.pending.Wait() }

// tally reduces op votes to quorum semantics: success when a majority
// acked (value = max over acks, covering stragglers that missed earlier
// increments), the replicas' common refusal when a majority responded
// without acking, ErrNoQuorum when too few responded at all.
//
// tolerated (0: none) is the one refusal that counts toward the quorum
// beside at least one OK vote:
//   - statusGone for destroys: a replica that dropped the counter in an
//     earlier partial attempt lets the retry complete. With no OK vote at
//     all the counter is simply gone, and the operation reports
//     ErrCounterNotFound exactly like pse.Service would.
//   - statusNotFound for reads and writes: the voter missed the counter's
//     create, and confirmDurable heals it. Beside an OK this can never
//     reach a quorum for a destroyed counter — a successful destroy
//     leaves tombstones on f+1 replicas — nor for a wrong capability,
//     which no replica acks.
//   - none for creates.
func (g *Group) tally(votes []vote, tolerated byte) (uint32, error) {
	oks, tols, responses := 0, 0, 0
	var maxV uint32
	badCount := make(map[byte]int)
	for _, v := range votes {
		if v.err != nil || v.reply == nil {
			continue
		}
		responses++
		st := v.reply.Status
		if st == statusOK {
			oks++
			if v.reply.Value > maxV {
				maxV = v.reply.Value
			}
			continue
		}
		if tolerated != 0 && st == tolerated {
			tols++
			continue
		}
		badCount[st]++
	}
	if oks >= 1 && oks+tols >= g.Quorum() {
		return maxV, nil
	}
	if responses >= g.Quorum() && oks == 0 {
		// A majority answered and not one replica acked: the refusal is
		// authoritative (e.g. every responder reports the counter
		// destroyed). Report the dominant reason, folding the tolerated
		// refusals (not counted in badCount) back in.
		badCount[tolerated] += tols
		worst, n := byte(0), 0
		for st, c := range badCount {
			if c > n || (c == n && st > worst) {
				worst, n = st, c
			}
		}
		return 0, statusErr(worst)
	}
	// Mixed votes (some acks, but not a quorum): never promote a
	// minority's refusal to an authoritative answer. Fail safe as
	// unavailable instead.
	return 0, fmt.Errorf("%w: %d acks among %d responses from %d replicas, need %d",
		ErrNoQuorum, oks+tols, responses, len(votes), g.Quorum())
}

// statusErr maps a replica refusal onto the pse error a single-machine
// counter service would return.
func statusErr(st byte) error {
	switch st {
	case statusNotFound, statusGone:
		return pse.ErrCounterNotFound
	case statusNotOwner:
		return pse.ErrNotOwner
	case statusOverflow:
		return pse.ErrCounterOverflow
	case statusLimit:
		return pse.ErrCounterLimit
	default:
		return fmt.Errorf("%w: unrecognized replica refusal %d", ErrNoQuorum, st)
	}
}

// sendOp stamps one counter operation with a fresh nonce and broadcasts
// it under the membership read lock — to every member, or only to the
// named ones — collecting votes until early decides (nil: all of them).
func (g *Group) sendOp(m *opMessage, only []string, early func([]vote) bool) ([]vote, <-chan vote, error) {
	nonce, err := newNonce()
	if err != nil {
		return nil, nil, err
	}
	m.Nonce = nonce
	g.memMu.RLock()
	defer g.memMu.RUnlock()
	to := g.members
	if only != nil {
		to = make(map[string]transport.Address, len(only))
		for _, id := range only {
			if addr, ok := g.members[id]; ok {
				to[id] = addr
			}
		}
	}
	votes, late := g.broadcastLocked(to, kindOp, m.encode(), nonce, replyOp, early)
	return votes, late, nil
}

// quorumOp broadcasts one operation and applies the quorum tally,
// returning as soon as the success tally is decidable. A replayed request
// changes nothing at a replica — creates and destroys are idempotent per
// ID, the one counter write is "at least N" — so requests need no dedup
// state replica-side; the nonce's job is making the votes unforgeable.
func (g *Group) quorumOp(m *opMessage, tolerated byte) (uint32, error) {
	votes, _, err := g.sendOp(m, nil, g.successRule(tolerated))
	if err != nil {
		return 0, err
	}
	return g.tally(votes, tolerated)
}

// Create allocates a fresh replicated monotonic counter for the calling
// enclave with initial value 0, committing it on a majority of replicas
// (the enclave path over AdminCreate).
func (g *Group) Create(e *sgx.Enclave) (pse.UUID, uint32, error) {
	if err := e.ECall(); err != nil {
		return pse.UUID{}, 0, err
	}
	uuid, err := g.AdminCreate(e.MREnclave())
	return uuid, 0, err
}

// Increment adds one to the counter, committing on a majority, and
// returns the new value.
func (g *Group) Increment(e *sgx.Enclave, uuid pse.UUID) (uint32, error) {
	return g.IncrementN(e, uuid, 1)
}

// IncrementN adds n to the counter in one replicated transaction,
// committing on a majority, and returns the new value. Increments on one
// counter are coordinator-serialized and written as "advance to issued+n"
// (unique results, like the serial firmware), and the returned value is
// confirmed durable: at least a majority of replicas holds it before the
// call returns, so no single (≤f) failure can make a returned value
// unobservable again. The target of an attempt that failed its quorum
// stays consumed — it may sit on a minority where a read can see it.
func (g *Group) IncrementN(e *sgx.Enclave, uuid pse.UUID, n int) (uint32, error) {
	if n < 1 {
		return 0, fmt.Errorf("%w: %d", pse.ErrBadIncrement, n)
	}
	if uint64(n) > uint64(^uint32(0)) {
		return 0, pse.ErrCounterOverflow
	}
	if err := e.ECall(); err != nil {
		return 0, err
	}
	defer g.opSpan(obs.SpanQuorumIncrement, obs.QuorumIncrement).End()
	st := g.stripe(uuid.ID)
	st.Lock()
	defer st.Unlock()
	rec := st.live[uuid.ID]
	if rec == nil {
		return 0, pse.ErrCounterNotFound
	}
	if uint32(n) > ^uint32(0)-rec.issued {
		return 0, pse.ErrCounterOverflow
	}
	return g.advanceLocked(rec, e.MREnclave(), uuid, rec.issued+uint32(n))
}

// stripe returns the incrMu stripe of a counter ID.
func (g *Group) stripe(id uint32) *counterStripe {
	return &g.incrMu[id%uint32(len(g.incrMu))]
}

// advanceLocked commits "advance to at least n" on a quorum and returns
// the quorum value; the caller holds the stripe of rec, the counter's
// record. n counts as issued unless the replicas refused it outright
// (wrong capability or owner: none of them applied it), so a caller
// without the capability cannot make the owner's counter skip.
func (g *Group) advanceLocked(rec *counterRecord, owner sgx.Measurement, uuid pse.UUID, n uint32) (uint32, error) {
	v, err := g.commitOp(&opMessage{Op: opAdvance, UUID: uuid, Owner: owner, N: n})
	if (err == nil || errors.Is(err, ErrNoQuorum)) && n > rec.issued {
		rec.issued = n
	}
	return v, err
}

// Read returns the counter value: the maximum a majority of replicas
// reports, which by quorum intersection includes every committed
// increment. Before returning, stragglers among the ack set are
// read-repaired up to the returned value, so a value once observed —
// including one applied by a partial, quorum-failed increment — stays
// observable by every later majority: reads are monotonic, not just
// never below the committed value.
func (g *Group) Read(e *sgx.Enclave, uuid pse.UUID) (uint32, error) {
	if err := e.ECall(); err != nil {
		return 0, err
	}
	return g.commitOp(&opMessage{Op: opRead, UUID: uuid, Owner: e.MREnclave()})
}

// Inspect is the operator/monitoring read: it returns the quorum value
// of a counter given its full UUID (the nonce capability) and owner
// identity, without requiring the owning enclave to be alive — how an
// operator verifies that a counter survived its machine.
func (g *Group) Inspect(owner sgx.Measurement, uuid pse.UUID) (uint32, error) {
	return g.commitOp(&opMessage{Op: opRead, UUID: uuid, Owner: owner})
}

// AdminCreate allocates a replicated counter on behalf of the named
// owner identity without the owning enclave being present — the create
// protocol shared by the enclave path (Create) and the provisioning
// primitive of escrow mirroring, where a partner rack creates shadow
// counters for enclaves that live (or lived) in the peer data center.
// The counter is indistinguishable from one the owner created itself:
// the owner identity and the UUID nonce capability are enforced
// replica-side exactly the same way.
func (g *Group) AdminCreate(owner sgx.Measurement) (pse.UUID, error) {
	defer g.opSpan(obs.SpanQuorumCreate, obs.QuorumCreate).End()
	g.ownerMu.Lock()
	// The group's capacity is one facility's worth of counters shared by
	// the whole rack (every replica backs them under its single agent
	// identity); an owner's share is bounded by the same total.
	if g.total >= pse.MaxCounters {
		g.ownerMu.Unlock()
		return pse.UUID{}, pse.ErrCounterLimit
	}
	g.total++
	g.ownerMu.Unlock()
	release := func() {
		g.ownerMu.Lock()
		g.total--
		g.ownerMu.Unlock()
	}
	id := g.nextID.Add(1)
	if id > uint64(^uint32(0)) {
		release()
		return pse.UUID{}, pse.ErrIDsExhausted
	}
	nonce, err := xcrypto.RandomBytes(16)
	if err != nil {
		release()
		return pse.UUID{}, fmt.Errorf("counter nonce: %w", err)
	}
	m := &opMessage{Op: opCreate, Owner: owner}
	m.UUID.ID = uint32(id)
	copy(m.UUID.Nonce[:], nonce)
	if _, err := g.quorumOp(m, 0); err != nil {
		// Partial creates on a minority are rolled back best-effort, and
		// the ID is recorded as aborted: snapshot merges treat it as a
		// tombstone, so a ghost entry the rollback missed is destroyed by
		// the holding replica's next reseed instead of propagating.
		m.Op = opDestroyRead
		_, _ = g.quorumOp(m, statusGone)
		g.recoverMu.Lock()
		g.aborted[m.UUID.ID] = struct{}{}
		g.recoverMu.Unlock()
		release()
		return pse.UUID{}, fmt.Errorf("replicated create: %w", err)
	}
	st := g.stripe(m.UUID.ID)
	st.Lock()
	st.live[m.UUID.ID] = &counterRecord{owner: owner}
	st.Unlock()
	return m.UUID, nil
}

// AdminAdvance raises the counter to at least v on a quorum — the
// mirror's value-synchronization primitive, and the same write increments
// and repairs send. It can never lower a counter, so replaying or
// repeating an advance is harmless. Returns the quorum value after the
// advance.
func (g *Group) AdminAdvance(owner sgx.Measurement, uuid pse.UUID, v uint32) (uint32, error) {
	st := g.stripe(uuid.ID)
	st.Lock()
	defer st.Unlock()
	rec := st.live[uuid.ID]
	if rec == nil {
		return 0, pse.ErrCounterNotFound
	}
	return g.advanceLocked(rec, owner, uuid, v)
}

// AdminDestroy destroys a counter on behalf of the named owner without
// the owning enclave: the operator-grade destroy behind escrow
// decommissioning and federation revocation (a cross-DC recovery
// consumes the origin site's binding counter through it). Semantics are
// exactly DestroyAndRead's: coordinator-serialized, sticky, and the
// returned final value folds in the capture of partial attempts.
func (g *Group) AdminDestroy(owner sgx.Measurement, uuid pse.UUID) (uint32, error) {
	return g.destroyQuorum(owner, uuid)
}

// commitOp is the shared commit sequence of reads and writes: broadcast,
// tally — returning as soon as a quorum of OKs makes the result
// decidable — and confirm the result durable on a majority (repairing
// stragglers) before returning it. Only a complete vote set counts a
// voter that missed the counter's create toward the quorum, as one that
// confirmDurable then heals. Votes that arrive after an early return are
// drained in the background and repaired the same way, so the healing the
// full-wait collection performed still happens; it just no longer sits on
// the caller's latency path (Quiesce observes its completion).
func (g *Group) commitOp(m *opMessage) (uint32, error) {
	votes, late, err := g.sendOp(m, nil, g.successRule(0))
	if err != nil {
		return 0, err
	}
	v, err := g.tally(votes, statusNotFound)
	if err != nil {
		return 0, err // never decided early: the vote set is complete
	}
	g.repairLate(m, late, 2*g.f+1-len(votes), v)
	if err := g.confirmDurable(m, votes, v); err != nil {
		return 0, err
	}
	return v, nil
}

// repairSet collects the voters a commit has to bring up to its value:
// lagging ones hold the counter below it, missing ones never saw the
// counter's create.
type repairSet struct{ lagging, missing []string }

// note files one vote against the commit value v and reports whether the
// voter already holds it.
func (s *repairSet) note(vt *vote, v uint32) bool {
	if vt.err != nil || vt.reply == nil {
		return false
	}
	switch {
	case vt.reply.Status == statusNotFound:
		s.missing = append(s.missing, vt.id)
	case vt.reply.Status != statusOK:
	case vt.reply.Value >= v:
		return true
	default:
		s.lagging = append(s.lagging, vt.id)
	}
	return false
}

// confirmDurable makes the value an operation is about to return
// majority-durable: ack-set members that reported below v (or missed the
// counter's create) are repaired up to it, and unless at least a quorum
// of replicas then holds v, the operation reports ErrNoQuorum instead of
// returning a value a single ≤f failure could make unobservable. The
// common case — all ackers already agree on v — confirms without any
// extra round trip.
func (g *Group) confirmDurable(m *opMessage, votes []vote, v uint32) error {
	confirmed := 0
	var behind repairSet
	for i := range votes {
		if behind.note(&votes[i], v) {
			confirmed++
		}
	}
	for _, vt := range g.repair(&behind, advanceTo(m, v)) {
		if vt.err == nil && vt.reply != nil && vt.reply.Status == statusOK && vt.reply.Value >= v {
			confirmed++
		}
	}
	if confirmed < g.Quorum() {
		return fmt.Errorf("%w: value %d confirmed on %d replicas, need %d",
			ErrNoQuorum, v, confirmed, g.Quorum())
	}
	return nil
}

// advanceTo is the repair that raises m's counter to at least v.
func advanceTo(m *opMessage, v uint32) *opMessage {
	return &opMessage{Op: opAdvance, UUID: m.UUID, Owner: m.Owner, N: v}
}

// repair sends the set's members next — an advance, or the destroy that
// tombstones a destroyed counter — and returns their votes. A member that
// missed the create is sent the idempotent create first: only a repair
// installs a slot, and a repair runs only after a quorum acked the same
// capability — the write itself never does, so a client cannot mint or
// poison a slot with it.
func (g *Group) repair(s *repairSet, next *opMessage) []vote {
	if len(s.lagging)+len(s.missing) == 0 {
		return nil
	}
	if len(s.missing) > 0 {
		g.sendOp(&opMessage{Op: opCreate, UUID: next.UUID, Owner: next.Owner}, s.missing, nil)
	}
	// Best effort: next's votes say whether the repair took.
	votes, _, _ := g.sendOp(next, append(s.lagging, s.missing...), nil)
	return votes
}

// repairLate drains the votes outstanding after an early-quorum return
// and repairs stragglers that answered below the returned value (or
// missed the counter's create entirely) — the same healing the full-wait
// collection performed, off the caller's latency path.
func (g *Group) repairLate(m *opMessage, late <-chan vote, outstanding int, v uint32) {
	if late == nil || outstanding <= 0 {
		return
	}
	g.pending.Add(1)
	go func() {
		defer g.pending.Done()
		var behind repairSet
		for i := 0; i < outstanding; i++ {
			vt := <-late
			behind.note(&vt, v)
		}
		g.repair(&behind, advanceTo(m, v))
	}()
}

// Destroy permanently removes a replicated counter.
func (g *Group) Destroy(e *sgx.Enclave, uuid pse.UUID) error {
	_, err := g.DestroyAndRead(e, uuid)
	return err
}

// DestroyAndRead destroys the counter on a majority of replicas and
// returns the maximum final value reported. Like the firmware
// primitive, the destroy is sticky: once a majority has dropped the
// counter, no operation on its UUID can ever succeed again, and a
// minority replica that still holds it is cleaned up on its next reseed.
//
// A destroy that fails its quorum may still have dropped the counter on
// the replicas that acked — and their finals may be the only copies of
// the latest committed increments. Those finals are kept in the
// counter's record and folded into the retry's result, so the capture a
// migration freeze records never regresses below an acknowledged
// increment (R4) even when the retry's own acks come from stragglers.
func (g *Group) DestroyAndRead(e *sgx.Enclave, uuid pse.UUID) (uint32, error) {
	if err := e.ECall(); err != nil {
		return 0, err
	}
	return g.destroyQuorum(e.MREnclave(), uuid)
}

// destroyQuorum is the quorum destroy shared by DestroyAndRead (enclave
// path) and AdminDestroy (operator path).
func (g *Group) destroyQuorum(owner sgx.Measurement, uuid pse.UUID) (uint32, error) {
	defer g.opSpan(obs.SpanQuorumDestroyRead, obs.QuorumDestroyRead).End()
	g.destroyMu.Lock()
	defer g.destroyMu.Unlock()
	st := g.stripe(uuid.ID)
	st.Lock()
	rec := st.live[uuid.ID]
	st.Unlock()
	if rec == nil {
		// Never created, or already destroyed: the firmware singleton's
		// answer to a second destroy, given without asking the replicas.
		return 0, pse.ErrCounterNotFound
	}
	// Destroys never return early: destruction must be sticky the moment
	// the call returns (an op racing a straggler's late destroy-apply
	// would see a live counter), and the capture needs every OK vote. One
	// hung peer costing a rare, once-per-lifetime destroy its transport
	// deadline is the right trade; the hot ops (create/increment/read/
	// escrow) are the ones that return on quorum.
	m := &opMessage{Op: opDestroyRead, UUID: uuid, Owner: owner}
	votes, _, err := g.sendOp(m, nil, nil)
	if err != nil {
		return 0, err
	}
	var final uint32
	var missed repairSet
	for _, vt := range votes {
		switch {
		case vt.err != nil || vt.reply == nil:
		case vt.reply.Status == statusOK:
			final = max(final, vt.reply.Value)
		case vt.reply.Status == statusNotFound:
			missed.missing = append(missed.missing, vt.id)
		}
	}
	v, err := g.tally(votes, statusGone)
	st.Lock()
	rec.captured = max(rec.captured, final)
	v = max(v, rec.captured)
	if err == nil {
		delete(st.live, uuid.ID)
	}
	st.Unlock()
	if err != nil {
		return 0, err
	}
	g.ownerMu.Lock()
	g.total--
	g.ownerMu.Unlock()
	// A voter that missed the create gets it now, then the destroy: its
	// tombstone turns the straggling create away (statusGone) instead of
	// letting it install a live ghost slot.
	g.repair(&missed, m)
	return v, nil
}

// TotalLive returns the number of live replicated counters in the group.
func (g *Group) TotalLive() int {
	g.ownerMu.Lock()
	defer g.ownerMu.Unlock()
	return g.total
}

// Count returns the number of live replicated counters owned by the
// given identity.
func (g *Group) Count(owner sgx.Measurement) int {
	n := 0
	for i := range g.incrMu {
		st := &g.incrMu[i]
		st.Lock()
		for _, rec := range st.live {
			if rec.owner == owner {
				n++
			}
		}
		st.Unlock()
	}
	return n
}

// collectLocked gathers snapshots from the given members and merges them
// into a per-counter maximum, requiring at least minResponses snapshots.
// Callers hold memMu for writing.
func (g *Group) collectLocked(members map[string]transport.Address, minResponses int) (*syncMessage, error) {
	nonce, err := newNonce()
	if err != nil {
		return nil, err
	}
	req := (&opMessage{Op: opSnapshot, Nonce: nonce}).encode()
	// Reconfiguration snapshots always wait for every member: missing a
	// slow replica's higher value here would seed the target low (still
	// forward-only, but needlessly behind), and reseeds/handoffs are rare
	// enough to pay the full deadline.
	votes, _ := g.broadcastLocked(members, kindOp, req, nonce, replySnap, nil)
	merged := &syncMessage{}
	byID := make(map[uint32]*syncEntry)
	dead := make(map[uint32]bool)
	escBest := make(map[escrowKey]*escrowEntry)
	responses := 0
	for _, v := range votes {
		if v.err != nil || v.snap == nil {
			continue
		}
		responses++
		for i := range v.snap.Entries {
			e := v.snap.Entries[i]
			if cur, ok := byID[e.UUID.ID]; ok {
				if e.Value > cur.Value {
					cur.Value = e.Value
				}
			} else {
				byID[e.UUID.ID] = &e
			}
		}
		for _, id := range v.snap.Tombstones {
			dead[id] = true
		}
		for i := range v.snap.Escrows {
			e := &v.snap.Escrows[i]
			k := escrowKey{owner: e.Owner, id: e.ID}
			if cur, ok := escBest[k]; !ok || e.Version > cur.Version {
				escBest[k] = e
			}
		}
	}
	if responses < minResponses {
		return nil, fmt.Errorf("%w: %d snapshot responses, need %d", ErrNoQuorum, responses, minResponses)
	}
	// Aborted creates count as tombstones too: a ghost entry their
	// rollback missed must be destroyed by the reseed target, not
	// re-propagated as live state.
	g.recoverMu.Lock()
	for id := range g.aborted {
		dead[id] = true
	}
	g.recoverMu.Unlock()
	for id, e := range byID {
		// A tombstone from any replica outranks a live entry from a
		// stale one: destruction is sticky.
		if !dead[id] {
			merged.Entries = append(merged.Entries, *e)
		}
	}
	for id := range dead {
		merged.Tombstones = append(merged.Tombstones, id)
	}
	for _, e := range escBest {
		merged.Escrows = append(merged.Escrows, *e)
	}
	sort.Slice(merged.Entries, func(i, j int) bool { return merged.Entries[i].UUID.ID < merged.Entries[j].UUID.ID })
	sort.Slice(merged.Tombstones, func(i, j int) bool { return merged.Tombstones[i] < merged.Tombstones[j] })
	sort.Slice(merged.Escrows, func(i, j int) bool {
		a, b := &merged.Escrows[i], &merged.Escrows[j]
		if a.Owner != b.Owner {
			return string(a.Owner[:]) < string(b.Owner[:])
		}
		return string(a.ID[:]) < string(b.ID[:])
	})
	return merged, nil
}

// Reseed re-seeds a member replica that rejoined after a machine restart
// from the rest of the group, then lets it serve again. It needs
// snapshots from at least f of the other members: together with the
// rejoining replica's own durable state that covers f+1 replicas, and
// every committed operation lives on at least f+1, so none can be
// missed. Values only move forward on the target, so a reseed can never
// regress a counter. Reconfiguration holds the membership lock, so no
// commit is collecting votes while the snapshot is taken (writes still on
// the wire from earlier commits are harmless, see memMu).
func (g *Group) Reseed(id string) error {
	g.memMu.Lock()
	defer g.memMu.Unlock()
	target, ok := g.members[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownReplica, id)
	}
	others := make(map[string]transport.Address, len(g.members)-1)
	for mid, addr := range g.members {
		if mid != id {
			others[mid] = addr
		}
	}
	snap, err := g.collectLocked(others, g.f)
	if err != nil {
		return fmt.Errorf("reseed %s: %w", id, err)
	}
	if err := g.seedReplica(target, id, snap); err != nil {
		return fmt.Errorf("reseed %s: %w", id, err)
	}
	return nil
}

// ErrEscrowNotFound reports an escrow lookup for which no quorum member
// holds a record.
var ErrEscrowNotFound = errors.New("pserepl: no escrowed state for this enclave instance")

// ErrEscrowDecommissioned reports a lookup of an escrow record the
// operator has tombstoned (Decommission): the instance is terminated
// for good and can never be resurrected.
var ErrEscrowDecommissioned = errors.New("pserepl: escrow record decommissioned")

// ErrEscrowSuperseded reports a put refused by a quorum because a newer
// record is already stored (a lost race with a recovery's re-escrow or
// a decommission tombstone).
var ErrEscrowSuperseded = errors.New("pserepl: escrow record superseded on a quorum")

// EscrowTombstoneVersion is the version a decommission tombstone is
// stored at: it dominates every real version (libraries advance their
// binding from 0 one persist at a time and can never reach it), so the
// store's ordinary forward-only supersede rule makes the tombstone
// permanent — it rides snapshots, reseeds, and handoffs like any other
// record, and no later put can displace it.
const EscrowTombstoneVersion = ^uint32(0)

// EscrowSealer returns the rack escrow key's statesealer, provisioned to
// enclaves on rack-associated machines at launch (the cloud layer's
// secure setup phase, like Migration Enclave credentials).
func (g *Group) EscrowSealer() *seal.StateSealer { return g.escrowSealer }

// SetEscrowObserver installs a hook called after every successfully
// committed escrow put (including tombstones), with the record's owner,
// instance ID, and version. The federation mirror uses it to learn which
// records changed and re-push them to the partner site asynchronously;
// the hook runs on the putter's goroutine and must only enqueue.
func (g *Group) SetEscrowObserver(fn func(owner sgx.Measurement, id [16]byte, version uint32)) {
	g.recoverMu.Lock()
	g.escrowObs = fn
	g.recoverMu.Unlock()
}

// SetEscrowAuditor installs a second, independent hook on committed
// escrow puts, alongside the observer: the chaos invariant checker uses
// it to record every committed (owner, id, version) without displacing
// the federation mirror, which holds the observer slot on mirrored
// groups. Same contract as the observer: runs on the putter's goroutine,
// must only record.
func (g *Group) SetEscrowAuditor(fn func(owner sgx.Measurement, id [16]byte, version uint32)) {
	g.recoverMu.Lock()
	g.escrowAud = fn
	g.recoverMu.Unlock()
}

// notifyEscrow invokes the escrow observer and auditor, if any.
func (g *Group) notifyEscrow(owner sgx.Measurement, id [16]byte, version uint32) {
	g.recoverMu.Lock()
	fn, aud := g.escrowObs, g.escrowAud
	g.recoverMu.Unlock()
	if fn != nil {
		fn(owner, id, version)
	}
	if aud != nil {
		aud(owner, id, version)
	}
}

// EscrowTombstone permanently decommissions an escrow record on the
// quorum: a nil-blob entry at EscrowTombstoneVersion supersedes every
// real version and is carried through snapshots and reseeds like any
// record, so the instance can never be resurrected from this store
// again. Lookups of a tombstoned instance report ErrEscrowDecommissioned.
func (g *Group) EscrowTombstone(owner sgx.Measurement, id [16]byte) error {
	return g.escrowCommit(&escrowEntry{Owner: owner, ID: id, Version: EscrowTombstoneVersion})
}

// EscrowPut stores one enclave instance's escrow record on the rack,
// committing it on a quorum of replicas (core.StateEscrow). Replicas
// supersede strictly by version, so the store itself is forward-only; a
// put refused as stale everywhere means a newer record is already
// escrowed (a lost race with a recovery's re-escrow).
func (g *Group) EscrowPut(owner sgx.Measurement, id [16]byte, version uint32, bind pse.UUID, blob []byte) error {
	if version == EscrowTombstoneVersion {
		return fmt.Errorf("pserepl: version %d is reserved for decommission tombstones", version)
	}
	return g.escrowCommit(&escrowEntry{Owner: owner, ID: id, Version: version, Bind: bind, Blob: blob})
}

// escrowCommit commits one escrow entry (record or tombstone) on a
// quorum and notifies the escrow observer on success.
func (g *Group) escrowCommit(entry *escrowEntry) error {
	defer g.opSpan(obs.SpanQuorumEscrowPut, obs.QuorumEscrowPut).End()
	nonce, err := newNonce()
	if err != nil {
		return err
	}
	m := &escrowMessage{
		Op:    escrowPut,
		Entry: *entry,
		Nonce: nonce,
	}
	q := g.Quorum()
	early := func(votes []vote) bool {
		oks := 0
		for i := range votes {
			if votes[i].esc != nil && votes[i].esc.Status == statusOK {
				oks++
			}
		}
		return oks >= q
	}
	g.memMu.RLock()
	votes, _ := g.broadcastLocked(g.members, kindEscrow, m.encode(), nonce, replyEscrow, early)
	g.memMu.RUnlock()
	oks, stales := 0, 0
	for i := range votes {
		if votes[i].esc == nil {
			continue
		}
		switch votes[i].esc.Status {
		case statusOK:
			oks++
		case statusStale:
			stales++
		}
	}
	if oks >= q {
		if entry.Version == EscrowTombstoneVersion {
			g.obs.Load().o.Event(obs.EventEscrowTombstone, "group:"+g.name,
				fmt.Sprintf("escrow %x decommissioned", entry.ID[:4]), obs.TraceContext{})
		}
		g.notifyEscrow(entry.Owner, entry.ID, entry.Version)
		return nil
	}
	if stales >= q {
		g.obs.Load().o.Event(obs.EventEscrowSupersede, "group:"+g.name,
			fmt.Sprintf("escrow %x put at version %d refused: superseded by a newer record", entry.ID[:4], entry.Version),
			obs.TraceContext{})
		return fmt.Errorf("%w: version %d", ErrEscrowSuperseded, entry.Version)
	}
	return fmt.Errorf("%w: escrow put acked by %d of %d replicas, need %d",
		ErrNoQuorum, oks, len(votes), q)
}

// EscrowGet fetches the highest-version escrow record a quorum of
// replicas holds for the instance (core.StateEscrow). By quorum
// intersection the result includes the newest committed record; a newer
// partially-stored record (its put failed mid-quorum) may be returned
// too, which is exactly right — the binding counter already advanced to
// its version, so only it can win a recovery.
func (g *Group) EscrowGet(owner sgx.Measurement, id [16]byte) (uint32, pse.UUID, []byte, error) {
	defer g.opSpan(obs.SpanQuorumEscrowGet, obs.QuorumEscrowGet).End()
	nonce, err := newNonce()
	if err != nil {
		return 0, pse.UUID{}, nil, err
	}
	m := &escrowMessage{Op: escrowGet, Entry: escrowEntry{Owner: owner, ID: id}, Nonce: nonce}
	q := g.Quorum()
	early := func(votes []vote) bool {
		responses := 0
		for i := range votes {
			if votes[i].esc != nil {
				responses++
			}
		}
		return responses >= q
	}
	g.memMu.RLock()
	votes, _ := g.broadcastLocked(g.members, kindEscrow, m.encode(), nonce, replyEscrow, early)
	g.memMu.RUnlock()
	responses := 0
	var best *escrowEntry
	for i := range votes {
		e := votes[i].esc
		if e == nil {
			continue
		}
		responses++
		if e.Status == statusOK && (best == nil || e.Entry.Version > best.Version) {
			best = &votes[i].esc.Entry
		}
	}
	if responses < q {
		return 0, pse.UUID{}, nil, fmt.Errorf("%w: %d escrow responses, need %d",
			ErrNoQuorum, responses, q)
	}
	if best == nil {
		return 0, pse.UUID{}, nil, ErrEscrowNotFound
	}
	if best.Blob == nil {
		// A decommission tombstone: the record is gone for good, not
		// merely absent.
		return 0, pse.UUID{}, nil, ErrEscrowDecommissioned
	}
	return best.Version, best.Bind, best.Blob, nil
}

// Handoff transfers the replica role of member oldID to the fresh
// replica newRep (drain path: the old machine leaves the rack). The new
// replica starts empty, so the snapshot needs a full majority (f+1) of
// the current members; it is seeded with the quorum's maxima and swapped
// in atomically with respect to commits (the membership lock is held
// throughout). The caller retires the old replica afterwards.
func (g *Group) Handoff(oldID string, newRep *Replica) error {
	g.memMu.Lock()
	defer g.memMu.Unlock()
	if _, ok := g.members[oldID]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownReplica, oldID)
	}
	if _, dup := g.members[newRep.ID()]; dup {
		return fmt.Errorf("%w: %q already a member", ErrBadReplication, newRep.ID())
	}
	snap, err := g.collectLocked(g.members, g.Quorum())
	if err != nil {
		return fmt.Errorf("handoff %s->%s: %w", oldID, newRep.ID(), err)
	}
	newRep.join(g.sealer)
	if err := g.seedReplica(newRep.Address(), newRep.ID(), snap); err != nil {
		return fmt.Errorf("handoff %s->%s: %w", oldID, newRep.ID(), err)
	}
	delete(g.members, oldID)
	g.members[newRep.ID()] = newRep.Address()
	g.setObserverLocked(g.obs.Load().o)
	return nil
}
