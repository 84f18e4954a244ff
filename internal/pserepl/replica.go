package pserepl

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"sync"

	"repro/internal/pse"
	"repro/internal/sgx"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/xcrypto"
)

// Replica-side errors. These cross the messenger as transport-level
// failures (not opReply votes), so the coordinator never counts an
// unavailable or unsynced replica toward a quorum.
var (
	// ErrReplicaDown reports a replica whose agent enclave is dead (its
	// machine was killed or restarted and not yet recovered).
	ErrReplicaDown = errors.New("pserepl: replica agent enclave is down")
	// ErrReplicaUnsynced reports a replica that rejoined after a restart
	// and has not been re-seeded from the quorum yet; serving ops in that
	// state could vote with stale values.
	ErrReplicaUnsynced = errors.New("pserepl: replica awaiting reseed; not serving")
	// ErrNotJoined reports traffic at a replica that has not been joined
	// to a group (no group key installed).
	ErrNotJoined = errors.New("pserepl: replica not joined to a group")
	// ErrBadAuth reports a replication message that failed to
	// authenticate under the group key, or a reseed whose freshness
	// challenge does not match: forged, corrupted, or replayed network
	// traffic.
	ErrBadAuth = errors.New("pserepl: replication message failed authentication")
)

// agentVersion is the replica agent enclave's code version. All replicas
// of all groups run the same agent image, so a restarted machine's fresh
// agent instance measures identically and can access the hardware
// counters its predecessor created.
const agentVersion = 1

// agentSignerKey derives the deterministic signing identity of the
// replica agent image (architectural-enclave style: the key is fixed so
// MRSIGNER matches across machines and restarts).
func agentSignerKey() ed25519.PublicKey {
	seedKey := xcrypto.DeriveKey([]byte("pserepl-agent-signer"), "ed25519-seed")
	priv := ed25519.NewKeyFromSeed(seedKey[:])
	return priv.Public().(ed25519.PublicKey)
}

// AgentImage returns the replica agent enclave image: the small trusted
// component that applies replicated counter operations to the machine's
// local Platform Services facility on behalf of remote coordinators.
func AgentImage() *sgx.Image {
	return &sgx.Image{
		Name:            "pserepl-agent",
		Version:         agentVersion,
		Code:            []byte("pserepl agent: apply replicated counter ops to the local PSE"),
		SignerPublicKey: agentSignerKey(),
	}
}

// replicaSlot is a replica's bookkeeping for one replicated counter: the
// group UUID's nonce capability, the owner identity it enforces, the
// local hardware counter backing it on this machine, and that counter's
// value. Only the agent can touch its local counters, so what the
// firmware last returned (0 at create, an increment's result, a reseed's
// read) is what it holds: a write is one firmware transaction, no read.
type replicaSlot struct {
	nonce [16]byte
	owner sgx.Measurement
	local pse.UUID
	value uint32
}

// Replica serves one machine's share of a replicated counter group. It
// applies operations received over the messenger to the machine's local
// pse.Service through a small agent enclave.
//
// Liveness model: the agent enclave dies with its machine (sgx.Machine
// restart destroys all enclaves), which makes every replicated operation
// on this replica fail at the ECALL — exactly how a dead machine stops
// acking. The slot table and the hardware counters themselves are
// firmware/disk-backed state and survive the reboot (the agent seals its
// table like the Migration Library seals its state); what a rejoining
// replica is missing is the operations committed while it was away,
// which Group.Reseed makes up by raising it to the quorum's values.
type Replica struct {
	id   string
	hw   *sgx.Machine
	svc  *pse.Service
	msgr transport.Messenger
	addr transport.Address

	mu     sync.Mutex
	agent  *sgx.Enclave
	synced bool
	// sealer holds the group key, installed in-process when the replica
	// joins a group (the secure provisioning phase, like Migration
	// Enclave credentials). Every replication message is AEAD-sealed
	// under it, so the untrusted network can neither read the UUID nonce
	// capabilities nor forge operations, reseeds, or votes.
	sealer *xcrypto.Sealer
	// challenge is the current reseed freshness nonce: a reseed payload
	// must quote it (fetched via opChallenge) to be applied, and it is
	// rotated on every restart and every applied reseed, so recorded
	// reseed messages cannot be replayed at a stale replica.
	challenge [16]byte
	table     map[uint32]*replicaSlot
	// destroyed holds explicit tombstones for counters this replica
	// destroyed or learned destroyed from a reseed. Unlike pse.Service,
	// absence below the high-water mark is not proof of destruction here
	// (concurrent creates broadcast out of ID order), so the set is
	// explicit — and, like the Migration Enclave's restored-token
	// tombstones, retained for the replica's lifetime: dropping an entry
	// would reopen the window in which a stale peer snapshot resurrects
	// the destroyed counter. It grows by one small entry per destroy the
	// replica ever sees, the price of keeping destruction sticky.
	destroyed map[uint32]struct{}
	// escrows is the replica's share of the rack's state-escrow store:
	// the newest escrow record per enclave instance. Like the slot table
	// it is conceptually sealed to disk and survives restarts; puts
	// supersede strictly by version, so a replayed older record can never
	// displace a newer one here. The records are opaque sealed bytes —
	// freshness and single use are enforced by the binding counter at
	// recovery, the store only provides machine-failure-surviving
	// availability.
	escrows map[escrowKey]*escrowEntry
	closed  bool
}

// escrowKey identifies one enclave instance's escrow slot.
type escrowKey struct {
	owner sgx.Measurement
	id    [16]byte
}

// NewReplica loads the agent enclave on the machine and registers the
// replica's handler on the messenger. The replica starts unsynced; the
// Group marks it serving once it has been seeded (Group.add does this
// for brand-new members, Group.Reseed for rejoining ones).
func NewReplica(id string, hw *sgx.Machine, svc *pse.Service, msgr transport.Messenger, addr transport.Address) (*Replica, error) {
	agent, err := hw.Load(AgentImage())
	if err != nil {
		return nil, fmt.Errorf("load replica agent: %w", err)
	}
	r := &Replica{
		id:        id,
		hw:        hw,
		svc:       svc,
		msgr:      msgr,
		addr:      addr,
		agent:     agent,
		table:     make(map[uint32]*replicaSlot),
		destroyed: make(map[uint32]struct{}),
		escrows:   make(map[escrowKey]*escrowEntry),
	}
	if err := r.rotateChallengeLocked(); err != nil {
		hw.Destroy(agent)
		return nil, err
	}
	if err := msgr.Register(addr, r.handle); err != nil {
		hw.Destroy(agent)
		return nil, fmt.Errorf("register replica: %w", err)
	}
	return r, nil
}

// rotateChallengeLocked draws a fresh reseed challenge. Callers hold
// r.mu (or have exclusive access during construction).
func (r *Replica) rotateChallengeLocked() error {
	nonce, err := xcrypto.RandomBytes(16)
	if err != nil {
		return fmt.Errorf("replica challenge: %w", err)
	}
	copy(r.challenge[:], nonce)
	return nil
}

// join installs the group key. Called in-process by the Group when the
// replica becomes a member (NewGroup, Handoff) — the trusted
// provisioning step; everything after it rides the sealed channel.
func (r *Replica) join(sealer *xcrypto.Sealer) {
	r.mu.Lock()
	r.sealer = sealer
	r.mu.Unlock()
}

// ID returns the replica identifier (its machine ID, by convention).
func (r *Replica) ID() string { return r.id }

// Address returns the replica's messenger address.
func (r *Replica) Address() transport.Address { return r.addr }

// Synced reports whether the replica is serving (seeded and caught up).
func (r *Replica) Synced() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.synced
}

// Restart reloads the agent enclave after a machine reboot. The replica
// stays unsynced — and therefore refuses to serve or vote — until the
// group re-seeds it from the quorum's state.
func (r *Replica) Restart() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return errors.New("pserepl: replica retired")
	}
	agent, err := r.hw.Load(AgentImage())
	if err != nil {
		return fmt.Errorf("reload replica agent: %w", err)
	}
	if err := r.rotateChallengeLocked(); err != nil {
		r.hw.Destroy(agent)
		return err
	}
	r.agent = agent
	r.synced = false
	return nil
}

// Close retires the replica: it stops serving, unregisters its address,
// and destroys the agent enclave. The local hardware counters it created
// stay behind, stranded but harmless (their group moved on).
func (r *Replica) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.synced = false
	agent := r.agent
	r.mu.Unlock()
	r.msgr.Unregister(r.addr)
	if agent != nil && agent.Alive() {
		r.hw.Destroy(agent)
	}
}

// aadReq and aadRep bind a sealed payload to its direction, message
// kind, and the replica it addresses, so a recorded message can be
// replayed neither as a reply, nor under a different kind, nor at (or
// as) a different replica.
func aadReq(kind, replicaID string) []byte { return []byte("pserepl-req/" + kind + "/" + replicaID) }
func aadRep(kind, replicaID string) []byte { return []byte("pserepl-rep/" + kind + "/" + replicaID) }

// handle is the replica's messenger endpoint: it authenticates and
// decodes one replication message, applies it through the agent enclave,
// and seals the vote. Traffic that fails authentication under the group
// key is rejected before anything else — the network is untrusted, and
// nothing on it may destroy counters, mark a stale replica serving, or
// learn the UUID nonce capabilities.
func (r *Replica) handle(msg transport.Message) ([]byte, error) {
	// The apply cost is the agent's replication bookkeeping (open and
	// verify the sealed message, validate the group UUID and owner,
	// update the slot table) — charged on this machine, separately from
	// the firmware counter transaction itself.
	r.hw.Latency().Charge(sim.OpReplicaApply)
	r.mu.Lock()
	sealer := r.sealer
	r.mu.Unlock()
	if sealer == nil {
		return nil, ErrNotJoined
	}
	payload, err := sealer.Open(msg.Payload, aadReq(msg.Kind, r.id))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadAuth, err)
	}
	var reply []byte
	switch msg.Kind {
	case kindOp:
		reply, err = r.handleOp(payload)
	case kindReseed:
		reply, err = r.handleReseed(payload)
	case kindEscrow:
		reply, err = r.handleEscrow(payload)
	default:
		return nil, fmt.Errorf("%w: unknown kind %q", ErrWireFormat, msg.Kind)
	}
	if err != nil {
		return nil, err
	}
	sealed, err := sealer.Seal(reply, aadRep(msg.Kind, r.id))
	if err != nil {
		return nil, fmt.Errorf("seal reply: %w", err)
	}
	return sealed, nil
}

// checkServing validates the replica can vote. Callers hold r.mu.
func (r *Replica) checkServingLocked() error {
	if r.closed || r.agent == nil || !r.agent.Alive() {
		return ErrReplicaDown
	}
	if !r.synced {
		return ErrReplicaUnsynced
	}
	return nil
}

func (r *Replica) handleOp(payload []byte) ([]byte, error) {
	m, err := decodeOpMessage(payload)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.Op == opChallenge {
		// The one request an unsynced replica answers (besides the
		// reseed itself): hand out the current freshness challenge.
		if r.closed || r.agent == nil || !r.agent.Alive() {
			return nil, ErrReplicaDown
		}
		return (&syncMessage{Challenge: r.challenge, Nonce: m.Nonce}).encode(), nil
	}
	if m.Op == opSnapshot {
		// Snapshots are served even before a reseed: they report the
		// replica's DURABLE state, which is exactly what reseed merges
		// consume — the target's own durable table participates the same
		// way, and the merge is forward-only per counter with explicit
		// tombstones, so an out-of-date snapshot can contribute stale
		// entries but never displace newer ones. This is what makes a
		// full-rack cold restart (every replica down at once, e.g. a site
		// loss that heals) recoverable: after all agents reload, the
		// replicas re-seed each other from the union of their durable
		// states, which covers every committed operation (each lives on
		// f+1 durable tables).
		if r.closed || r.agent == nil || !r.agent.Alive() {
			return nil, ErrReplicaDown
		}
		snap := r.snapshotLocked()
		snap.Nonce = m.Nonce
		return snap.encode(), nil
	}
	if err := r.checkServingLocked(); err != nil {
		return nil, err
	}
	reply := r.applyLocked(m)
	reply.Nonce = m.Nonce
	return reply.encode(), nil
}

// applyLocked applies one counter operation. Callers hold r.mu.
func (r *Replica) applyLocked(m *opMessage) *opReply {
	if m.UUID.ID == 0 {
		return &opReply{Status: statusNotFound}
	}
	slot, live := r.table[m.UUID.ID]
	if m.Op == opCreate {
		if live {
			// Duplicate create (a retried broadcast): idempotent if the
			// capability matches, refused otherwise.
			if slot.nonce == m.UUID.Nonce && slot.owner == m.Owner {
				return &opReply{Status: statusOK}
			}
			return &opReply{Status: statusNotOwner}
		}
		if _, dead := r.destroyed[m.UUID.ID]; dead {
			// The ID was issued here and destroyed. Never resurrect.
			return &opReply{Status: statusGone}
		}
		local, _, err := r.svc.Create(r.agent)
		if err != nil {
			return errReply(err)
		}
		r.table[m.UUID.ID] = &replicaSlot{nonce: m.UUID.Nonce, owner: m.Owner, local: local}
		return &opReply{Status: statusOK}
	}

	if !live {
		if _, dead := r.destroyed[m.UUID.ID]; dead {
			return &opReply{Status: statusGone}
		}
		// Only opCreate installs a slot: a write naming a counter this
		// replica never saw is refused, whatever capability it carries.
		return &opReply{Status: statusNotFound}
	}
	// The nonce is the capability, the owner the identity check — both
	// enforced replica-side so a coordinator cannot be tricked into
	// operating on someone else's counter.
	if slot.nonce != m.UUID.Nonce {
		return &opReply{Status: statusNotFound}
	}
	if slot.owner != m.Owner {
		return &opReply{Status: statusNotOwner}
	}

	switch m.Op {
	case opRead:
		v, err := r.svc.Read(r.agent, slot.local)
		if err != nil {
			return errReply(err)
		}
		return &opReply{Status: statusOK, Value: v}
	case opAdvance:
		v, err := r.raiseLocked(slot, m.N)
		if err != nil {
			return errReply(err)
		}
		return &opReply{Status: statusOK, Value: v}
	case opDestroyRead:
		final, err := r.svc.DestroyAndRead(r.agent, slot.local)
		if err != nil {
			return errReply(err)
		}
		delete(r.table, m.UUID.ID)
		r.destroyed[m.UUID.ID] = struct{}{}
		return &opReply{Status: statusOK, Value: final}
	default:
		return &opReply{Status: statusNotFound}
	}
}

// raiseLocked raises the slot's local counter to at least n and returns
// its value — the one way a counter value moves on a replica (client
// writes, repairs and reseeds alike). Forward-only and idempotent: a
// late, repeated or replayed write is a no-op. Callers hold r.mu.
func (r *Replica) raiseLocked(slot *replicaSlot, n uint32) (uint32, error) {
	if slot.value < n {
		v, err := r.svc.IncrementN(r.agent, slot.local, int(n-slot.value))
		if err != nil {
			return slot.value, err
		}
		slot.value = v
	}
	return slot.value, nil
}

// handleEscrow applies one escrow-store operation. Puts supersede
// strictly by version (a replayed older record gets statusStale and
// changes nothing); gets return the stored record or statusNotFound.
func (r *Replica) handleEscrow(payload []byte) ([]byte, error) {
	m, err := decodeEscrowMessage(payload)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.checkServingLocked(); err != nil {
		return nil, err
	}
	key := escrowKey{owner: m.Entry.Owner, id: m.Entry.ID}
	switch m.Op {
	case escrowPut:
		if cur, ok := r.escrows[key]; ok && m.Entry.Version <= cur.Version {
			return (&escrowReply{Status: statusStale, Nonce: m.Nonce}).encode(), nil
		}
		stored := m.Entry
		stored.Blob = append([]byte(nil), m.Entry.Blob...) // decode aliases the wire buffer
		r.escrows[key] = &stored
		return (&escrowReply{Status: statusOK, Nonce: m.Nonce}).encode(), nil
	default: // escrowGet (decode validated the op)
		cur, ok := r.escrows[key]
		if !ok {
			return (&escrowReply{Status: statusNotFound, Nonce: m.Nonce}).encode(), nil
		}
		return (&escrowReply{Status: statusOK, Entry: *cur, Nonce: m.Nonce}).encode(), nil
	}
}

// errReply maps a local pse.Service error onto a vote status.
func errReply(err error) *opReply {
	switch {
	case errors.Is(err, pse.ErrCounterOverflow):
		return &opReply{Status: statusOverflow}
	case errors.Is(err, pse.ErrCounterLimit), errors.Is(err, pse.ErrIDsExhausted):
		return &opReply{Status: statusLimit}
	case errors.Is(err, pse.ErrNotOwner):
		return &opReply{Status: statusNotOwner}
	default:
		return &opReply{Status: statusNotFound}
	}
}

// snapshotLocked reports the replica's live table and its explicit
// tombstones. Callers hold r.mu.
func (r *Replica) snapshotLocked() *syncMessage {
	snap := &syncMessage{}
	for id, slot := range r.table {
		v, err := r.svc.Read(r.agent, slot.local)
		if err != nil {
			continue // local counter unreadable; peers still cover it
		}
		snap.Entries = append(snap.Entries, syncEntry{
			UUID:  pse.UUID{ID: id, Nonce: slot.nonce},
			Owner: slot.owner,
			Value: v,
		})
	}
	for id := range r.destroyed {
		snap.Tombstones = append(snap.Tombstones, id)
	}
	for _, e := range r.escrows {
		snap.Escrows = append(snap.Escrows, *e)
	}
	return snap
}

// handleReseed applies a quorum snapshot: missing counters are created,
// every listed counter is raised to the quorum value, counters the quorum
// destroyed are destroyed locally. Values only ever move forward and
// locally known tombstones are never overridden, so a reseed can neither
// make a counter regress nor resurrect one. A successful reseed marks the
// replica serving and rotates the freshness challenge.
func (r *Replica) handleReseed(payload []byte) ([]byte, error) {
	m, err := decodeSyncMessage(payload)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.agent == nil || !r.agent.Alive() {
		return nil, ErrReplicaDown
	}
	if m.Challenge != r.challenge {
		// Stale or replayed reseed: it was not built for this replica's
		// current incarnation.
		return nil, fmt.Errorf("%w: reseed challenge mismatch", ErrBadAuth)
	}
	inSync := make(map[uint32]bool, len(m.Entries))
	for i := range m.Entries {
		e := &m.Entries[i]
		if e.UUID.ID == 0 {
			return nil, fmt.Errorf("%w: reseed entry with id 0", ErrWireFormat)
		}
		if _, dead := r.destroyed[e.UUID.ID]; dead {
			// This replica destroyed the counter; a stale peer snapshot
			// listing it live must not resurrect it (destruction is
			// sticky).
			continue
		}
		inSync[e.UUID.ID] = true
		slot, ok := r.table[e.UUID.ID]
		if !ok {
			local, _, err := r.svc.Create(r.agent)
			if err != nil {
				return nil, fmt.Errorf("reseed create: %w", err)
			}
			slot = &replicaSlot{nonce: e.UUID.Nonce, owner: e.Owner, local: local}
			r.table[e.UUID.ID] = slot
		}
		// The firmware, not the table carried across the restart, says
		// where the local counter stands.
		if slot.value, err = r.svc.Read(r.agent, slot.local); err != nil {
			return nil, fmt.Errorf("reseed read: %w", err)
		}
		if _, err := r.raiseLocked(slot, e.Value); err != nil {
			return nil, fmt.Errorf("reseed advance: %w", err)
		}
	}
	// Apply the quorum's explicit tombstones: counters destroyed while
	// this replica was away. Absence from the entry list alone is never
	// treated as destruction — a minority of replicas can miss a
	// committed create, and destroying on absence would lose it here.
	// The payload's tombstones merge into the local set; like the
	// Migration Enclave's restored-token tombstones, entries are retained
	// for the replica's lifetime, because dropping one would reopen the
	// window in which a stale peer resurrects the destroyed counter.
	for _, id := range m.Tombstones {
		if slot, ok := r.table[id]; ok && !inSync[id] {
			if err := r.svc.Destroy(r.agent, slot.local); err == nil {
				delete(r.table, id)
			}
		}
		if _, live := r.table[id]; !live {
			r.destroyed[id] = struct{}{}
		}
	}
	// Merge escrow records by version: a rejoining or fresh replica picks
	// up the records committed while it was away. Version comparison is
	// forward-only here too, so a stale peer snapshot cannot displace a
	// newer record.
	for i := range m.Escrows {
		e := &m.Escrows[i]
		key := escrowKey{owner: e.Owner, id: e.ID}
		if cur, ok := r.escrows[key]; ok && e.Version <= cur.Version {
			continue
		}
		stored := *e
		stored.Blob = append([]byte(nil), e.Blob...)
		r.escrows[key] = &stored
	}
	if err := r.rotateChallengeLocked(); err != nil {
		return nil, err
	}
	r.synced = true
	return (&opReply{Status: statusOK, Nonce: m.Nonce}).encode(), nil
}
