package pserepl

import (
	"fmt"

	"repro/internal/pse"
	"repro/internal/sgx"
	"repro/internal/wirec"
)

// Replication wire format: tagged, versioned binary messages in the
// internal/core/wire.go style, built on the shared wirec primitives.
// Everything that crosses the messenger between a Group coordinator and
// its Replicas is one of five values:
//
//   - opMessage:     one counter operation (create/advance/read/
//     destroy-read) or a snapshot request, addressed by the replicated
//     UUID and stamped with the owner identity.
//   - opReply:       the replica's status + local counter value.
//   - syncMessage:   a full counter-table (+ escrow-store) snapshot —
//     the reply to a snapshot request, and (re-tagged only by the
//     message kind it rides under) the payload of a reseed.
//   - escrowMessage: one state-escrow store operation (put/get) for a
//     sealed Table II blob, keyed by owner identity + escrow instance.
//   - escrowReply:   the replica's answer, with the stored record on
//     gets.
//
// The bytes cross the untrusted network; replicas validate every field
// and the decoders never panic, whatever the input (see the fuzz
// harnesses).

// Wire type tags (0xC* block: counter replication).
const (
	tagOp          byte = 0xC1
	tagOpReply     byte = 0xC2
	tagSync        byte = 0xC3
	tagEscrow      byte = 0xC4
	tagEscrowReply byte = 0xC5
)

// wireVersion is the current replication format version, bumped on any
// layout change so messages from a different build are rejected cleanly.
// Version 2 added the state-escrow messages and the escrow entries in
// snapshots/reseeds; version 3 removed the relative increment (op 2 of
// version 2) and renumbered the ops, so a coordinator still speaking
// version 2 is refused whole rather than half-understood; version 4
// dropped the snapshot's ID high-water mark, which no decision read.
const wireVersion byte = 4

// Message kinds on the transport.Messenger.
const (
	kindOp     = "ctr-op"
	kindReseed = "ctr-reseed"
	kindEscrow = "ctr-escrow"
)

// Replicated counter operations.
const (
	opCreate byte = iota + 1
	opRead
	opDestroyRead
	opSnapshot
	// opChallenge fetches the replica's current reseed challenge (the
	// only operation an unsynced replica answers besides the reseed
	// itself).
	opChallenge
	// opAdvance raises a counter to at least N: the only counter write.
	// Increments (N = one above everything issued before), repairs and
	// mirror syncs all send it; it is forward-only and idempotent, so late,
	// repeated and reordered deliveries commute.
	opAdvance
)

// Reply statuses. Transport-level failures (dead machine, unreachable
// endpoint) travel as Send errors and never count toward a quorum;
// these statuses are the votes of replicas that did respond.
const (
	statusOK byte = iota + 1
	statusNotFound
	statusNotOwner
	statusOverflow
	statusLimit
	statusGone  // counter already destroyed on this replica (final value lost)
	statusStale // escrow put at or below the stored version (escrow replies only)
)

// opMessage is one replicated counter operation sent to a replica.
type opMessage struct {
	Op    byte
	UUID  pse.UUID
	Owner sgx.Measurement
	// N is the value opAdvance raises the counter to; unused otherwise.
	N uint32
	// Nonce is the per-request freshness value; the replica echoes it in
	// its (sealed) reply, so a recorded vote from an earlier request can
	// never be replayed to fake an ack for this one.
	Nonce uint64
}

// opMessageSize is the exact encoded size of an opMessage.
const opMessageSize = 2 + 1 + 4 + 16 + 32 + 4 + 8

func (m *opMessage) encode() []byte {
	out := make([]byte, 0, opMessageSize)
	out = wirec.AppendHeader(out, tagOp, wireVersion)
	out = append(out, m.Op)
	out = wirec.AppendU32(out, m.UUID.ID)
	out = append(out, m.UUID.Nonce[:]...)
	out = append(out, m.Owner[:]...)
	out = wirec.AppendU32(out, m.N)
	return wirec.AppendU64(out, m.Nonce)
}

func decodeOpMessage(raw []byte) (*opMessage, error) {
	var m opMessage
	rd := wirec.NewReader(raw)
	if !rd.Header(tagOp, wireVersion) {
		return nil, fmt.Errorf("%w: %v", ErrWireFormat, rd.Err())
	}
	m.Op = rd.U8()
	m.UUID.ID = rd.U32()
	copy(m.UUID.Nonce[:], rd.Take(16))
	copy(m.Owner[:], rd.Take(32))
	m.N = rd.U32()
	m.Nonce = rd.U64()
	if err := rd.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrWireFormat, err)
	}
	if m.Op < opCreate || m.Op > opAdvance {
		return nil, fmt.Errorf("%w: unknown op %d", ErrWireFormat, m.Op)
	}
	return &m, nil
}

// opReply is a replica's vote on one operation.
type opReply struct {
	Status byte
	// Value is the replica's local hardware counter value after the
	// operation (the final value, for destroy-read).
	Value uint32
	// Nonce echoes the request's freshness value.
	Nonce uint64
}

// opReplySize is the exact encoded size of an opReply.
const opReplySize = 2 + 1 + 4 + 8

func (m *opReply) encode() []byte {
	out := make([]byte, 0, opReplySize)
	out = wirec.AppendHeader(out, tagOpReply, wireVersion)
	out = append(out, m.Status)
	out = wirec.AppendU32(out, m.Value)
	return wirec.AppendU64(out, m.Nonce)
}

func decodeOpReply(raw []byte) (*opReply, error) {
	var m opReply
	rd := wirec.NewReader(raw)
	if !rd.Header(tagOpReply, wireVersion) {
		return nil, fmt.Errorf("%w: %v", ErrWireFormat, rd.Err())
	}
	m.Status = rd.U8()
	m.Value = rd.U32()
	m.Nonce = rd.U64()
	if err := rd.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrWireFormat, err)
	}
	if m.Status < statusOK || m.Status > statusGone {
		return nil, fmt.Errorf("%w: unknown status %d", ErrWireFormat, m.Status)
	}
	return &m, nil
}

// syncEntry is one counter in a snapshot or reseed payload.
type syncEntry struct {
	UUID  pse.UUID
	Owner sgx.Measurement
	Value uint32
}

// syncMessage is a counter-table snapshot: every live counter and the
// explicit tombstones of destroyed ones. As a snapshot reply it reports
// one replica's state; as a reseed payload it carries the quorum's
// per-counter maximum and the union of tombstones.
// Destruction travels only as an explicit tombstone — absence from a
// snapshot is never proof a counter was destroyed, because a minority of
// replicas can miss a committed create.
type syncMessage struct {
	Entries []syncEntry
	// Tombstones lists destroyed counter IDs.
	Tombstones []uint32
	// Escrows carries the replica's state-escrow records, merged by
	// highest version during reseeds/handoffs so escrowed blobs follow
	// the membership like counter values do.
	Escrows []escrowEntry
	// Challenge binds a reseed payload to one freshness challenge drawn
	// from the target replica (opChallenge), so a recorded reseed cannot
	// be replayed at a replica later, when its content would be stale.
	// Snapshot replies leave it zero; challenge replies carry only it.
	Challenge [16]byte
	// Nonce echoes the requesting message's freshness value (snapshot
	// and challenge replies).
	Nonce uint64
}

// syncEntrySize is the encoded size of one syncEntry.
const syncEntrySize = 4 + 16 + 32 + 4

// maxSyncEntries bounds a decoded snapshot's entry and tombstone lists.
// A group holds at most pse.MaxCounters live counters, but the tombstone
// list grows with the destroys over a group's lifetime; this generous
// cap only defends the decoder against length-bomb allocations.
const maxSyncEntries = 1 << 20

func (m *syncMessage) encode() []byte {
	escSize := 0
	for i := range m.Escrows {
		escSize += escrowEntryMinSize + len(m.Escrows[i].Blob)
	}
	out := make([]byte, 0, 2+4+len(m.Entries)*syncEntrySize+4+4*len(m.Tombstones)+4+escSize+16+8)
	out = wirec.AppendHeader(out, tagSync, wireVersion)
	out = wirec.AppendU32(out, uint32(len(m.Entries)))
	for i := range m.Entries {
		e := &m.Entries[i]
		out = wirec.AppendU32(out, e.UUID.ID)
		out = append(out, e.UUID.Nonce[:]...)
		out = append(out, e.Owner[:]...)
		out = wirec.AppendU32(out, e.Value)
	}
	out = wirec.AppendU32(out, uint32(len(m.Tombstones)))
	for _, id := range m.Tombstones {
		out = wirec.AppendU32(out, id)
	}
	out = wirec.AppendU32(out, uint32(len(m.Escrows)))
	for i := range m.Escrows {
		out = m.Escrows[i].append(out)
	}
	out = append(out, m.Challenge[:]...)
	return wirec.AppendU64(out, m.Nonce)
}

func decodeSyncMessage(raw []byte) (*syncMessage, error) {
	var m syncMessage
	rd := wirec.NewReader(raw)
	if !rd.Header(tagSync, wireVersion) {
		return nil, fmt.Errorf("%w: %v", ErrWireFormat, rd.Err())
	}
	n := rd.U32()
	if n > maxSyncEntries {
		return nil, fmt.Errorf("%w: snapshot claims %d entries", ErrWireFormat, n)
	}
	if rd.Err() == nil && n > 0 {
		if !rd.CanHold(n, syncEntrySize) {
			return nil, fmt.Errorf("%w: snapshot claims %d entries in %d bytes", ErrWireFormat, n, rd.Remaining())
		}
		m.Entries = make([]syncEntry, 0, n)
	}
	for i := uint32(0); i < n; i++ {
		var e syncEntry
		e.UUID.ID = rd.U32()
		copy(e.UUID.Nonce[:], rd.Take(16))
		copy(e.Owner[:], rd.Take(32))
		e.Value = rd.U32()
		if rd.Err() != nil {
			break
		}
		m.Entries = append(m.Entries, e)
	}
	nt := rd.U32()
	if nt > maxSyncEntries {
		return nil, fmt.Errorf("%w: snapshot claims %d tombstones", ErrWireFormat, nt)
	}
	if rd.Err() == nil && nt > 0 {
		if !rd.CanHold(nt, 4) {
			return nil, fmt.Errorf("%w: snapshot claims %d tombstones in %d bytes", ErrWireFormat, nt, rd.Remaining())
		}
		m.Tombstones = make([]uint32, 0, nt)
	}
	for i := uint32(0); i < nt; i++ {
		id := rd.U32()
		if rd.Err() != nil {
			break
		}
		m.Tombstones = append(m.Tombstones, id)
	}
	ne := rd.U32()
	if ne > maxSyncEntries {
		return nil, fmt.Errorf("%w: snapshot claims %d escrows", ErrWireFormat, ne)
	}
	if rd.Err() == nil && ne > 0 {
		if !rd.CanHold(ne, escrowEntryMinSize) {
			return nil, fmt.Errorf("%w: snapshot claims %d escrows in %d bytes", ErrWireFormat, ne, rd.Remaining())
		}
		m.Escrows = make([]escrowEntry, 0, ne)
	}
	for i := uint32(0); i < ne; i++ {
		var e escrowEntry
		e.decodeInto(rd)
		if rd.Err() != nil {
			break
		}
		m.Escrows = append(m.Escrows, e)
	}
	copy(m.Challenge[:], rd.Take(16))
	m.Nonce = rd.U64()
	if err := rd.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrWireFormat, err)
	}
	return &m, nil
}

// escrowEntry is one enclave instance's state-escrow record: the sealed
// Table II blob (opaque to the replication layer) plus the clear fields
// the store orders and looks it up by. Freshness and single use are
// enforced by the binding counter at recovery time, not by the store —
// the entry's Version exists so replicas keep the newest record and
// supersede older ones.
type escrowEntry struct {
	Owner   sgx.Measurement
	ID      [16]byte
	Version uint32
	Bind    pse.UUID
	Blob    []byte
}

// escrowEntryMinSize is the encoded size of an escrowEntry with an empty
// blob (the minimum bytes one entry occupies on the wire).
const escrowEntryMinSize = 32 + 16 + 4 + 4 + 16 + 4

func (e *escrowEntry) append(out []byte) []byte {
	out = append(out, e.Owner[:]...)
	out = append(out, e.ID[:]...)
	out = wirec.AppendU32(out, e.Version)
	out = wirec.AppendU32(out, e.Bind.ID)
	out = append(out, e.Bind.Nonce[:]...)
	return wirec.AppendBytes(out, e.Blob)
}

func (e *escrowEntry) decodeInto(rd *wirec.Reader) {
	copy(e.Owner[:], rd.Take(32))
	copy(e.ID[:], rd.Take(16))
	e.Version = rd.U32()
	e.Bind.ID = rd.U32()
	copy(e.Bind.Nonce[:], rd.Take(16))
	e.Blob = rd.Bytes()
}

// escrowMessage is one escrow-store operation sent to a replica.
type escrowMessage struct {
	// Op is escrowPut or escrowGet.
	Op byte
	// Entry carries the record to store (put) or the lookup key in
	// Owner/ID (get, with the other fields zero).
	Entry escrowEntry
	// Nonce is the per-request freshness value, echoed in the sealed
	// reply like every other replication exchange.
	Nonce uint64
}

// Escrow-store operations.
const (
	escrowPut byte = iota + 1
	escrowGet
)

func (m *escrowMessage) encode() []byte {
	out := make([]byte, 0, 2+1+escrowEntryMinSize+len(m.Entry.Blob)+8)
	out = wirec.AppendHeader(out, tagEscrow, wireVersion)
	out = append(out, m.Op)
	out = m.Entry.append(out)
	return wirec.AppendU64(out, m.Nonce)
}

func decodeEscrowMessage(raw []byte) (*escrowMessage, error) {
	var m escrowMessage
	rd := wirec.NewReader(raw)
	if !rd.Header(tagEscrow, wireVersion) {
		return nil, fmt.Errorf("%w: %v", ErrWireFormat, rd.Err())
	}
	m.Op = rd.U8()
	m.Entry.decodeInto(rd)
	m.Nonce = rd.U64()
	if err := rd.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrWireFormat, err)
	}
	if m.Op != escrowPut && m.Op != escrowGet {
		return nil, fmt.Errorf("%w: unknown escrow op %d", ErrWireFormat, m.Op)
	}
	return &m, nil
}

// escrowReply is a replica's answer to an escrow-store operation: its
// status plus, for gets, the stored record.
type escrowReply struct {
	Status byte
	Entry  escrowEntry
	Nonce  uint64
}

func (m *escrowReply) encode() []byte {
	out := make([]byte, 0, 2+1+escrowEntryMinSize+len(m.Entry.Blob)+8)
	out = wirec.AppendHeader(out, tagEscrowReply, wireVersion)
	out = append(out, m.Status)
	out = m.Entry.append(out)
	return wirec.AppendU64(out, m.Nonce)
}

func decodeEscrowReply(raw []byte) (*escrowReply, error) {
	var m escrowReply
	rd := wirec.NewReader(raw)
	if !rd.Header(tagEscrowReply, wireVersion) {
		return nil, fmt.Errorf("%w: %v", ErrWireFormat, rd.Err())
	}
	m.Status = rd.U8()
	m.Entry.decodeInto(rd)
	m.Nonce = rd.U64()
	if err := rd.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrWireFormat, err)
	}
	if m.Status < statusOK || m.Status > statusStale {
		return nil, fmt.Errorf("%w: unknown escrow status %d", ErrWireFormat, m.Status)
	}
	return &m, nil
}
