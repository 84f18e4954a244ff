// Package core implements the paper's contribution: a framework for
// migrating SGX enclaves with persistent state (sealed data and monotonic
// counters) between physical machines.
//
// It has two components, exactly as in the paper's §V:
//
//   - Library: the Migration Library that an enclave developer links into
//     a migratable enclave. It provides migratable versions of the SGX
//     sealing functions (under a Migration Sealing Key, MSK) and of the
//     monotonic counter operations (wrapping hardware counters with a
//     migratable offset), plus the migration_init and migration_start
//     entry points of Listing 1.
//   - MigrationEnclave: the per-machine enclave that locally attests
//     application enclaves, mutually remote-attests and provider-
//     authenticates the peer Migration Enclave, and store-and-forwards
//     migration data (Fig. 1, Fig. 2).
//
// Security requirements R1-R4 of §IV map onto this package as follows:
// R1 through the construction of the migratable primitives from native
// ones; R2 through provider credentials checked during remote
// attestation; R3 through destroy-before-export of source counters plus
// the persisted freeze flag and single-delivery at the destination; R4
// through migrating effective counter values as fresh offsets.
package core

import (
	"errors"
	"fmt"

	"repro/internal/pse"
	"repro/internal/sgx"
	"repro/internal/wirec"
)

// NumCounters is the number of counter slots the library manages (the
// SGX per-enclave limit; the library wraps rather than replaces hardware
// counters, so the limit is unchanged — paper §VI-B).
const NumCounters = pse.MaxCounters

// MSKSize is the Migration Sealing Key size in bytes (128-bit, Table I).
const MSKSize = 16

// Data-structure errors.
var (
	ErrDataFormat = errors.New("core: malformed migration data")
)

// MigrationData is the migrated payload, exactly Table I of the paper:
// the set of active counters, their effective values (to be installed as
// offsets on the destination), and the MSK. The source Migration Enclave
// appends the enclave's MRENCLAVE for destination matching (§VI-A).
type MigrationData struct {
	// CountersActive marks which counter slots are in use (Table I:
	// "counters active", bool[256]).
	CountersActive [NumCounters]bool
	// CounterValues holds the effective counter values at migration time;
	// the destination uses them as its new offsets (Table I: "counter
	// values", uint32[256], "Used as next offset").
	CounterValues [NumCounters]uint32
	// MSK is the Migration Sealing Key (Table I: 128-bit SGX key).
	MSK [MSKSize]byte
}

// migrationDataSize is the exact encoded size of MigrationData: header,
// active bitmap, 256 counter words, MSK.
const migrationDataSize = 2 + NumCounters/8 + 4*NumCounters + MSKSize

// appendMigrationData is the allocation-free inner encoder shared with the
// envelope codec.
func (d *MigrationData) append(dst []byte) []byte {
	dst = wirec.AppendHeader(dst, tagMigrationData, wireVersion)
	dst = appendBitmap(dst, &d.CountersActive)
	for _, v := range d.CounterValues {
		dst = wirec.AppendU32(dst, v)
	}
	return append(dst, d.MSK[:]...)
}

// decodeInto parses migration data from the reader's cursor.
func (d *MigrationData) decodeInto(rd *wireReader) {
	if !rd.Header(tagMigrationData, wireVersion) {
		return
	}
	rd.bitmap(&d.CountersActive)
	for i := range d.CounterValues {
		d.CounterValues[i] = rd.U32()
	}
	copy(d.MSK[:], rd.Take(MSKSize))
}

// Encode serializes migration data for transfer over the attested channel.
func (d *MigrationData) Encode() ([]byte, error) {
	return d.append(make([]byte, 0, migrationDataSize)), nil
}

// DecodeMigrationData parses migration data.
func DecodeMigrationData(raw []byte) (*MigrationData, error) {
	var d MigrationData
	rd := newWireReader(raw)
	d.decodeInto(&rd)
	if err := rd.done(); err != nil {
		return nil, err
	}
	return &d, nil
}

// libraryState is the Migration Library's internal persistent data,
// exactly Table II of the paper. It is sealed with the enclave's native
// sealing key and handed to the untrusted application for storage; it is
// reloaded and unsealed on every enclave restart.
type libraryState struct {
	// Frozen is the freeze flag for migration (Table II: uint8). Once
	// set, the library refuses to operate, including after restarts from
	// this blob.
	Frozen uint8
	// CountersActive marks used counter slots.
	CountersActive [NumCounters]bool
	// CounterUUIDs holds the SGX counter UUIDs so the library can access
	// (and on migration, destroy) the hardware counters.
	CounterUUIDs [NumCounters]pse.UUID
	// CounterOffsets holds the migratable offsets added to the hardware
	// values to form effective values.
	CounterOffsets [NumCounters]uint32
	// MSK is the Migration Sealing Key used by migratable sealing.
	MSK [MSKSize]byte
	// EscrowID identifies this enclave instance in the rack escrow (zero
	// when the library does not escrow its state).
	EscrowID [16]byte
	// BindUUID is the replicated binding counter every escrowed state
	// version is rollback-bound to; BindVer is the counter value at the
	// latest persist. Recovery must win the counter's DestroyAndRead at
	// exactly BindVer.
	BindUUID pse.UUID
	BindVer  uint32
}

// uuidSize is the encoded size of one pse.UUID (ID word plus nonce).
const uuidSize = 4 + 16

// libraryStateSize is the exact encoded size of libraryState.
const libraryStateSize = 2 + 1 + NumCounters/8 + NumCounters*uuidSize + 4*NumCounters + MSKSize +
	16 + uuidSize + 4

func (s *libraryState) encode() ([]byte, error) {
	out := make([]byte, 0, libraryStateSize)
	out = wirec.AppendHeader(out, tagLibraryState, wireVersion)
	out = append(out, s.Frozen)
	out = appendBitmap(out, &s.CountersActive)
	for i := range s.CounterUUIDs {
		out = wirec.AppendU32(out, s.CounterUUIDs[i].ID)
		out = append(out, s.CounterUUIDs[i].Nonce[:]...)
	}
	for _, v := range s.CounterOffsets {
		out = wirec.AppendU32(out, v)
	}
	out = append(out, s.MSK[:]...)
	out = append(out, s.EscrowID[:]...)
	out = wirec.AppendU32(out, s.BindUUID.ID)
	out = append(out, s.BindUUID.Nonce[:]...)
	return wirec.AppendU32(out, s.BindVer), nil
}

func decodeLibraryState(raw []byte) (*libraryState, error) {
	var s libraryState
	rd := newWireReader(raw)
	if !rd.Header(tagLibraryState, wireVersion) {
		return nil, rd.errState()
	}
	s.Frozen = rd.U8()
	rd.bitmap(&s.CountersActive)
	for i := range s.CounterUUIDs {
		s.CounterUUIDs[i].ID = rd.U32()
		copy(s.CounterUUIDs[i].Nonce[:], rd.Take(16))
	}
	for i := range s.CounterOffsets {
		s.CounterOffsets[i] = rd.U32()
	}
	copy(s.MSK[:], rd.Take(MSKSize))
	copy(s.EscrowID[:], rd.Take(16))
	s.BindUUID.ID = rd.U32()
	copy(s.BindUUID.Nonce[:], rd.Take(16))
	s.BindVer = rd.U32()
	if err := rd.done(); err != nil {
		return nil, err
	}
	return &s, nil
}

// migrationEnvelope is what actually travels between Migration Enclaves:
// the migration data plus the source enclave's MRENCLAVE (appended by the
// source ME for destination matching) and the source ME's address (for
// the DONE confirmation) and completion token.
type migrationEnvelope struct {
	Data      *MigrationData
	MREnclave sgx.Measurement
	SourceME  string
	DoneToken []byte
}

func (e *migrationEnvelope) encode() ([]byte, error) {
	if e.Data == nil {
		return nil, fmt.Errorf("%w: missing data", ErrDataFormat)
	}
	out := make([]byte, 0, 2+migrationDataSize+len(sgx.Measurement{})+8+len(e.SourceME)+len(e.DoneToken))
	out = wirec.AppendHeader(out, tagEnvelope, wireVersion)
	out = e.Data.append(out)
	out = append(out, e.MREnclave[:]...)
	out = wirec.AppendString(out, e.SourceME)
	out = wirec.AppendBytes(out, e.DoneToken)
	return out, nil
}

func decodeEnvelope(raw []byte) (*migrationEnvelope, error) {
	e := migrationEnvelope{Data: &MigrationData{}}
	rd := newWireReader(raw)
	if !rd.Header(tagEnvelope, wireVersion) {
		return nil, rd.errState()
	}
	e.Data.decodeInto(&rd)
	copy(e.MREnclave[:], rd.Take(len(e.MREnclave)))
	e.SourceME = rd.String()
	e.DoneToken = rd.Bytes()
	if err := rd.done(); err != nil {
		return nil, err
	}
	return &e, nil
}
