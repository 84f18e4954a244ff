package core

import (
	"errors"
	"fmt"

	"repro/internal/pse"
	"repro/internal/seal"
	"repro/internal/sgx"
	"repro/internal/wirec"
)

// Escrow errors.
var (
	// ErrNoEscrow reports an escrow operation on a library that has no
	// escrow service configured (the machine is not rack-associated).
	ErrNoEscrow = errors.New("core: no state escrow configured")
	// ErrEscrowInvalid reports an escrow record that failed authentication
	// or consistency checks: forged, corrupted, or mix-and-matched fields.
	ErrEscrowInvalid = errors.New("core: escrow record failed authentication")
	// ErrEscrowStale reports an escrow record whose binding-counter value
	// does not match the replicated counter: a replayed old state version
	// must never be resurrected (rollback protection for the Table II
	// blob itself).
	ErrEscrowStale = errors.New("core: escrow record does not match the replicated binding counter")
	// ErrEscrowConsumed reports a recovery whose binding counter is
	// already destroyed: the state was recovered (or migrated away)
	// before, and a second resurrection would fork the enclave.
	ErrEscrowConsumed = errors.New("core: escrow binding counter already destroyed; state was recovered or migrated")
	// ErrRecoveredAway reports a library whose state was recovered on
	// another machine while this copy was thought dead: the binding
	// counter is gone, so this copy freezes and must never operate again.
	ErrRecoveredAway = errors.New("core: state was recovered on another machine; this copy is frozen")
	// ErrStateStale reports a restore from a sealed blob older than the
	// binding counter says is current: the untrusted storage replayed
	// stale persistent state.
	ErrStateStale = errors.New("core: sealed library state is stale (binding counter ahead of blob)")
)

// StateEscrow is the rack escrow service the Migration Library pushes its
// sealed Table II blob to on every update: durable storage that — unlike
// the machine-local Storage — survives the machine, because it is backed
// by the rack's replicated counter group (implemented by *pserepl.Group).
// The escrow service is untrusted for everything but availability: blobs
// are sealed, and freshness/single-use come from the binding counter, not
// from the store.
type StateEscrow interface {
	// EscrowPut stores (or supersedes) the escrow record for one enclave
	// instance, committing it on a quorum of rack replicas.
	EscrowPut(owner sgx.Measurement, id [16]byte, version uint32, bind pse.UUID, blob []byte) error
	// EscrowGet fetches the highest-version escrow record a quorum of
	// replicas holds for the instance.
	EscrowGet(owner sgx.Measurement, id [16]byte) (version uint32, bind pse.UUID, blob []byte, err error)
}

// escrowStateAAD labels the MSK-sealed Table II blob inside an escrow
// record, so an escrowed blob can never be confused with (or substituted
// for) a locally persisted one.
var escrowStateAAD = []byte("escrowed-library-state")

// escrowKeyAAD binds the wrapped MSK to every field of its escrow record:
// owner identity, escrow instance, state version, and the binding
// counter's full UUID. Any mix-and-match of a key box with other record
// fields fails AEAD authentication.
func escrowKeyAAD(owner sgx.Measurement, id [16]byte, version uint32, bind pse.UUID) []byte {
	const label = "escrow-msk"
	out := make([]byte, 0, len(label)+len(owner)+len(id)+4+4+len(bind.Nonce))
	out = append(out, label...)
	out = append(out, owner[:]...)
	out = append(out, id[:]...)
	out = wirec.AppendU32(out, version)
	out = wirec.AppendU32(out, bind.ID)
	return append(out, bind.Nonce[:]...)
}

// encodeEscrowRecord frames the two sealed components of an escrow
// record: the key box (MSK wrapped under the rack escrow key) and the
// state blob (Table II state sealed under the MSK by the shared
// statesealer).
func encodeEscrowRecord(keyBox, state []byte) []byte {
	out := make([]byte, 0, 2+4+len(keyBox)+4+len(state))
	out = wirec.AppendHeader(out, tagEscrowRecord, wireVersion)
	out = wirec.AppendBytes(out, keyBox)
	return wirec.AppendBytes(out, state)
}

// decodeEscrowRecord parses an escrow record fetched from the (untrusted)
// escrow store. The returned slices alias the input.
func decodeEscrowRecord(raw []byte) (keyBox, state []byte, err error) {
	rd := newWireReader(raw)
	if !rd.Header(tagEscrowRecord, wireVersion) {
		return nil, nil, rd.errState()
	}
	keyBox = rd.Bytes()
	state = rd.Bytes()
	if err := rd.done(); err != nil {
		return nil, nil, err
	}
	return keyBox, state, nil
}

// EnableEscrow wires the library to its rack's escrow service and escrow
// sealing key before Init (or Recover). The rack sealer is provisioned to
// the enclave during the secure setup phase, exactly like Migration
// Enclave credentials and replica group keys: the cloud layer installs it
// in-process when the app is launched on a rack-associated machine.
//
// With escrow enabled, every persisted Table II blob is additionally
// migratable-sealed and pushed to the rack, rollback-bound to a dedicated
// replicated binding counter — so the state survives this CPU, and a dead
// machine's enclaves can be resurrected on any rack peer (Recover).
func (l *Library) EnableEscrow(esc StateEscrow, rack *seal.StateSealer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.escrow = esc
	l.rack = rack
}

// EscrowID returns the library's escrow instance ID (valid once the
// library is initialized with escrow enabled). The cloud layer records it
// per app so a dead machine's enclaves can be looked up in the rack
// escrow.
func (l *Library) EscrowID() ([16]byte, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.escrow == nil || !l.initialized.Load() {
		return [16]byte{}, false
	}
	return l.st.EscrowID, true
}

// escrowPushLocked seals the encoded Table II state for the rack and puts
// it to the escrow store at the library's current binding version.
// Callers hold mu, have escrow configured, and have already advanced
// st.BindVer to the version being pushed.
func (l *Library) escrowPushLocked(rawState []byte) error {
	sealedState, err := l.mskSealer.Seal(escrowStateAAD, rawState)
	if err != nil {
		return fmt.Errorf("seal escrow state: %w", err)
	}
	owner := l.enclave.MREnclave()
	keyBox, err := l.rack.Wrap(l.st.MSK[:], escrowKeyAAD(owner, l.st.EscrowID, l.st.BindVer, l.st.BindUUID))
	if err != nil {
		return fmt.Errorf("wrap MSK for escrow: %w", err)
	}
	rec := encodeEscrowRecord(keyBox, sealedState)
	if err := l.escrow.EscrowPut(owner, l.st.EscrowID, l.st.BindVer, l.st.BindUUID, rec); err != nil {
		return fmt.Errorf("escrow state blob: %w", err)
	}
	return nil
}

// openEscrowRecordRaw is the shared record authentication behind library
// recovery, escrow decommissioning, and federation mirroring. It does
// NOT reject frozen records — callers decide what a frozen (migrated-
// away) record means for them. Every caller runs inside a trusted
// component that legitimately holds the rack escrow key: the recovering
// library, or the operator's decommission/mirror agent enclave the key
// was provisioned to.
func openEscrowRecordRaw(rack *seal.StateSealer, owner sgx.Measurement, escrowID [16]byte, ver uint32, bind pse.UUID, blob []byte) (*libraryState, *seal.StateSealer, error) {
	keyBox, sealedState, err := decodeEscrowRecord(blob)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrEscrowInvalid, err)
	}
	msk, err := rack.Unwrap(keyBox, escrowKeyAAD(owner, escrowID, ver, bind))
	if err != nil || len(msk) != MSKSize {
		return nil, nil, fmt.Errorf("%w: key box rejected", ErrEscrowInvalid)
	}
	mskSealer, err := seal.NewStateSealer(msk)
	if err != nil {
		return nil, nil, fmt.Errorf("msk cipher: %w", err)
	}
	raw, aad, err := mskSealer.Unseal(sealedState)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: state blob rejected", ErrEscrowInvalid)
	}
	if string(aad) != string(escrowStateAAD) {
		return nil, nil, fmt.Errorf("%w: wrong state blob label", ErrEscrowInvalid)
	}
	st, err := decodeLibraryState(raw)
	if err != nil {
		return nil, nil, err
	}
	if st.EscrowID != escrowID || st.BindUUID != bind || st.BindVer != ver ||
		string(st.MSK[:]) != string(msk) {
		return nil, nil, fmt.Errorf("%w: record fields disagree with sealed state", ErrEscrowInvalid)
	}
	return st, mskSealer, nil
}
