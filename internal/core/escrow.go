package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/pse"
	"repro/internal/seal"
	"repro/internal/sgx"
	"repro/internal/wirec"
	"repro/internal/xcrypto"
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

// initEscrowLocked sets up the escrow identity of a fresh library state
// (InitNew, InitMigrated, and the re-binding step of Recover): a random
// escrow instance ID when none is set, and a fresh replicated binding
// counter. Callers hold mu and have escrow configured.
func (l *Library) initEscrowLocked() error {
	if l.st.EscrowID == ([16]byte{}) {
		idBytes, err := randomEscrowID()
		if err != nil {
			return err
		}
		l.st.EscrowID = idBytes
	}
	bind, _, err := l.counters.Create(l.enclave)
	if err != nil {
		return fmt.Errorf("create escrow binding counter: %w", err)
	}
	l.st.BindUUID = bind
	l.st.BindVer = 0
	return nil
}

// releaseEscrowBindingLocked destroys the library's binding counter,
// best-effort — the cleanup path of an initialization that created one
// and then failed before the library ever served. Callers hold mu.
func (l *Library) releaseEscrowBindingLocked() {
	if l.escrow == nil || l.st.BindUUID.ID == 0 {
		return
	}
	_, _ = l.counters.DestroyAndRead(l.enclave, l.st.BindUUID)
	l.st.BindUUID = pse.UUID{}
	l.st.BindVer = 0
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

// Recover is the restart-anywhere entry point: it initializes the library
// from the rack-escrowed state of a dead machine's enclave instead of
// local sealed storage or a migration. The caller (the cloud operator's
// recovery path) names the escrow instance; the library fetches the
// escrow record from the quorum, authenticates and unseals it through the
// rack key and the MSK, and — before operating — must WIN the binding
// counter's DestroyAndRead at exactly the sealed version:
//
//   - a forged or tampered record fails AEAD authentication (ErrEscrowInvalid);
//   - a replayed stale record's version is below the live counter
//     (ErrEscrowStale) — and the counter is read before it is destroyed,
//     so a stale record cannot burn the fresh one's binding;
//   - a second resurrection (or recovery of a migrated-away enclave)
//     finds the binding counter destroyed (ErrEscrowConsumed).
//
// Winning the destroy establishes single use exactly like a migration
// freeze: of any set of racing recoveries, the replicated group's
// coordinator-serialized destroy lets exactly one capture the counter at
// the sealed value. The winner re-binds to a fresh counter (version
// continues monotonically), re-seals natively on the new CPU, and
// re-escrows.
func (l *Library) Recover(me *MigrationEnclave, escrowID [16]byte) error {
	return l.RecoverCtx(obs.TraceContext{}, me, escrowID)
}

// RecoverCtx is Recover under an existing trace context: the recovery
// spans (escrow fetch, binding win, resume) join the caller's trace.
func (l *Library) RecoverCtx(tc obs.TraceContext, me *MigrationEnclave, escrowID [16]byte) error {
	if err := l.enclave.ECall(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.initialized.Load() {
		return ErrAlreadyInitialized
	}
	if l.escrow == nil || l.rack == nil {
		return ErrNoEscrow
	}
	if me == nil {
		return errors.New("core: migration enclave required")
	}
	sp, tc := l.obs.StartSpan(obs.SpanLibRecover, tc)
	if sp != nil {
		sp.Site = l.actor()
		defer sp.End()
	}
	session, sessionID, err := me.ConnectLocal(l.enclave)
	if err != nil {
		return fmt.Errorf("attest migration enclave: %w", err)
	}
	l.me, l.session, l.sessionID = me, session, sessionID

	owner := l.enclave.MREnclave()
	getSp, _ := l.obs.StartSpan(obs.SpanEscrowGet, tc)
	ver, bind, blob, err := l.escrow.EscrowGet(owner, escrowID)
	getSp.End()
	if err != nil {
		return fmt.Errorf("fetch escrowed state: %w", err)
	}
	st, mskSealer, err := l.openEscrowRecord(owner, escrowID, ver, bind, blob)
	if err != nil {
		return err
	}

	// Binding check, read-before-destroy: a stale record is rejected
	// WITHOUT destroying the live binding counter, so feeding an old
	// record to a recovery cannot make the fresh one unrecoverable.
	// (faultSkipBindingWin deletes the check and the win below under the
	// chaosmut build tag — the chaos mutation self-test.)
	if !faultSkipBindingWin {
		cur, err := l.counters.Read(l.enclave, bind)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrEscrowConsumed, err)
		}
		if cur != ver {
			return fmt.Errorf("%w: record version %d, counter at %d", ErrEscrowStale, ver, cur)
		}
	}

	// Re-bind BEFORE the win: the fresh binding counter is created and
	// fast-forwarded to the record's version while the old binding is
	// still intact, so any failure up to the destroy leaves nothing
	// consumed and the recovery simply retries. (A recovery that then
	// loses the destroy race leaks its pre-created counter — one slot
	// per lost race, reclaimed best-effort below.)
	newBind, _, err := l.counters.Create(l.enclave)
	if err != nil {
		return fmt.Errorf("create escrow binding counter: %w", err)
	}
	dropNewBind := func() { _, _ = l.counters.DestroyAndRead(l.enclave, newBind) }
	if ver > 0 {
		if _, err := l.counters.IncrementN(l.enclave, newBind, int(ver)); err != nil {
			dropNewBind()
			return fmt.Errorf("fast-forward binding counter: %w", err)
		}
	}

	// The win: capture the old binding at exactly the sealed version.
	final := ver
	if !faultSkipBindingWin {
		winSp, _ := l.obs.StartSpan(obs.SpanBindingWin, tc)
		final, err = l.counters.DestroyAndRead(l.enclave, bind)
		winSp.End()
		if err != nil {
			dropNewBind()
			return fmt.Errorf("%w: %v", ErrEscrowConsumed, err)
		}
		l.obs.Event(obs.EventBindingWin, l.actor(),
			fmt.Sprintf("won escrow binding %08x at version %d", bind.ID, final), tc)
	}
	if final != ver {
		// An increment raced between read and destroy: the original
		// library was alive and persisted concurrently — and this destroy
		// just froze it (its next persist finds the binding gone). The
		// state it persisted is stamped with exactly the value captured
		// here, so follow the binding: re-fetch and proceed from that
		// newest record instead of stranding both copies. The racing
		// persist's escrow push may still be in flight (the binding
		// commits a few round trips before the record lands), so poll
		// before giving up.
		//
		// Past this point failures are terminal for the instance, not
		// retryable: the binding is consumed, so no later recovery can
		// ever win any record again — they report ErrEscrowConsumed, the
		// truthful state, rather than a retryable-looking ErrEscrowStale.
		// This branch is only reachable when a recovery races a LIVE
		// original, which the management plane refuses (ErrMachineUp /
		// ErrInstanceAlive); the residual hazard is the price of the
		// one-winner destroy, the same §V-D judgment call migration
		// redirects make.
		var ver2 uint32
		var bind2 pse.UUID
		var blob2 []byte
		var gerr error
		for attempt := 0; attempt < 16; attempt++ {
			ver2, bind2, blob2, gerr = l.escrow.EscrowGet(owner, escrowID)
			if gerr == nil && bind2 == bind && ver2 == final {
				break
			}
			time.Sleep(time.Duration(attempt+1) * time.Millisecond)
		}
		if gerr != nil || bind2 != bind || ver2 != final {
			dropNewBind()
			return fmt.Errorf("%w: binding captured at %d but no record at that version arrived", ErrEscrowConsumed, final)
		}
		st, mskSealer, err = l.openEscrowRecord(owner, escrowID, ver2, bind2, blob2)
		if err != nil {
			dropNewBind()
			return fmt.Errorf("%w: %v", ErrEscrowConsumed, err)
		}
		if _, err := l.counters.IncrementN(l.enclave, newBind, int(final-ver)); err != nil {
			dropNewBind()
			return fmt.Errorf("%w: fast-forward failed: %v", ErrEscrowConsumed, err)
		}
		ver = final
	}

	// Won the binding: install the state on the fresh binding counter.
	// The version continues monotonically across binding epochs so the
	// escrow store's supersede rule stays a plain version comparison.
	l.st = *st
	l.mskSealer = mskSealer
	l.st.EscrowID = escrowID
	l.st.BindUUID = newBind
	l.st.BindVer = ver
	// Re-seal natively on THIS machine's CPU and re-escrow at ver+1.
	// Past the win this MUST NOT fail the recovery: the old record can
	// never be won again, so destroying this — now the only — copy over
	// a transient quorum blip would brick the instance. The library is
	// fully consistent in memory (binding at ver matches BindVer); any
	// later control-plane persist re-runs both tiers. The exposure until
	// then is the same window a migration has between freeze and
	// delivery.
	_ = l.persistLocked()
	l.publishAllSlotsLocked()
	l.initialized.Store(true)
	l.obs.Event(obs.EventResurrection, l.actor(),
		fmt.Sprintf("restored from escrow %x at version %d", escrowID[:4], ver), tc)
	return nil
}

// openEscrowRecord authenticates and unseals one escrow record: key box
// under the rack escrow key (AAD-bound to every clear field), state blob
// under the recovered MSK, then cross-checks the sealed fields against
// the store's clear fields (the sealed state is the authority). A frozen
// record reports ErrFrozen: the enclave migrated away after escrowing.
func (l *Library) openEscrowRecord(owner sgx.Measurement, escrowID [16]byte, ver uint32, bind pse.UUID, blob []byte) (*libraryState, *seal.StateSealer, error) {
	st, mskSealer, err := openEscrowRecordRaw(l.rack, owner, escrowID, ver, bind, blob)
	if err != nil {
		return nil, nil, err
	}
	if st.Frozen != 0 {
		return nil, nil, ErrFrozen
	}
	return st, mskSealer, nil
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

// randomEscrowID draws a fresh escrow instance identifier.
func randomEscrowID() ([16]byte, error) {
	var id [16]byte
	b, err := xcrypto.RandomBytes(len(id))
	if err != nil {
		return id, fmt.Errorf("escrow id: %w", err)
	}
	copy(id[:], b)
	return id, nil
}
