package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/pse"
	"repro/internal/seal"
	"repro/internal/xcrypto"
)

// bringUp is the one way a library comes up, whatever its state comes
// from (Listing 1's init_state, plus Recover). It runs the phases in
// order, under mu throughout:
//
//	attach     the ECall, the already-initialized and nil-ME checks, and
//	           local attestation to the Migration Enclave (§VI-A);
//	fetch      the start's Table II state, checked against its freshness
//	           reference and placed in l.st (nothing reads it before
//	           publish); a start that already holds the MSK's sealer
//	           installs it too;
//	provision  this machine's counters: one per active slot the state
//	           holds none for (the migrated value is its offset, §VI-B),
//	           and on an escrowed library a binding counter, if the state
//	           brings no live one, fast-forwarded to the state's version;
//	install    the MSK's sealer;
//	commit     the start makes the state durable (nil: nothing to do);
//	ack        past the point of no return, the start tells its source
//	           (nil: no one to tell);
//	publish    the data-plane slots, then the initialized flag.
//
// A failure in any phase runs the one release path: the ME session is
// ended, and every counter provision created is destroyed — unless the
// commit has made them part of the state on record, so a failed ack
// keeps them.
func (l *Library) bringUp(me *MigrationEnclave, fetch, commit, ack func() error) (err error) {
	if err := l.enclave.ECall(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.initialized.Load() {
		return ErrAlreadyInitialized
	}
	if me == nil {
		return errors.New("core: migration enclave required")
	}
	// The channel to the ME stays open for the lifetime of the enclave.
	session, sessionID, err := me.ConnectLocal(l.enclave)
	if err != nil {
		return fmt.Errorf("attest migration enclave: %w", err)
	}
	l.me, l.session, l.sessionID = me, session, sessionID
	l.mskSealer = nil // a start that holds the MSK's sealer installs it in fetch
	var made []pse.UUID
	defer func() {
		if err != nil {
			l.releaseLocked(made)
		}
	}()
	if err := fetch(); err != nil {
		return err
	}
	if err := l.provisionLocked(&made); err != nil {
		return err
	}
	if l.mskSealer == nil {
		if l.mskSealer, err = seal.NewStateSealer(l.st.MSK[:]); err != nil {
			return fmt.Errorf("msk cipher: %w", err)
		}
	}
	if commit != nil {
		if err := commit(); err != nil {
			return err
		}
	}
	// The state on record now names what provision made: a failed ack
	// must keep it.
	made = nil
	if ack != nil {
		if err := ack(); err != nil {
			return err
		}
	}
	// Readers that observe initialized therefore also observe the slots,
	// the MSK, and its sealer.
	l.publishAllSlotsLocked()
	l.initialized.Store(true)
	return nil
}

// provisionLocked creates the counters the fetched state needs on this
// machine, recording each in made as soon as it exists. Callers hold mu.
func (l *Library) provisionLocked(made *[]pse.UUID) error {
	st := &l.st
	for i := 0; i < NumCounters; i++ {
		if !st.CountersActive[i] || st.CounterUUIDs[i].ID != 0 {
			continue
		}
		uuid, _, err := l.counters.Create(l.enclave)
		if err != nil {
			return fmt.Errorf("re-create counter %d: %w", i, err)
		}
		*made = append(*made, uuid)
		st.CounterUUIDs[i] = uuid
	}
	if l.escrow == nil || st.BindUUID.ID != 0 {
		return nil
	}
	if st.EscrowID == ([16]byte{}) {
		id, err := xcrypto.RandomBytes(len(st.EscrowID))
		if err != nil {
			return fmt.Errorf("escrow id: %w", err)
		}
		copy(st.EscrowID[:], id)
	}
	bind, _, err := l.counters.Create(l.enclave)
	if err != nil {
		return fmt.Errorf("create escrow binding counter: %w", err)
	}
	*made = append(*made, bind)
	st.BindUUID = bind
	if st.BindVer > 0 {
		if _, err := l.counters.IncrementN(l.enclave, bind, int(st.BindVer)); err != nil {
			return fmt.Errorf("fast-forward binding counter: %w", err)
		}
	}
	return nil
}

// releaseLocked is the one failure path of a bring-up: it destroys,
// best-effort, every counter provision made — the enclave is about to be
// destroyed, and each one left behind would cost its identity a slot of
// the facility's budget per failed attempt — and ends the ME session.
// Callers hold mu.
func (l *Library) releaseLocked(made []pse.UUID) {
	for _, uuid := range made {
		// The failure that brought us here is the one to report.
		_ = l.counters.Destroy(l.enclave, uuid)
	}
	l.st, l.mskSealer = libraryState{}, nil
	l.me.releaseLocal(l.sessionID)
}

// Close ends the library's attested session with its Migration Enclave.
// The host calls it when it destroys the enclave; a session otherwise
// lives as long as the ME.
func (l *Library) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.me != nil {
		l.me.releaseLocal(l.sessionID)
	}
}

// Init is migration_init (Listing 1): it must be called every time the
// enclave is loaded, before any other library operation. It opens the
// attested channel to the local Migration Enclave and initializes the
// library state according to initState.
func (l *Library) Init(initState InitState, me *MigrationEnclave) error {
	switch initState {
	case InitNew:
		// The first persist runs with the MSK sealer in place so the
		// escrow tier can push the sealed state alongside the native tier.
		return l.bringUp(me, l.newStateLocked, l.persistLocked, nil)
	case InitRestore:
		// A restart changes nothing, so it persists nothing.
		return l.bringUp(me, l.loadStateLocked, nil, nil)
	case InitMigrated:
		return l.InitMigratedToken(me, nil)
	}
	return fmt.Errorf("core: invalid init state %d", initState)
}

// newStateLocked is InitNew's fetch: a fresh MSK and no counters.
func (l *Library) newStateLocked() error {
	msk, err := xcrypto.RandomBytes(MSKSize)
	if err != nil {
		return fmt.Errorf("generate MSK: %w", err)
	}
	l.st = libraryState{}
	copy(l.st.MSK[:], msk)
	return nil
}

// loadStateLocked is InitRestore's fetch: the Table II blob from local
// storage, its counters and binding adopted as they are.
func (l *Library) loadStateLocked() error {
	blob, err := l.storage.Load()
	if err != nil {
		return fmt.Errorf("load library state: %w", err)
	}
	raw, aad, err := seal.Unseal(l.enclave, blob)
	if err != nil {
		return fmt.Errorf("unseal library state: %w", err)
	}
	if string(aad) != string(stateAAD) {
		return fmt.Errorf("%w: wrong blob label", ErrDataFormat)
	}
	st, err := decodeLibraryState(raw)
	if err != nil {
		return err
	}
	if st.Frozen != 0 {
		// The enclave was migrated away; this state must never operate
		// again (paper §VI-B, Table II).
		return ErrFrozen
	}
	if l.escrow != nil && st.BindUUID.ID != 0 {
		// The binding counter notarizes the latest persisted version: a
		// destroyed binding means the state was recovered on another
		// machine (this copy must stay dead), a value ahead of the blob
		// means the untrusted storage replayed stale state. Escrowed
		// libraries therefore get freshness for the Table II blob itself,
		// which native sealing alone never had.
		cur, err := l.counters.Read(l.enclave, st.BindUUID)
		if err != nil {
			if errors.Is(err, pse.ErrCounterNotFound) {
				l.obs.Event(obs.EventZombieRefused, l.actor(), "restart refused: escrow binding destroyed", obs.TraceContext{})
				return ErrRecoveredAway
			}
			return fmt.Errorf("verify escrow binding: %w", err)
		}
		if cur != st.BindVer {
			return fmt.Errorf("%w: blob at version %d, binding counter at %d",
				ErrStateStale, st.BindVer, cur)
		}
	}
	l.st = *st
	return nil
}

// InitMigratedToken is Init(InitMigrated, me) for one named migration: it
// restores the envelope stored under that done-token instead of the
// oldest one stored for this enclave's identity, so a caller restoring
// several same-identity enclaves pairs each with its own state. The ME
// hands the envelope over only if its MRENCLAVE is this enclave's, and
// only once, so the envelope needs no freshness reference of its own.
// The restored counters are persisted before DONE lets the source delete
// its copy.
func (l *Library) InitMigratedToken(me *MigrationEnclave, token []byte) error {
	var sp *obs.Span
	var tc obs.TraceContext
	fetch := func() error {
		reply, err := l.localCallLocked(&localRequest{Op: opFetchIncoming, Token: token})
		if err != nil {
			return err
		}
		if reply.Status == statusNone {
			return ErrNoPendingMigration
		}
		env, err := decodeEnvelope(reply.Body)
		if err != nil {
			return err
		}
		// The migration's trace context rode along with the envelope; the
		// restore span joins it, so one trace covers freeze through resume.
		if sp, tc = l.obs.StartSpan(obs.SpanLibResume, obs.UnmarshalTrace(reply.Trace)); sp != nil {
			sp.Site = l.actor()
		}
		// No counter UUIDs: provision re-creates every active counter, and
		// a landing on a rack machine starts a fresh escrow instance (its
		// previous machine's binding died at the freeze).
		l.st = libraryState{MSK: env.Data.MSK, CountersActive: env.Data.CountersActive, CounterOffsets: env.Data.CounterValues}
		return nil
	}
	ack := func() error {
		if _, err := l.localCallLocked(&localRequest{Op: opAckRestored, Trace: tc.Marshal()}); err != nil {
			return fmt.Errorf("acknowledge migration: %w", err)
		}
		return nil
	}
	err := l.bringUp(me, fetch, l.persistLocked, ack)
	sp.End()
	return err
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
	var sp *obs.Span
	var bind pse.UUID // the record's binding, won in commit
	owner := l.enclave.MREnclave()
	// open authenticates one fetched record and installs its state and
	// sealer. A frozen record reports ErrFrozen: the enclave migrated away
	// after escrowing.
	open := func(ver uint32, rbind pse.UUID, blob []byte) error {
		st, sealer, err := openEscrowRecordRaw(l.rack, owner, escrowID, ver, rbind, blob)
		if err != nil {
			return err
		}
		if st.Frozen != 0 {
			return ErrFrozen
		}
		l.st, l.mskSealer = *st, sealer
		return nil
	}
	fetch := func() error {
		if l.escrow == nil || l.rack == nil {
			return ErrNoEscrow
		}
		if sp, tc = l.obs.StartSpan(obs.SpanLibRecover, tc); sp != nil {
			sp.Site = l.actor()
		}
		getSp, _ := l.obs.StartSpan(obs.SpanEscrowGet, tc)
		ver, rbind, blob, err := l.escrow.EscrowGet(owner, escrowID)
		getSp.End()
		if err != nil {
			return fmt.Errorf("fetch escrowed state: %w", err)
		}
		if err := open(ver, rbind, blob); err != nil {
			return err
		}
		// Binding check, read-before-destroy: a stale record is rejected
		// WITHOUT destroying the live binding counter, so feeding an old
		// record to a recovery cannot make the fresh one unrecoverable.
		// (faultSkipBindingWin deletes the check and the win under the
		// chaosmut build tag — the chaos mutation self-test.)
		if !faultSkipBindingWin {
			cur, err := l.counters.Read(l.enclave, rbind)
			if err != nil {
				return fmt.Errorf("%w: %v", ErrEscrowConsumed, err)
			}
			if cur != ver {
				return fmt.Errorf("%w: record version %d, counter at %d", ErrEscrowStale, ver, cur)
			}
		}
		// Re-bind BEFORE the win: provision creates the fresh binding and
		// fast-forwards it to the record's version while the old binding
		// is still intact, so any failure up to the destroy leaves nothing
		// consumed and the recovery simply retries. The version continues
		// monotonically across binding epochs, so the escrow store's
		// supersede rule stays a plain version comparison.
		bind, l.st.BindUUID = rbind, pse.UUID{}
		return nil
	}
	// The win: capture the old binding at exactly the sealed version. Of
	// any set of racing recoveries, the coordinator-serialized destroy
	// lets exactly one do so.
	win := func() error {
		winSp, _ := l.obs.StartSpan(obs.SpanBindingWin, tc)
		final, err := l.counters.DestroyAndRead(l.enclave, bind)
		winSp.End()
		if err != nil {
			return fmt.Errorf("%w: %v", ErrEscrowConsumed, err)
		}
		l.obs.Event(obs.EventBindingWin, l.actor(),
			fmt.Sprintf("won escrow binding %08x at version %d", bind.ID, final), tc)
		if final == l.st.BindVer {
			return nil
		}
		// An increment raced between read and destroy: the original
		// library was alive and persisted concurrently — and this destroy
		// just froze it (its next persist finds the binding gone). The
		// state it persisted is stamped with exactly the value captured
		// here, so follow the binding: re-fetch and install that newest
		// record (same instance, same MSK) instead of stranding both
		// copies. The racing persist's escrow push may still be in flight
		// (the binding commits a few round trips before the record lands),
		// so poll before giving up.
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
		var ver uint32
		var rbind pse.UUID
		var blob []byte
		for attempt := 0; attempt < 16; attempt++ {
			ver, rbind, blob, err = l.escrow.EscrowGet(owner, escrowID)
			if err == nil && rbind == bind && ver == final {
				break
			}
			time.Sleep(time.Duration(attempt+1) * time.Millisecond)
		}
		if err != nil || rbind != bind || ver != final {
			return fmt.Errorf("%w: binding captured at %d but no record at that version arrived", ErrEscrowConsumed, final)
		}
		from, newBind := l.st.BindVer, l.st.BindUUID
		if err := open(ver, rbind, blob); err != nil {
			return fmt.Errorf("%w: %v", ErrEscrowConsumed, err)
		}
		l.st.BindUUID = newBind
		if _, err := l.counters.IncrementN(l.enclave, newBind, int(final-from)); err != nil {
			return fmt.Errorf("%w: fast-forward failed: %v", ErrEscrowConsumed, err)
		}
		return nil
	}
	// Once won, re-seal natively on THIS machine's CPU and re-escrow at the
	// next version. Past the win this MUST NOT fail the recovery: the old
	// record can never be won again, so destroying this — now the only —
	// copy over a transient quorum blip would brick the instance. The
	// library is fully consistent in memory (binding at BindVer); any
	// later control-plane persist re-runs both tiers. The exposure until
	// then is the same window a migration has between freeze and delivery.
	commit := func() error {
		if !faultSkipBindingWin {
			if err := win(); err != nil {
				return err
			}
		}
		ver := l.st.BindVer
		_ = l.persistLocked()
		l.obs.Event(obs.EventResurrection, l.actor(),
			fmt.Sprintf("restored from escrow %x at version %d", escrowID[:4], ver), tc)
		return nil
	}
	err := l.bringUp(me, fetch, commit, nil)
	sp.End()
	return err
}
