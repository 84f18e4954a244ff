package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/attest"
	"repro/internal/obs"
	"repro/internal/pse"
	"repro/internal/seal"
	"repro/internal/sgx"
	"repro/internal/transport"
)

// Migration Library errors.
var (
	ErrNotInitialized     = errors.New("core: migration library not initialized")
	ErrAlreadyInitialized = errors.New("core: migration library already initialized")
	ErrFrozen             = errors.New("core: library frozen: enclave has been migrated")
	ErrBadSlot            = errors.New("core: invalid counter id")
	ErrSlotInactive       = errors.New("core: counter id not active")
	ErrNoFreeSlot         = errors.New("core: no free counter slot")
	ErrCounterOverflow    = errors.New("core: effective counter value would overflow")
	ErrNoPendingMigration = errors.New("core: no pending incoming migration for this enclave")
	ErrMigrationPending   = errors.New("core: migration data held at source migration enclave pending transfer")
)

// InitState selects how the Migration Library initializes (Listing 1's
// init_state): a brand-new enclave, an enclave restored from persisted
// state after a restart, or the destination of a migration.
type InitState int

// Initialization states.
const (
	// InitNew creates fresh library state (generates the MSK).
	InitNew InitState = iota + 1
	// InitRestore reloads sealed library state from untrusted storage.
	InitRestore
	// InitMigrated receives migration data from the local Migration
	// Enclave (the destination side of Fig. 2).
	InitMigrated
)

// String names the init state.
func (s InitState) String() string {
	switch s {
	case InitNew:
		return "new"
	case InitRestore:
		return "restore"
	case InitMigrated:
		return "migrated"
	default:
		return "unknown"
	}
}

// slotState is the immutable per-slot snapshot the counter data plane
// dereferences with one atomic load. A nil pointer means the slot is not
// usable (inactive, library uninitialized, or frozen — slotErr
// disambiguates on the error path).
type slotState struct {
	uuid   pse.UUID
	offset uint32
}

// Library is the Migration Library linked into a migratable application
// enclave (paper §V-C, §VI-B). It lives in the same protection domain as
// the application enclave and fully trusts it. All methods are safe for
// concurrent use.
//
// Concurrency design: the data plane is lock-free on the library side.
// Counter reads and increments load one per-slot atomic pointer and go
// straight to the hardware counter service (which has its own sharded
// locking); migratable seal/unseal only check two atomic flags and use
// the immutable MSK. Control-plane operations (init, counter create/
// destroy, migration) serialize on mu and publish updated slot
// snapshots. Fork-freedom during migration does not depend on blocking
// readers: the capture uses pse.DestroyAndRead, so a racing increment
// either lands before the destroy — and is part of the exported value —
// or fails against the already-destroyed counter.
type Library struct {
	enclave  *sgx.Enclave
	counters CounterService
	storage  Storage

	initialized atomic.Bool
	frozen      atomic.Bool
	slots       [NumCounters]atomic.Pointer[slotState]

	// mskSealer is the shared statesealer for the MSK, built once at Init.
	// Its lifetime equals the library's hold on the MSK itself, so the
	// key schedule never outlives its owner in a shared cache. Immutable
	// after the initialized flag is observed. It serves both migratable
	// sealing (Listing 2) and the escrowed copy of the Table II blob.
	mskSealer *seal.StateSealer

	mu        sync.Mutex // control plane + ME channel ordering
	st        libraryState
	me        *MigrationEnclave
	session   *attest.LocalSession
	sessionID string
	doneToken []byte

	// escrow and rack are the rack escrow service and escrow sealing key,
	// wired by EnableEscrow before Init on rack-associated machines; nil
	// for CPU-bound (escrow-less) libraries.
	escrow StateEscrow
	rack   *seal.StateSealer

	// obs records control-plane spans and audit events; nil disables
	// recording. The counter data plane is deliberately uninstrumented —
	// the Fig. 3 hot path stays one atomic load plus the counter call.
	obs *obs.Observer
}

// NewLibrary binds the Migration Library to its host enclave, the
// machine's counter facility (the local Platform Services manager or a
// replicated group fronting several machines), and the application's
// untrusted storage for the sealed library blob.
func NewLibrary(enclave *sgx.Enclave, counters CounterService, storage Storage) *Library {
	return &Library{enclave: enclave, counters: counters, storage: storage}
}

// SetObserver installs the library's observability sink. Like
// EnableEscrow it must be wired before Init (the cloud layer does this at
// app launch).
func (l *Library) SetObserver(o *obs.Observer) {
	l.mu.Lock()
	l.obs = o
	l.mu.Unlock()
}

// actor labels this library in audit events by its enclave identity.
func (l *Library) actor() string {
	return fmt.Sprintf("lib:%v", l.enclave.MREnclave())
}

// stateAAD labels the sealed library blob.
var stateAAD = []byte("migration-library-state")

// persistLocked is the two-tier blob pipeline (the durability refactor):
//
//	tier 1 (native): the Table II state is sealed with the enclave's
//	native sealing key and handed to untrusted local storage — fast
//	restarts on the same CPU, exactly the paper's path;
//	tier 2 (escrow): with escrow enabled, the dedicated binding counter
//	is first advanced (the new version's rollback binding), then the
//	same encoded state is migratable-sealed by the MSK statesealer and
//	pushed to the rack's escrow quorum — durability that survives this
//	CPU.
//
// An escrowed library whose binding counter turns out destroyed was
// recovered on another machine while this copy was presumed dead: it
// freezes itself and reports ErrRecoveredAway, the same one-winner
// discipline a migration freeze enforces. Callers hold mu.
func (l *Library) persistLocked() error {
	escrowed := l.escrow != nil && l.st.BindUUID.ID != 0
	if escrowed && l.st.Frozen == 0 {
		v, err := l.counters.Increment(l.enclave, l.st.BindUUID)
		if err != nil {
			if errors.Is(err, pse.ErrCounterNotFound) {
				l.st.Frozen = 1
				l.frozen.Store(true)
				l.publishAllSlotsLocked()
				l.obs.Event(obs.EventZombieRefused, l.actor(), "escrow binding destroyed: state recovered elsewhere", obs.TraceContext{})
				return ErrRecoveredAway
			}
			return fmt.Errorf("advance escrow binding: %w", err)
		}
		l.st.BindVer = v
	}
	raw, err := l.st.encode()
	if err != nil {
		return err
	}
	blob, err := seal.Seal(l.enclave, sgx.PolicyMRENCLAVE, stateAAD, raw)
	if err != nil {
		return fmt.Errorf("seal library state: %w", err)
	}
	if err := l.storage.Save(blob); err != nil {
		return fmt.Errorf("persist library state: %w", err)
	}
	if escrowed {
		if err := l.escrowPushLocked(raw); err != nil {
			if l.st.Frozen != 0 {
				// The frozen (migrated-away) record is advisory: its
				// binding counter is already destroyed, so recovery
				// attempts fail closed with or without it. Do not fail
				// the freeze over an unreachable rack.
				return nil
			}
			// The local tier is persisted and the binding already moved,
			// so until the next successful push the escrow lags one
			// version behind — recovery then fails safe (ErrEscrowStale),
			// never resurrects the older record.
			return err
		}
	}
	return nil
}

// publishSlotLocked exposes one slot's current state to the data plane.
// A frozen library publishes nothing: the Table II blob keeps the active
// flags for the migrated state, but no data operation may use them.
// Callers hold mu.
func (l *Library) publishSlotLocked(id int) {
	if l.st.Frozen == 0 && l.st.CountersActive[id] {
		l.slots[id].Store(&slotState{uuid: l.st.CounterUUIDs[id], offset: l.st.CounterOffsets[id]})
	} else {
		l.slots[id].Store(nil)
	}
}

// publishAllSlotsLocked republishes every slot snapshot. Callers hold mu.
func (l *Library) publishAllSlotsLocked() {
	for i := 0; i < NumCounters; i++ {
		l.publishSlotLocked(i)
	}
}

// ready validates the common preconditions of every data operation. It
// reads only the atomic flags, so it is safe with or without mu held.
func (l *Library) ready() error {
	if !l.initialized.Load() {
		return ErrNotInitialized
	}
	if l.frozen.Load() {
		return ErrFrozen
	}
	return nil
}

// slotErr explains a nil slot snapshot on the data plane, in the same
// precedence order readyLocked uses.
func (l *Library) slotErr() error {
	if !l.initialized.Load() {
		return ErrNotInitialized
	}
	if l.frozen.Load() {
		return ErrFrozen
	}
	return ErrSlotInactive
}

// localCallLocked sends one request to the Migration Enclave over the
// attested channel and decodes the reply. Callers hold mu.
func (l *Library) localCallLocked(req *localRequest) (*localResponse, error) {
	raw, err := encodeLocalRequest(req)
	if err != nil {
		return nil, err
	}
	wire, err := l.session.Channel.Seal(raw)
	if err != nil {
		return nil, fmt.Errorf("seal local request: %w", err)
	}
	replyWire, err := l.me.LocalCall(l.sessionID, wire)
	if err != nil {
		return nil, err
	}
	replyRaw, err := l.session.Channel.Open(replyWire)
	if err != nil {
		return nil, fmt.Errorf("open local reply: %w", err)
	}
	return decodeLocalResponse(replyRaw)
}

// SealMigratable is sgx_seal_migratable_data (Listing 2): identical
// parameters to the native sealing function, but the encryption key is
// the MSK, so the blob stays decryptable after migration. No EGETKEY is
// needed, which makes it marginally faster than native sealing (Fig. 4).
// The MSK is immutable once the initialized flag is observed, so no lock
// is taken.
func (l *Library) SealMigratable(additionalMACText, plaintext []byte) ([]byte, error) {
	if err := l.enclave.ECall(); err != nil {
		return nil, err
	}
	if err := l.ready(); err != nil {
		return nil, err
	}
	return l.mskSealer.Seal(additionalMACText, plaintext)
}

// UnsealMigratable is sgx_unseal_migratable_data (Listing 2).
func (l *Library) UnsealMigratable(blob []byte) (plaintext, additionalMACText []byte, err error) {
	if err := l.enclave.ECall(); err != nil {
		return nil, nil, err
	}
	if err := l.ready(); err != nil {
		return nil, nil, err
	}
	return l.mskSealer.Unseal(blob)
}

// CreateCounter is sgx_create_migratable_counter (Listing 2): it wraps a
// hardware counter and returns the library-assigned counter id plus the
// initial effective value. The developer stores only the small id, not
// the SGX UUID (§VI-B). Creating persists the library blob (the paper's
// "additional sealing of the internal data buffer").
func (l *Library) CreateCounter() (id int, value uint32, err error) {
	if err := l.enclave.ECall(); err != nil {
		return 0, 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.ready(); err != nil {
		return 0, 0, err
	}
	slot := -1
	for i := 0; i < NumCounters; i++ {
		if !l.st.CountersActive[i] {
			slot = i
			break
		}
	}
	if slot < 0 {
		return 0, 0, ErrNoFreeSlot
	}
	uuid, hw, err := l.counters.Create(l.enclave)
	if err != nil {
		return 0, 0, fmt.Errorf("create hardware counter: %w", err)
	}
	l.st.CountersActive[slot] = true
	l.st.CounterUUIDs[slot] = uuid
	l.st.CounterOffsets[slot] = 0
	if err := l.persistLocked(); err != nil {
		return 0, 0, err
	}
	l.publishSlotLocked(slot)
	return slot, hw, nil
}

// DestroyCounter is sgx_destroy_migratable_counter (Listing 2).
func (l *Library) DestroyCounter(id int) error {
	if err := l.enclave.ECall(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.ready(); err != nil {
		return err
	}
	if err := l.checkSlotLocked(id); err != nil {
		return err
	}
	// Unpublish first so the data plane stops handing out the UUID, then
	// destroy the hardware counter.
	l.slots[id].Store(nil)
	if err := l.counters.Destroy(l.enclave, l.st.CounterUUIDs[id]); err != nil {
		l.publishSlotLocked(id) // destroy failed; the slot stays active
		return fmt.Errorf("destroy hardware counter: %w", err)
	}
	l.st.CountersActive[id] = false
	l.st.CounterUUIDs[id] = pse.UUID{}
	l.st.CounterOffsets[id] = 0
	return l.persistLocked()
}

// IncrementCounter is sgx_increment_migratable_counter (Listing 2): it
// increments the hardware counter and returns the effective value
// (hardware + offset), guarding against overflow of the effective value.
func (l *Library) IncrementCounter(id int) (uint32, error) {
	if err := l.enclave.ECall(); err != nil {
		return 0, err
	}
	if id < 0 || id >= NumCounters {
		return 0, ErrBadSlot
	}
	s := l.slots[id].Load()
	if s == nil {
		return 0, l.slotErr()
	}
	hw, err := l.counters.Increment(l.enclave, s.uuid)
	if err != nil {
		return 0, fmt.Errorf("increment hardware counter: %w", err)
	}
	return effective(s.offset, hw)
}

// ReadCounter is sgx_read_migratable_counter (Listing 2).
func (l *Library) ReadCounter(id int) (uint32, error) {
	if err := l.enclave.ECall(); err != nil {
		return 0, err
	}
	if id < 0 || id >= NumCounters {
		return 0, ErrBadSlot
	}
	s := l.slots[id].Load()
	if s == nil {
		return 0, l.slotErr()
	}
	hw, err := l.counters.Read(l.enclave, s.uuid)
	if err != nil {
		return 0, fmt.Errorf("read hardware counter: %w", err)
	}
	return effective(s.offset, hw)
}

func (l *Library) checkSlotLocked(id int) error {
	if id < 0 || id >= NumCounters {
		return ErrBadSlot
	}
	if !l.st.CountersActive[id] {
		return ErrSlotInactive
	}
	return nil
}

// effective computes hardware + offset with overflow protection (the
// extra check the paper attributes increment overhead to).
func effective(offset, hw uint32) (uint32, error) {
	if offset > 0 && hw > ^uint32(0)-offset {
		return 0, ErrCounterOverflow
	}
	return hw + offset, nil
}

// StartMigration is migration_start (Listing 1): it freezes the library,
// destroys the hardware counters on this machine (fork prevention, R3 —
// the process "does not proceed until it receives the SGX_SUCCESS return
// code"), and hands the migration data to the local Migration Enclave
// addressed to the destination machine's Migration Enclave.
//
// If the Migration Enclave cannot reach the destination, StartMigration
// returns ErrMigrationPending: the data stays at the source ME until the
// error is resolved or the migration is redirected (§V-D); the library
// remains frozen either way.
func (l *Library) StartMigration(dest transport.Address) error {
	return l.startMigration(obs.TraceContext{}, dest, false)
}

// StartMigrationHeld freezes and exports exactly like StartMigration but
// leaves the migration data HELD at the source Migration Enclave instead
// of having the ME send it as a stream of one: the caller streams the
// held envelope via BatchSender.Add, so many enclaves share one attested
// stream while each freeze window stays its own. The fork-prevention
// sequence (counter destruction before any data leaves, R3/R4) is
// identical.
func (l *Library) StartMigrationHeld(dest transport.Address) error {
	return l.startMigration(obs.TraceContext{}, dest, true)
}

// StartMigrationHeldCtx is StartMigrationHeld under an existing trace
// context: the freeze span and everything downstream of it (the record's
// WAN hops, destination restore, DONE) join the caller's trace. A zero
// context starts a fresh trace when an observer is installed.
func (l *Library) StartMigrationHeldCtx(tc obs.TraceContext, dest transport.Address) error {
	return l.startMigration(tc, dest, true)
}

func (l *Library) startMigration(tc obs.TraceContext, dest transport.Address, hold bool) error {
	if err := l.enclave.ECall(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.ready(); err != nil {
		return err
	}
	sp, tc := l.obs.StartSpan(obs.SpanLibFreeze, tc)
	if sp != nil {
		sp.Site = l.actor()
		defer sp.End()
	}

	// 1. Pre-flight: read every effective counter value before destroying
	// anything, so an already-overflowed counter aborts the migration
	// while the library is still fully operational.
	for i := 0; i < NumCounters; i++ {
		if !l.st.CountersActive[i] {
			continue
		}
		hw, err := l.counters.Read(l.enclave, l.st.CounterUUIDs[i])
		if err != nil {
			return fmt.Errorf("read counter %d for migration: %w", i, err)
		}
		if _, err := effective(l.st.CounterOffsets[i], hw); err != nil {
			return err
		}
	}

	// 2. Destroy all hardware counters, capturing each counter's final
	// value in the same firmware transaction: a concurrent increment is
	// either included in the exported value or fails against the
	// destroyed counter, so no acknowledged increment is ever rolled
	// back (R4). Every destroy must succeed before any data leaves the
	// machine; SGX guarantees destroyed counters can never be accessed
	// again, so a restarted stale library cannot fork (R3).
	var data MigrationData
	data.MSK = l.st.MSK
	for i := 0; i < NumCounters; i++ {
		if !l.st.CountersActive[i] {
			continue
		}
		final, err := l.counters.DestroyAndRead(l.enclave, l.st.CounterUUIDs[i])
		if err != nil {
			return fmt.Errorf("destroy counter %d before migration: %w", i, err)
		}
		eff, err := effective(l.st.CounterOffsets[i], final)
		if err != nil {
			// Increments raced the pre-flight check past the top; export
			// the saturated maximum so the value still never regresses.
			eff = ^uint32(0)
		}
		data.CountersActive[i] = true
		data.CounterValues[i] = eff
	}
	// The escrow binding counter is destroyed with the app counters: from
	// this moment no escrowed copy of this enclave's state can ever win a
	// recovery (the blob is useless without capturing the counter at
	// exactly the sealed value), so the migrated-away state cannot be
	// resurrected on a rack peer while it lives on at the destination.
	if l.escrow != nil && l.st.BindUUID.ID != 0 {
		if _, err := l.counters.DestroyAndRead(l.enclave, l.st.BindUUID); err != nil {
			if errors.Is(err, pse.ErrCounterNotFound) {
				// Already destroyed: a recovery won the counter first —
				// this copy was resurrected elsewhere and must not export
				// state.
				l.st.Frozen = 1
				l.frozen.Store(true)
				l.publishAllSlotsLocked()
				l.obs.Event(obs.EventZombieRefused, l.actor(), "migration refused: escrow binding already destroyed by recovery", tc)
				return ErrRecoveredAway
			}
			return fmt.Errorf("destroy escrow binding before migration: %w", err)
		}
	}

	// 3. Freeze, unpublish the data plane, and persist, so restarts of
	// this enclave refuse to run and concurrent operations fail with
	// ErrFrozen from here on. The frozen blob is escrowed too (tier 2 of
	// persistLocked): recovery attempts then report ErrFrozen instead of
	// a bare binding failure.
	l.st.Frozen = 1
	l.frozen.Store(true)
	l.publishAllSlotsLocked()
	if l.escrow != nil && l.st.BindUUID.ID != 0 {
		l.st.BindVer++ // supersedes the pre-freeze record in the store
	}
	if err := l.persistLocked(); err != nil {
		return err
	}
	l.obs.Event(obs.EventFreeze, l.actor(), "frozen for migration to "+string(dest), tc)

	// 4. Ship the migration data to the Migration Enclave, which sends it
	// on as a stream of one — unless the caller holds it for its own stream.
	raw, err := data.Encode()
	if err != nil {
		return err
	}
	op := opMigrateOut
	if hold {
		op = opMigrateOutHold
	}
	reply, err := l.localCallLocked(&localRequest{
		Op:    op,
		Dest:  string(dest),
		Body:  raw,
		Trace: tc.Marshal(),
	})
	if err != nil {
		return fmt.Errorf("send migration data: %w", err)
	}
	l.doneToken = reply.Token
	if reply.Status == statusPending {
		return fmt.Errorf("%w: %s", ErrMigrationPending, reply.Detail)
	}
	return nil
}

// MigrationComplete asks the local Migration Enclave whether the DONE
// confirmation for this library's migration has arrived from the
// destination (the final arrow of Fig. 2).
func (l *Library) MigrationComplete() (bool, error) {
	if err := l.enclave.ECall(); err != nil {
		return false, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.initialized.Load() {
		return false, ErrNotInitialized
	}
	if l.doneToken == nil {
		return false, errors.New("core: no migration started")
	}
	reply, err := l.localCallLocked(&localRequest{Op: opCheckDone, Token: l.doneToken})
	if err != nil {
		return false, err
	}
	return reply.Status == statusDone, nil
}

// MigrationToken returns a copy of the done-token of the migration this
// library started, or nil if none was started. The machine operator uses
// it with MigrationEnclave.Redirect / OutstandingTokens to retry or
// re-target a pending migration (§V-D).
func (l *Library) MigrationToken() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.doneToken == nil {
		return nil
	}
	return append([]byte(nil), l.doneToken...)
}

// Frozen reports whether the library has been frozen by a migration.
func (l *Library) Frozen() bool {
	return l.frozen.Load()
}

// ActiveCounters returns the number of active counter slots.
func (l *Library) ActiveCounters() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for i := 0; i < NumCounters; i++ {
		if l.st.CountersActive[i] {
			n++
		}
	}
	return n
}
