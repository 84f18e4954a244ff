package core_test

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/pse"
	"repro/internal/pserepl"
	"repro/internal/sgx"
	"repro/internal/sim"
)

// TestBringUpReleasesLocalSession: a library's session with its Migration
// Enclave lives as long as the library. Refused starts (nothing pending
// to restore) and launches that end in Terminate must leave the ME's
// session table where it started.
func TestBringUpReleasesLocalSession(t *testing.T) {
	e := newEnv(t)
	img := testAppImage(t, "app")
	before := core.LocalSessions(e.dst.ME)
	for i := 0; i < 1000; i++ {
		if _, err := e.dst.LaunchApp(img, core.NewMemoryStorage(), core.InitMigrated); !errors.Is(err, core.ErrNoPendingMigration) {
			t.Fatalf("restore with nothing pending: %v, want ErrNoPendingMigration", err)
		}
		app, err := e.dst.LaunchApp(img, core.NewMemoryStorage(), core.InitNew)
		if err != nil {
			t.Fatal(err)
		}
		app.Terminate()
	}
	if got := core.LocalSessions(e.dst.ME); got != before {
		t.Fatalf("ME holds %d local sessions after 1000 refused restores and 1000 launch-terminate cycles, %d before", got, before)
	}
}

// expectReleased runs one start that must be refused with want, and checks
// that it leaves the identity's live counters and the ME's sessions where
// they were.
func expectReleased(t *testing.T, live func() int, me *core.MigrationEnclave, want error, start func() error) {
	t.Helper()
	counters, sessions := live(), core.LocalSessions(me)
	if err := start(); !errors.Is(err, want) {
		t.Fatalf("start: %v, want %v", err, want)
	}
	if got := live(); got != counters {
		t.Fatalf("identity holds %d counters after the refused start, %d before it", got, counters)
	}
	if got := core.LocalSessions(me); got != sessions {
		t.Fatalf("ME holds %d local sessions after the refused start, %d before it", got, sessions)
	}
}

var errDiskFull = errors.New("disk full")

// fullStorage is untrusted storage that refuses every write.
type fullStorage struct{}

func (fullStorage) Save([]byte) error     { return errDiskFull }
func (fullStorage) Load() ([]byte, error) { return nil, core.ErrNoBlob }

// failedRestorePersistFails: the envelope's counters are re-created, then
// the persist before DONE fails. The counters go back and no DONE is sent.
func failedRestorePersistFails(t *testing.T) {
	e := newEnv(t)
	img := testAppImage(t, "app")
	app, err := e.src.LaunchApp(img, core.NewMemoryStorage(), core.InitNew)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		if _, _, err := app.Library.CreateCounter(); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Library.StartMigration(e.dst.MEAddress()); err != nil {
		t.Fatal(err)
	}
	enc, err := e.dst.HW.Load(img)
	if err != nil {
		t.Fatal(err)
	}
	lib := core.NewLibrary(enc, e.dst.Counters, fullStorage{})
	live := func() int { return e.dst.Counters.Count(enc.MREnclave()) }
	expectReleased(t, live, e.dst.ME, errDiskFull, func() error {
		return lib.InitMigratedToken(e.dst.ME, app.Library.MigrationToken())
	})
	if done, err := app.Library.MigrationComplete(); err != nil || done {
		t.Fatalf("source after the failed restore: done=%v err=%v, want the envelope still held", done, err)
	}
}

// saveHook is untrusted storage that runs onSave after each write.
type saveHook struct {
	*core.MemoryStorage
	onSave func()
}

func (s saveHook) Save(blob []byte) error {
	err := s.MemoryStorage.Save(blob)
	s.onSave()
	return err
}

// failedRestoreAckLost: the restored state is persisted and the ME acts on
// the DONE, but its reply never reaches the library. The restore reports
// the failure, yet the source has dropped its copy and the persisted blob
// names the restored counters, so they must survive: a restart of that
// blob comes up with the migrated values.
func failedRestoreAckLost(t *testing.T) {
	e := newEnv(t)
	img := testAppImage(t, "app")
	app, err := e.src.LaunchApp(img, core.NewMemoryStorage(), core.InitNew)
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := app.Library.CreateCounter()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := app.Library.IncrementCounter(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Library.StartMigration(e.dst.MEAddress()); err != nil {
		t.Fatal(err)
	}
	enc, err := e.dst.HW.Load(img)
	if err != nil {
		t.Fatal(err)
	}
	storage := core.NewMemoryStorage()
	var lib *core.Library
	lib = core.NewLibrary(enc, e.dst.Counters, saveHook{storage, func() { core.SkipLocalReply(e.dst.ME, lib) }})
	live := func() int { return e.dst.Counters.Count(enc.MREnclave()) }
	before := live()
	if err := lib.InitMigratedToken(e.dst.ME, app.Library.MigrationToken()); err == nil {
		t.Fatal("restore whose DONE reply was lost reported success")
	}
	if got := live(); got != before+1 {
		t.Fatalf("identity holds %d counters after the lost DONE reply, want %d: the persisted state's counter was released", got, before+1)
	}
	if done, err := app.Library.MigrationComplete(); err != nil || !done {
		t.Fatalf("source after the DONE: done=%v err=%v, want done", done, err)
	}
	e.dst.HW.Destroy(enc)
	restarted, err := e.dst.LaunchApp(img, storage, core.InitRestore)
	if err != nil {
		t.Fatalf("restart of the persisted restore: %v", err)
	}
	if v, err := restarted.Library.ReadCounter(id); err != nil || v != 5 {
		t.Fatalf("restarted counter = %d, %v; want 5", v, err)
	}
}

// newRack builds a data center with one f=1 rack (r1, r2, r3).
func newRack(t *testing.T) (*cloud.DataCenter, *pserepl.Group) {
	t.Helper()
	dc, err := cloud.NewDataCenter("dc-rack", sim.NewInstantLatency())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"r1", "r2", "r3"} {
		if _, err := dc.AddMachine(id); err != nil {
			t.Fatal(err)
		}
	}
	group, err := dc.NewReplicaGroup("rack-1", 1, "r1", "r2", "r3")
	if err != nil {
		t.Fatal(err)
	}
	return dc, group
}

// failedRestoreStaleBlob: a replayed local blob is older than its binding
// counter. Nothing is provisioned for a restart, and nothing is left.
func failedRestoreStaleBlob(t *testing.T) {
	dc, group := newRack(t)
	r1, _ := dc.Machine("r1")
	img := testAppImage(t, "app")
	storage := core.NewMemoryStorage()
	app, err := r1.LaunchApp(img, storage, core.InitNew)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := storage.Load()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := app.Library.CreateCounter(); err != nil {
		t.Fatal(err)
	}
	replayed := core.NewMemoryStorage()
	if err := replayed.Save(stale); err != nil {
		t.Fatal(err)
	}
	live := func() int { return group.Count(app.Enclave.MREnclave()) }
	expectReleased(t, live, r1.ME, core.ErrStateStale, func() error {
		_, err := r1.LaunchApp(img, replayed, core.InitRestore)
		return err
	})
}

// escrowedApp launches an escrowed app with one counter on r1 and returns
// it with its current escrow record.
func escrowedApp(t *testing.T, dc *cloud.DataCenter, group *pserepl.Group) (*cloud.App, fixedEscrow) {
	t.Helper()
	r1, _ := dc.Machine("r1")
	app, err := r1.LaunchApp(testAppImage(t, "vault"), core.NewMemoryStorage(), core.InitNew)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := app.Library.CreateCounter(); err != nil {
		t.Fatal(err)
	}
	id, _ := app.Library.EscrowID()
	ver, bind, blob, err := group.EscrowGet(app.Enclave.MREnclave(), id)
	if err != nil {
		t.Fatal(err)
	}
	return app, fixedEscrow{ver: ver, bind: bind, blob: blob}
}

// recoverOn builds a library for app's image on machine id, wired to the
// escrow store esc and the counter facility counters, and returns it with
// the function that runs its recovery.
func recoverOn(t *testing.T, dc *cloud.DataCenter, group *pserepl.Group, app *cloud.App, id string, counters core.CounterService, esc core.StateEscrow) func() error {
	t.Helper()
	m, _ := dc.Machine(id)
	enc, err := m.HW.Load(app.Image())
	if err != nil {
		t.Fatal(err)
	}
	lib := core.NewLibrary(enc, counters, core.NewMemoryStorage())
	lib.EnableEscrow(esc, group.EscrowSealer())
	escrowID, _ := app.Library.EscrowID()
	return func() error { return lib.Recover(m.ME, escrowID) }
}

// fixedEscrow is a malicious escrow store serving one fixed record.
type fixedEscrow struct {
	ver  uint32
	bind pse.UUID
	blob []byte
}

func (fixedEscrow) EscrowPut(sgx.Measurement, [16]byte, uint32, pse.UUID, []byte) error { return nil }

func (s fixedEscrow) EscrowGet(sgx.Measurement, [16]byte) (uint32, pse.UUID, []byte, error) {
	return s.ver, s.bind, s.blob, nil
}

func failedRecoveryStale(t *testing.T) {
	dc, group := newRack(t)
	app, stale := escrowedApp(t, dc, group)
	if _, _, err := app.Library.CreateCounter(); err != nil {
		t.Fatal(err)
	}
	r2, _ := dc.Machine("r2")
	live := func() int { return group.Count(app.Enclave.MREnclave()) }
	expectReleased(t, live, r2.ME, core.ErrEscrowStale, recoverOn(t, dc, group, app, "r2", group, stale))
}

func failedRecoveryForged(t *testing.T) {
	dc, group := newRack(t)
	app, forged := escrowedApp(t, dc, group)
	forged.blob = append([]byte(nil), forged.blob...)
	forged.blob[len(forged.blob)/2] ^= 0x40
	r2, _ := dc.Machine("r2")
	live := func() int { return group.Count(app.Enclave.MREnclave()) }
	expectReleased(t, live, r2.ME, core.ErrEscrowInvalid, recoverOn(t, dc, group, app, "r2", group, forged))
}

// failedRecoveryConsumed replays the record a genuine recovery already won.
func failedRecoveryConsumed(t *testing.T) {
	dc, group := newRack(t)
	app, old := escrowedApp(t, dc, group)
	r1, _ := dc.Machine("r1")
	r1.Kill()
	if _, err := dc.RecoverMachine("r1", "r2"); err != nil {
		t.Fatal(err)
	}
	r3, _ := dc.Machine("r3")
	live := func() int { return group.Count(app.Enclave.MREnclave()) }
	expectReleased(t, live, r3.ME, core.ErrEscrowConsumed, recoverOn(t, dc, group, app, "r3", group, old))
}

// raceCounters runs trigger once, right before the first DestroyAndRead:
// the window between a recovery's binding read and its win.
type raceCounters struct {
	core.CounterService
	trigger func()
	once    sync.Once
}

func (r *raceCounters) DestroyAndRead(e *sgx.Enclave, uuid pse.UUID) (uint32, error) {
	r.once.Do(r.trigger)
	return r.CounterService.DestroyAndRead(e, uuid)
}

// failedRecoveryLostRace: a rival recovery wins the binding between this
// one's read and its destroy. The loser's fresh binding, made before the
// win, goes back.
func failedRecoveryLostRace(t *testing.T) {
	dc, group := newRack(t)
	app, _ := escrowedApp(t, dc, group)
	rival := recoverOn(t, dc, group, app, "r3", group, group)
	var rivalErr error
	rc := &raceCounters{CounterService: group, trigger: func() { rivalErr = rival() }}
	r2, _ := dc.Machine("r2")
	live := func() int { return group.Count(app.Enclave.MREnclave()) }
	expectReleased(t, live, r2.ME, core.ErrEscrowConsumed, recoverOn(t, dc, group, app, "r2", rc, group))
	if rivalErr != nil {
		t.Fatalf("rival recovery: %v", rivalErr)
	}
}
