package core_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/pse"
)

func TestCounterSlotReuseAfterDestroy(t *testing.T) {
	e := newEnv(t)
	app, _ := e.src.LaunchApp(testAppImage(t, "app"), core.NewMemoryStorage(), core.InitNew)
	id0, _, err := app.Library.CreateCounter()
	if err != nil {
		t.Fatal(err)
	}
	id1, _, err := app.Library.CreateCounter()
	if err != nil {
		t.Fatal(err)
	}
	if id0 == id1 {
		t.Fatal("two live counters share a slot")
	}
	// Advance counter 1 so we can verify isolation after slot reuse.
	if _, err := app.Library.IncrementCounter(id1); err != nil {
		t.Fatal(err)
	}
	if err := app.Library.DestroyCounter(id0); err != nil {
		t.Fatal(err)
	}
	id2, v, err := app.Library.CreateCounter()
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id0 {
		t.Fatalf("freed slot not reused: got %d want %d", id2, id0)
	}
	if v != 0 {
		t.Fatalf("reused slot starts at %d", v)
	}
	// The reused slot is a fresh hardware counter, not the old one.
	if got, _ := app.Library.ReadCounter(id2); got != 0 {
		t.Fatalf("reused slot reads %d", got)
	}
	if got, _ := app.Library.ReadCounter(id1); got != 1 {
		t.Fatalf("neighbour slot disturbed: %d", got)
	}
}

func TestLibraryConcurrentCounterUse(t *testing.T) {
	e := newEnv(t)
	app, _ := e.src.LaunchApp(testAppImage(t, "app"), core.NewMemoryStorage(), core.InitNew)
	id, _, err := app.Library.CreateCounter()
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		perW    = 25
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				if _, err := app.Library.IncrementCounter(id); err != nil {
					t.Errorf("increment: %v", err)
					return
				}
				if _, err := app.Library.ReadCounter(id); err != nil {
					t.Errorf("read: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got, err := app.Library.ReadCounter(id)
	if err != nil {
		t.Fatal(err)
	}
	if got != workers*perW {
		t.Fatalf("final value = %d, want %d", got, workers*perW)
	}
}

func TestLibraryConcurrentSealing(t *testing.T) {
	e := newEnv(t)
	app, _ := e.src.LaunchApp(testAppImage(t, "app"), core.NewMemoryStorage(), core.InitNew)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := []byte(fmt.Sprintf("payload-%d", w))
			for i := 0; i < 20; i++ {
				blob, err := app.Library.SealMigratable(nil, payload)
				if err != nil {
					t.Errorf("seal: %v", err)
					return
				}
				pt, _, err := app.Library.UnsealMigratable(blob)
				if err != nil {
					t.Errorf("unseal: %v", err)
					return
				}
				if string(pt) != string(payload) {
					t.Errorf("payload mismatch")
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestMigrationWithZeroCounters(t *testing.T) {
	// An enclave that only uses migratable sealing (no counters) still
	// migrates: the MSK must carry over.
	e := newEnv(t)
	img := testAppImage(t, "seal-only")
	app, _ := e.src.LaunchApp(img, core.NewMemoryStorage(), core.InitNew)
	blob, err := app.Library.SealMigratable(nil, []byte("just sealed data"))
	if err != nil {
		t.Fatal(err)
	}
	dstApp := migrateApp(t, e, app, e.dst)
	pt, _, err := dstApp.Library.UnsealMigratable(blob)
	if err != nil {
		t.Fatal(err)
	}
	if string(pt) != "just sealed data" {
		t.Fatal("payload mismatch")
	}
	if dstApp.Library.ActiveCounters() != 0 {
		t.Fatal("phantom counters after migration")
	}
}

func TestDestinationKeepsFullCounterCapacity(t *testing.T) {
	// The library wraps rather than replaces hardware counters, so the
	// migrated enclave still has the full 256-slot budget (§VI-B).
	e := newEnv(t)
	img := testAppImage(t, "app")
	app, _ := e.src.LaunchApp(img, core.NewMemoryStorage(), core.InitNew)
	if _, _, err := app.Library.CreateCounter(); err != nil {
		t.Fatal(err)
	}
	dstApp := migrateApp(t, e, app, e.dst)
	// Allocate a second counter on the destination: works, and the two
	// stay independent.
	id2, _, err := dstApp.Library.CreateCounter()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dstApp.Library.IncrementCounter(id2); err != nil {
		t.Fatal(err)
	}
	if got, _ := dstApp.Library.ReadCounter(0); got != 0 {
		t.Fatalf("migrated counter disturbed: %d", got)
	}
}

// TestFailedRestoreReleasesCounters: a bring-up has one failure path,
// whatever its state comes from. Each row is a start refused after or
// before provisioning counters; each must leave the counter facility's
// live count for the identity where it was before the call — except a
// restore that fails past its commit, whose persisted state names them.
func TestFailedRestoreReleasesCounters(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"envelope over the counter limit", failedRestoreOverCounterLimit},
		{"envelope whose persist fails", failedRestorePersistFails},
		{"envelope whose DONE reply is lost", failedRestoreAckLost},
		{"restore refused as stale", failedRestoreStaleBlob},
		{"recovery refused as stale", failedRecoveryStale},
		{"recovery refused as forged", failedRecoveryForged},
		{"recovery refused as consumed", failedRecoveryConsumed},
		{"recovery lost in the race", failedRecoveryLostRace},
	} {
		t.Run(c.name, c.run)
	}
}

// failedRestoreOverCounterLimit: the destination has room for two of
// the identity's counters and the envelope needs three, so the restore
// re-creates two and fails on the third. It must give the two back — they
// used to stay allocated, one slot of the identity's budget per counter
// per failed attempt. Then a resident frees exactly the one slot that was
// missing, the destination's ME restarts (forgetting the half-restored
// delivery; the source still holds the envelope, no DONE was sent), and
// the same token is delivered and restored there with its values intact.
func failedRestoreOverCounterLimit(t *testing.T) {
	e := newEnv(t)
	img := testAppImage(t, "app")
	resident, err := e.dst.LaunchApp(img, core.NewMemoryStorage(), core.InitNew)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pse.MaxCounters-2; i++ {
		if _, _, err := resident.Library.CreateCounter(); err != nil {
			t.Fatal(err)
		}
	}
	app, err := e.src.LaunchApp(img, core.NewMemoryStorage(), core.InitNew)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3; c++ {
		id, _, err := app.Library.CreateCounter()
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j <= c; j++ {
			if _, err := app.Library.IncrementCounter(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := app.Library.StartMigration(e.dst.MEAddress()); err != nil {
		t.Fatal(err)
	}
	token := app.Library.MigrationToken()
	owner := resident.Enclave.MREnclave()

	before := e.dst.Counters.Count(owner)
	if _, err := e.dst.RestoreApp(img, core.NewMemoryStorage(), token); !errors.Is(err, pse.ErrCounterLimit) {
		t.Fatalf("restore into too little room: %v, want ErrCounterLimit", err)
	}
	if got := e.dst.Counters.Count(owner); got != before {
		t.Fatalf("identity holds %d counters after the failed restore, %d before it", got, before)
	}
	if done, err := app.Library.MigrationComplete(); err != nil || done {
		t.Fatalf("source after the failed restore: done=%v err=%v, want the envelope still held", done, err)
	}

	if err := resident.Library.DestroyCounter(0); err != nil {
		t.Fatal(err)
	}
	if err := e.dst.Restart(); err != nil {
		t.Fatal(err)
	}
	if err := e.src.ME.Redirect(token, e.dst.MEAddress()); err != nil {
		t.Fatalf("re-deliver the held envelope: %v", err)
	}
	restored, err := e.dst.RestoreApp(img, core.NewMemoryStorage(), token)
	if err != nil {
		t.Fatalf("restore after one slot was freed: %v", err)
	}
	for c := 0; c < 3; c++ {
		if v, err := restored.Library.ReadCounter(c); err != nil || v != uint32(c+1) {
			t.Fatalf("counter %d after the second restore = %d, %v; want %d", c, v, err, c+1)
		}
	}
}

func TestSealedDataFromBeforeFirstMigrationSurvivesTwo(t *testing.T) {
	e := newEnv(t)
	third, err := e.dc.AddMachine("machine-3")
	if err != nil {
		t.Fatal(err)
	}
	img := testAppImage(t, "app")
	app, _ := e.src.LaunchApp(img, core.NewMemoryStorage(), core.InitNew)
	blob, err := app.Library.SealMigratable(nil, []byte("original"))
	if err != nil {
		t.Fatal(err)
	}
	app = migrateApp(t, e, app, e.dst)
	app = migrateApp(t, e, app, third)
	pt, _, err := app.Library.UnsealMigratable(blob)
	if err != nil {
		t.Fatalf("unseal after two hops: %v", err)
	}
	if string(pt) != "original" {
		t.Fatal("payload mismatch after two hops")
	}
}

func TestInitMigratedThenRestartUsesRestore(t *testing.T) {
	// After a successful migration the destination's persisted blob is a
	// normal (unfrozen) library state: plain restarts use InitRestore.
	e := newEnv(t)
	img := testAppImage(t, "app")
	app, _ := e.src.LaunchApp(img, core.NewMemoryStorage(), core.InitNew)
	ctr, _, _ := app.Library.CreateCounter()
	if _, err := app.Library.IncrementCounter(ctr); err != nil {
		t.Fatal(err)
	}
	if err := app.Library.StartMigration(e.dst.MEAddress()); err != nil {
		t.Fatal(err)
	}
	app.Terminate()
	dstStorage := core.NewMemoryStorage()
	dstApp, err := e.dst.LaunchApp(img, dstStorage, core.InitMigrated)
	if err != nil {
		t.Fatal(err)
	}
	dstApp.Terminate()
	// Plain restart on the destination machine.
	restarted, err := e.dst.LaunchApp(img, dstStorage, core.InitRestore)
	if err != nil {
		t.Fatalf("restart after migration: %v", err)
	}
	if v, err := restarted.Library.ReadCounter(ctr); err != nil || v != 1 {
		t.Fatalf("counter after restart = %d, %v", v, err)
	}
}

func TestInvalidInitState(t *testing.T) {
	e := newEnv(t)
	enclave, err := e.src.HW.Load(testAppImage(t, "app"))
	if err != nil {
		t.Fatal(err)
	}
	lib := core.NewLibrary(enclave, e.src.Counters, core.NewMemoryStorage())
	if err := lib.Init(core.InitState(99), e.src.ME); err == nil {
		t.Fatal("invalid init state accepted")
	}
	if err := lib.Init(core.InitNew, nil); err == nil {
		t.Fatal("nil migration enclave accepted")
	}
}

func TestInitStateString(t *testing.T) {
	for st, want := range map[core.InitState]string{
		core.InitNew:       "new",
		core.InitRestore:   "restore",
		core.InitMigrated:  "migrated",
		core.InitState(42): "unknown",
	} {
		if st.String() != want {
			t.Fatalf("%d.String() = %s", st, st.String())
		}
	}
}

func TestMigrationCompleteRequiresStartedMigration(t *testing.T) {
	e := newEnv(t)
	app, _ := e.src.LaunchApp(testAppImage(t, "app"), core.NewMemoryStorage(), core.InitNew)
	if _, err := app.Library.MigrationComplete(); err == nil {
		t.Fatal("MigrationComplete before StartMigration succeeded")
	}
}

func TestLibraryOpsFailAfterEnclaveDestroyed(t *testing.T) {
	e := newEnv(t)
	app, _ := e.src.LaunchApp(testAppImage(t, "app"), core.NewMemoryStorage(), core.InitNew)
	app.Terminate()
	if _, err := app.Library.SealMigratable(nil, []byte("x")); err == nil {
		t.Fatal("dead enclave sealed data")
	}
	if _, _, err := app.Library.CreateCounter(); err == nil {
		t.Fatal("dead enclave created counter")
	}
	if err := app.Library.StartMigration(e.dst.MEAddress()); err == nil {
		t.Fatal("dead enclave started migration")
	}
}
