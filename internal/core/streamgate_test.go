package core_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sgx"
	"repro/internal/transport"
)

// holdApp launches a one-counter app on the source and freezes it with
// its envelope held at the source ME, ready for BatchSender.Add.
func holdApp(t *testing.T, e *env, name string) (*sgx.Image, *cloud.App) {
	t.Helper()
	img := testAppImage(t, name)
	app, err := e.src.LaunchApp(img, core.NewMemoryStorage(), core.InitNew)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := app.Library.CreateCounter(); err != nil {
		t.Fatal(err)
	}
	if err := app.Library.StartMigrationHeld(e.dst.MEAddress()); err != nil {
		t.Fatal(err)
	}
	return img, app
}

// TestConcurrentBeginBatchSharesOneSession opens many streams at once
// toward a destination the source has never contacted. Opens are
// serialized per destination, so one of them attests and the rest resume
// its session, in counter order: the destination admits one session and
// refuses no resume. (Unserialized, every opener misses the cache and
// attests on its own.)
func TestConcurrentBeginBatchSharesOneSession(t *testing.T) {
	e := newEnv(t)
	observer := obs.NewObserver()
	e.dc.SetObserver(observer)

	const n = 8
	tokens := make([][]byte, n)
	for i := range tokens {
		_, app := holdApp(t, e, fmt.Sprintf("app-%d", i))
		tokens[i] = app.Library.MigrationToken()
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bs, err := e.src.ME.BeginBatch(e.dst.MEAddress(), 1, core.BatchOpts{})
			if err != nil {
				t.Errorf("stream %d: open: %v", i, err)
				return
			}
			if err := bs.Add(0, tokens[i]); err != nil {
				t.Errorf("stream %d: add: %v", i, err)
			}
			statuses, err := bs.Finish()
			if st := statuses[0]; err != nil || !st.OK {
				t.Errorf("stream %d: not delivered: %+v, %v", i, st, err)
			}
		}()
	}
	wg.Wait()
	if got := e.dst.ME.AcceptedSessions(); got != 1 {
		t.Errorf("destination admitted %d sessions for %d concurrent opens, want 1", got, n)
	}
	if got := observer.M().Counter(obs.MESessionResumeRefused).Value(); got != 0 {
		t.Errorf("me.session.resume.refused = %d, want 0", got)
	}
	if got := observer.M().Counter(obs.MESessionResumeHit).Value(); got != n-1 {
		t.Errorf("me.session.resume.hit = %d, want %d", got, n-1)
	}
	if got := e.dst.ME.PendingIncoming(); got != n {
		t.Errorf("destination stores %d envelopes, want %d", got, n)
	}
}

// TestFreshStreamEndingEmptyLetsNextOpen: a freshly attested stream holds
// back later opens until its frame 0 authenticated the source. One that
// ends without ever sending a frame must let them through all the same.
func TestFreshStreamEndingEmptyLetsNextOpen(t *testing.T) {
	e := newEnv(t)
	_, app := holdApp(t, e, "app")

	empty, err := e.src.ME.BeginBatch(e.dst.MEAddress(), 1, core.BatchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	opened := make(chan *core.BatchSender, 1)
	go func() {
		bs, err := e.src.ME.BeginBatch(e.dst.MEAddress(), 1, core.BatchOpts{})
		if err != nil {
			t.Errorf("second open: %v", err)
		}
		opened <- bs
	}()
	if _, err := empty.Finish(); err != nil {
		t.Fatal(err)
	}
	var bs *core.BatchSender
	select {
	case bs = <-opened:
	case <-time.After(10 * time.Second):
		t.Fatal("second open still waits after the empty fresh stream finished")
	}
	if bs == nil {
		t.FailNow()
	}
	if err := bs.Add(0, app.Library.MigrationToken()); err != nil {
		t.Fatal(err)
	}
	if statuses, err := bs.Finish(); err != nil || !statuses[0].OK {
		t.Fatalf("delivery after the empty stream: %+v, %v", statuses, err)
	}
	if n := e.dst.ME.ActiveRxBatches(); n != 0 {
		t.Fatalf("destination holds %d reassembly states", n)
	}
}

// TestFlushDonesSingleFlight: a FlushDones that finds another flush
// toward the same source on the wire must not return on the empty queue
// it sees — its caller goes on to read the DONE flags at the source. It
// waits for that flush, then sends what was queued in the meantime.
func TestFlushDonesSingleFlight(t *testing.T) {
	e := newEnv(t)
	const n = 3
	imgs := make([]*sgx.Image, n)
	tokens := make([][]byte, n)
	bs, err := e.src.ME.BeginBatch(e.dst.MEAddress(), n, core.BatchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tokens {
		var app *cloud.App
		imgs[i], app = holdApp(t, e, fmt.Sprintf("app-%d", i))
		tokens[i] = app.Library.MigrationToken()
		if err := bs.Add(uint32(i), tokens[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := bs.Finish(); err != nil {
		t.Fatal(err)
	}
	restore := func(i int) {
		t.Helper()
		if _, err := e.dst.RestoreApp(imgs[i], core.NewMemoryStorage(), tokens[i]); err != nil {
			t.Fatalf("restore member %d: %v", i, err)
		}
	}

	// The network holds the first DONE message until told to let it go.
	onWire, letGo := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(letGo) })
	defer release()
	var dones atomic.Int32
	e.dc.Network.SetAdversary(&transport.Interceptor{Request: func(msg *transport.Message) error {
		if msg.Kind == "migrate-done" {
			if dones.Add(1) == 1 { // only the first flush can be here: the second waits for it
				close(onWire)
				<-letGo
			}
		}
		return nil
	}})

	restore(0)
	restore(1)
	// flush reports what a fleet worker reads right after FlushDones: how
	// many migrations the source still holds unconfirmed.
	flush := func(pending chan<- int) {
		if err := e.dst.ME.FlushDones(e.src.MEAddress()); err != nil {
			t.Errorf("flush: %v", err)
		}
		pending <- e.src.ME.PendingOutgoing()
	}
	first, second := make(chan int, 1), make(chan int, 1)
	go flush(first)
	<-onWire // carries members 0 and 1
	restore(2)
	go flush(second)
	select {
	case left := <-second:
		t.Fatalf("second flush returned while the first was still on the wire (%d unconfirmed at the source)", left)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if left := <-second; left != 0 {
		t.Errorf("second flush returned with %d migrations unconfirmed at the source", left)
	}
	if left := <-first; left > 1 {
		t.Errorf("first flush returned with %d migrations unconfirmed, want at most member 2", left)
	}
	if got := dones.Load(); got != 2 {
		t.Errorf("%d DONE messages on the wire, want 2 (members 0+1, then member 2)", got)
	}
	if q := e.dst.ME.QueuedDones(e.src.MEAddress()); q != 0 {
		t.Errorf("%d confirmations still queued", q)
	}
}
