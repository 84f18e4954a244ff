package fleet_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/transport"
)

// noGoroutineGrowth runs f — a whole plan — and fails the test if more
// goroutines are alive after it than before. Senders, restore pools and
// whatever releases a stream-open gate must not outlive the plan that
// started them; stragglers get a moment to exit first.
func noGoroutineGrowth(t *testing.T, f func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	f()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Errorf("%d goroutines before the plan, %d after it settled:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// waitFor waits for ch to close, up to the time a wedged plan is given.
func waitFor(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	case <-time.After(5 * time.Second):
		return false
	}
}

// slotScenario is a warm a1→b1 session (so every stream below opens with
// a resume, in any order) and two groups of k enclaves on a1 that must
// share a LinkCap of 1.
type slotScenario struct {
	*wanPair
	observer    *obs.Observer // wired after the warm-up, so it records the two groups only
	assignments []fleet.Assignment
	groupOf     map[string]int // app name → which of the two streams carries it
	// bothOpen closes when the second migrate-offer of the plan has been
	// answered: both groups hold an open stream.
	bothOpen chan struct{}
	offers   atomic.Int32
}

const slotGroup = 4 // members per group

func newSlotScenario(t *testing.T) *slotScenario {
	t.Helper()
	s := &slotScenario{wanPair: newWANPair(t, "slot"), groupOf: map[string]int{}, bothOpen: make(chan struct{})}
	if _, err := s.a1.LaunchApp(testImage("warm"), core.NewMemoryStorage(), core.InitNew); err != nil {
		t.Fatal(err)
	}
	if rep, err := fleet.New(s.dcA, fleet.Config{}).Execute(context.Background(), s.evacuate()); err != nil || rep.Completed != 1 {
		t.Fatalf("warm-up migration: %v, %v", rep, err)
	}
	s.observer = obs.NewObserver()
	s.dcA.SetObserver(s.observer)
	s.dcB.SetObserver(s.observer)
	launchApps(t, s.a1, 2*slotGroup)
	var err error
	if s.assignments, err = s.evacuate().Compile(s.dcA); err != nil {
		t.Fatal(err)
	}
	for i, as := range s.assignments {
		s.groupOf[as.App.Image().Name] = i / slotGroup
	}
	return s
}

// config is the orchestrator shape under test: two workers, two streams,
// one link slot.
func (s *slotScenario) config() fleet.Config {
	return fleet.Config{Workers: 2, BatchSize: slotGroup, LinkCap: map[string]int{s.link.Name(): 1}, Obs: s.observer}
}

// countOffer is the Interceptor.Response part every scenario shares.
func (s *slotScenario) countOffer(msg transport.Message, _ *[]byte) error {
	if msg.Kind == "migrate-offer" && s.offers.Add(1) == 2 {
		close(s.bothOpen)
	}
	return nil
}

// TestLinkSlotCoversFreezeToRestoreOnly pins what a LinkCap slot covers.
// With one slot and two groups: the second group's migrate-offer is
// answered while the first sits in the slot; the first group's DONE
// flush, stuck on the network, does not keep the second group's data off
// the link; and still the two groups' freeze→restore windows never
// overlap. (With the open and the flush inside the slot, both waits time
// out.)
func TestLinkSlotCoversFreezeToRestoreOnly(t *testing.T) {
	s := newSlotScenario(t)

	// otherDelivered closes when a member of the group that did not get
	// the slot first is acknowledged by b1: its data crossed the link.
	otherDelivered := make(chan struct{})
	var mu sync.Mutex
	firstGroup := -1
	cfg := s.config()
	cfg.OnEvent = func(ev fleet.Event) {
		if ev.Type != fleet.EventDelivered {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		switch g := s.groupOf[ev.App]; {
		case firstGroup < 0:
			firstGroup = g
		case g != firstGroup:
			select {
			case <-otherDelivered:
			default:
				close(otherDelivered)
			}
		}
	}
	var dataFrames, doneFlushes atomic.Int32
	s.dcA.Network.SetAdversary(&transport.Interceptor{
		Request: func(msg *transport.Message) error {
			switch {
			case msg.Kind == "migrate-data" && dataFrames.Add(1) == 1:
				// Only the slot's holder streams data. Keep it there.
				if !waitFor(s.bothOpen) {
					t.Error("the other group's migrate-offer was not answered while this one held the link slot")
				}
			case msg.Kind == "migrate-done" && doneFlushes.Add(1) == 1:
				if !waitFor(otherDelivered) {
					t.Error("a DONE flush stuck on the network kept the next group's data off the link")
				}
			}
			return nil
		},
		Response: s.countOffer,
	})

	var report *fleet.Report
	var err error
	noGoroutineGrowth(t, func() {
		report, err = fleet.New(s.dcA, cfg).Run(context.Background(), s.evacuate(), s.assignments)
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Completed != 2*slotGroup {
		t.Fatalf("report: %+v", report)
	}
	for _, e := range report.Journal.Entries() {
		if !e.DoneConfirmed {
			t.Errorf("%s: DONE not confirmed although its flush was only delayed", e.App)
		}
	}

	// Each group's window, first freeze to last restore, from its members'
	// traces. LinkCap is 1, so the later window starts after the earlier ends.
	type window struct{ first, last time.Time }
	windows := make([]window, 2)
	members := 0
	for _, spans := range s.observer.Tracer.ByTrace() {
		var app string
		var frozen, restored time.Time
		for _, sp := range spans {
			switch sp.Name {
			case "fleet.migrate":
				app = sp.Site
			case "lib.freeze":
				frozen = sp.Start
			case "lib.resume":
				restored = sp.EndTime()
			}
		}
		if app == "" {
			continue // not a migration: a DONE flush is a trace of its own
		}
		if frozen.IsZero() || restored.IsZero() {
			t.Fatalf("%s: trace lacks lib.freeze or lib.resume", app)
		}
		members++
		w := &windows[s.groupOf[app]]
		if w.first.IsZero() || frozen.Before(w.first) {
			w.first = frozen
		}
		if restored.After(w.last) {
			w.last = restored
		}
	}
	if members != 2*slotGroup {
		t.Fatalf("%d member traces, want %d", members, 2*slotGroup)
	}
	early, late := windows[0], windows[1]
	if late.first.Before(early.first) {
		early, late = late, early
	}
	if late.first.Before(early.last) {
		t.Errorf("two groups inside a LinkCap of 1: one froze its first member %v before the other's last restore ended",
			early.last.Sub(late.first))
	}
}

// TestCanceledWaitingForSlotAbortsItsStream: a group opens its stream
// before it has a link slot, so one canceled while it waits for the slot
// owes the destination an abort — nothing was frozen, nothing stays
// behind at b1.
func TestCanceledWaitingForSlotAbortsItsStream(t *testing.T) {
	s := newSlotScenario(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	aborted := make(chan struct{})
	var dataFrames, aborts atomic.Int32
	s.dcA.Network.SetAdversary(&transport.Interceptor{
		Request: func(msg *transport.Message) error {
			if msg.Kind == "migrate-data" && dataFrames.Add(1) == 1 {
				// The slot's holder stays in it until the other group, open and
				// waiting for the slot, has been canceled and has cleaned up.
				if !waitFor(s.bothOpen) {
					t.Error("the waiting group never opened its stream")
				}
				cancel()
				if !waitFor(aborted) {
					t.Error("the canceled group sent no migrate-abort for its open stream")
				}
			}
			return nil
		},
		Response: func(msg transport.Message, reply *[]byte) error {
			if msg.Kind == "migrate-abort" && aborts.Add(1) == 1 {
				close(aborted)
			}
			return s.countOffer(msg, reply)
		},
	})

	var report *fleet.Report
	var err error
	noGoroutineGrowth(t, func() {
		report, err = fleet.New(s.dcA, s.config()).Run(ctx, s.evacuate(), s.assignments)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if report.Completed != slotGroup || report.Canceled != slotGroup {
		t.Fatalf("report: %+v, want the slot's holder completed and the waiting group canceled", report)
	}
	if n := s.b1.ME.ActiveRxBatches(); n != 0 {
		t.Errorf("b1 still holds %d stream reassembly states", n)
	}
	if got := aborts.Load(); got != 1 {
		t.Errorf("%d migrate-abort messages, want 1", got)
	}
	for _, e := range report.Journal.Entries() {
		if e.Status != fleet.StatusCanceled {
			continue
		}
		app, _ := findApp(s.dcA.Machines(), e.App)
		if app == nil || app.Library.Frozen() {
			t.Errorf("%s: canceled before its freeze, but no longer running on a1", e.App)
		}
	}
}
