package pserepl

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pse"
	"repro/internal/transport"
)

// opHook is an adversary that shows the test every counter-op request in
// the clear (the group key is the test's own) before it reaches its
// replica; f may block to hold the request, or return an error to drop it.
// done, when set, sees the request again once its replica has answered,
// with the vote (nil for a reply that is not one).
type opHook struct {
	g    *Group
	f    func(replica string, m *opMessage) error
	done func(replica string, m *opMessage, rep *opReply)
}

func (h opHook) open(msg *transport.Message) (string, *opMessage) {
	if msg.Kind != kindOp {
		return "", nil
	}
	replica := strings.TrimSuffix(string(msg.To), "/ctr")
	raw, err := h.g.sealer.Open(msg.Payload, aadReq(kindOp, replica))
	if err != nil {
		return "", nil
	}
	m, err := decodeOpMessage(raw)
	if err != nil {
		return "", nil
	}
	return replica, m
}

func (h opHook) OnRequest(msg *transport.Message) error {
	if replica, m := h.open(msg); m != nil {
		return h.f(replica, m)
	}
	return nil
}

func (h opHook) OnResponse(msg transport.Message, reply *[]byte) error {
	if h.done == nil {
		return nil
	}
	if replica, m := h.open(&msg); m != nil {
		var rep *opReply
		if raw, err := h.g.sealer.Open(*reply, aadRep(kindOp, replica)); err == nil {
			rep, _ = decodeOpReply(raw)
		}
		h.done(replica, m, rep)
	}
	return nil
}

// heldOp parks one request on the wire: the first goroutine to call park
// closes arrived and blocks until the test closes release; later callers
// pass straight through.
type heldOp struct {
	taken            atomic.Bool
	arrived, release chan struct{}
}

func newHeldOp() *heldOp {
	return &heldOp{arrived: make(chan struct{}), release: make(chan struct{})}
}

func (h *heldOp) park() {
	if h.taken.CompareAndSwap(false, true) {
		close(h.arrived)
		<-h.release
	}
}

// wantEverywhere asserts that every replica holds the counter at want, in
// its firmware and in the value its slot carries.
func (r *rig) wantEverywhere(t *testing.T, uuid pse.UUID, want uint32) {
	t.Helper()
	for i, rep := range r.replicas {
		rep.mu.Lock()
		slot, agent := rep.table[uuid.ID], rep.agent
		rep.mu.Unlock()
		if slot == nil {
			t.Errorf("%s: no slot for counter %d", rep.ID(), uuid.ID)
			continue
		}
		v, err := r.services[i].Read(agent, slot.local)
		if err != nil {
			t.Fatalf("%s: local read: %v", rep.ID(), err)
		}
		if v != want || slot.value != want {
			t.Errorf("%s: local counter = %d (slot carries %d), want %d", rep.ID(), v, slot.value, want)
		}
	}
}

// TestReseedCoversHeldWrite: an increment acked by rep-0 and rep-1 leaves
// rep-2's copy on the wire; rep-2's machine restarts and is reseeded to
// the quorum value; then the held write lands. It must change nothing
// (a relative "+1" used to land on top of the reseed: 2, and through the
// escrow binding counter a lost enclave).
func TestReseedCoversHeldWrite(t *testing.T) {
	r := newRig(t, 1)
	g := r.group
	uuid, _, err := g.Create(r.client)
	if err != nil {
		t.Fatal(err)
	}
	g.Quiesce()

	write := newHeldOp()
	r.net.SetAdversary(opHook{g: g, f: func(replica string, m *opMessage) error {
		if replica == "rep-2" && m.Op == opAdvance {
			write.park()
		}
		return nil
	}})
	if v, err := g.Increment(r.client, uuid); err != nil || v != 1 {
		t.Fatalf("increment acked by rep-0, rep-1: v=%d err=%v", v, err)
	}
	<-write.arrived

	r.machines[2].Restart()
	if err := r.replicas[2].Restart(); err != nil {
		t.Fatal(err)
	}
	if err := g.Reseed("rep-2"); err != nil {
		t.Fatal(err)
	}
	close(write.release)
	g.Quiesce()

	if v, err := g.Read(r.client, uuid); err != nil || v != 1 {
		t.Fatalf("read after the held write landed on the reseeded replica: v=%d err=%v, want 1", v, err)
	}
	g.Quiesce()
	r.wantEverywhere(t, uuid, 1)
}

// TestMissedCreateRepairCoversHeldWrite: rep-2's copies of the create and
// of the first increment are both held. A read answered first by rep-0
// (1) and rep-2 (not found) repairs rep-2 — create, then advance to 1 —
// and then the held messages land: the create is a duplicate, the write
// already covered.
func TestMissedCreateRepairCoversHeldWrite(t *testing.T) {
	r := newRig(t, 1)
	g := r.group

	create, write := newHeldOp(), newHeldOp()
	var reads atomic.Int32
	othersAnswered, repaired := make(chan struct{}), make(chan struct{})
	var repairedOnce sync.Once
	r.net.SetAdversary(opHook{g: g,
		f: func(replica string, m *opMessage) error {
			switch {
			case replica == "rep-2" && m.Op == opCreate:
				create.park()
			case replica == "rep-2" && m.Op == opAdvance:
				write.park() // the increment's write; the repair's passes
			case replica == "rep-1" && m.Op == opRead:
				<-othersAnswered
			}
			return nil
		},
		done: func(replica string, m *opMessage, _ *opReply) {
			switch {
			case replica != "rep-1" && m.Op == opRead:
				if reads.Add(1) == 2 {
					close(othersAnswered)
				}
			case replica == "rep-2" && m.Op == opAdvance:
				repairedOnce.Do(func() { close(repaired) })
			}
		},
	})

	uuid, _, err := g.Create(r.client)
	if err != nil {
		t.Fatal(err)
	}
	<-create.arrived
	if v, err := g.Increment(r.client, uuid); err != nil || v != 1 {
		t.Fatalf("increment acked by rep-0, rep-1: v=%d err=%v", v, err)
	}
	<-write.arrived
	if v, err := g.Read(r.client, uuid); err != nil || v != 1 {
		t.Fatalf("read across a replica that missed the create: v=%d err=%v, want 1", v, err)
	}
	<-repaired
	close(create.release)
	close(write.release)
	g.Quiesce()

	r.wantEverywhere(t, uuid, 1)
	if v, err := g.Read(r.client, uuid); err != nil || v != 1 {
		t.Fatalf("read after the held create and write landed: v=%d err=%v, want 1", v, err)
	}
	g.Quiesce()
}

// TestReadDoesNotWaitForHeldWrite: with rep-2's copy of an increment held
// and rep-1 slow, a read is answered by rep-0 (1) and rep-2 (0). It
// repairs rep-2 and returns 1 while the write is still on the wire (it
// used to wait for the write to land first); the write landing afterwards
// changes nothing.
func TestReadDoesNotWaitForHeldWrite(t *testing.T) {
	r := newRig(t, 1)
	g := r.group
	uuid, _, err := g.Create(r.client)
	if err != nil {
		t.Fatal(err)
	}
	g.Quiesce()

	write := newHeldOp()
	readReturned := make(chan struct{})
	r.net.SetAdversary(opHook{g: g, f: func(replica string, m *opMessage) error {
		switch {
		case replica == "rep-2" && m.Op == opAdvance:
			write.park()
		case replica == "rep-1" && m.Op == opRead:
			<-readReturned
		}
		return nil
	}})
	if v, err := g.Increment(r.client, uuid); err != nil || v != 1 {
		t.Fatalf("increment acked by rep-0, rep-1: v=%d err=%v", v, err)
	}
	<-write.arrived

	type result struct {
		v   uint32
		err error
	}
	got := make(chan result, 1)
	go func() {
		v, err := g.Read(r.client, uuid)
		got <- result{v, err}
	}()
	select {
	case res := <-got:
		if res.err != nil || res.v != 1 {
			t.Fatalf("read with a write still held: v=%d err=%v, want 1", res.v, res.err)
		}
	case <-time.After(10 * time.Second): // only ever reached by a failing run
		t.Fatal("read is waiting for the held write")
	}
	close(readReturned)
	close(write.release)
	g.Quiesce()

	r.wantEverywhere(t, uuid, 1)
	if v, err := g.Read(r.client, uuid); err != nil || v != 1 {
		t.Fatalf("read after the held write landed: v=%d err=%v, want 1", v, err)
	}
	g.Quiesce()
}

// TestForgedCapabilityInstallsNothing: a write is refused by a replica
// that holds no slot for its counter, so neither a never-issued ID nor a
// live ID under a wrong nonce — sent while rep-2 has missed the create —
// mints a slot, spends budget, or moves the real counter.
func TestForgedCapabilityInstallsNothing(t *testing.T) {
	r := newRig(t, 1)
	g := r.group
	owner := r.client.MREnclave()
	r.net.SetAdversary(dropAdversary{kind: kindOp, to: r.replicas[2].Address()})
	uuid, _, err := g.Create(r.client)
	if err != nil {
		t.Fatal(err)
	}
	g.Quiesce()
	r.net.SetAdversary(nil)

	footprint := func() string {
		s := fmt.Sprintf("live=%d owned=%d", g.TotalLive(), g.Count(owner))
		for i, rep := range r.replicas {
			rep.mu.Lock()
			s += fmt.Sprintf(" %s:%d/%d", rep.ID(), len(rep.table), r.services[i].TotalLive())
			rep.mu.Unlock()
		}
		return s
	}
	before := footprint()
	if want := "live=1 owned=1 rep-0:1/1 rep-1:1/1 rep-2:0/0"; before != want {
		t.Fatalf("setup: %s, want %s", before, want)
	}

	wrongNonce := uuid
	wrongNonce.Nonce[0] ^= 0xFF
	for name, forged := range map[string]pse.UUID{
		"never-issued id": {ID: uuid.ID + 1000, Nonce: uuid.Nonce},
		"wrong nonce":     wrongNonce,
	} {
		if _, err := g.Increment(r.client, forged); !errors.Is(err, pse.ErrCounterNotFound) {
			t.Errorf("%s: increment: err = %v", name, err)
		}
		if _, err := g.Read(r.client, forged); !errors.Is(err, pse.ErrCounterNotFound) {
			t.Errorf("%s: read: err = %v", name, err)
		}
		if _, err := g.AdminAdvance(owner, forged, 7); !errors.Is(err, pse.ErrCounterNotFound) {
			t.Errorf("%s: admin advance: err = %v", name, err)
		}
		g.Quiesce()
		if after := footprint(); after != before {
			t.Errorf("%s: footprint %s, was %s", name, after, before)
		}
	}
	// The refused writes consumed nothing of the real counter either.
	if v, err := g.Increment(r.client, uuid); err != nil || v != 1 {
		t.Fatalf("owner's increment after the forgeries: v=%d err=%v, want 1", v, err)
	}
	g.Quiesce()
}

// TestDestroyAfterMissedCreate: rep-2's create is held and its copy of the
// increment to 5 dropped, so a destroy finds rep-2 without the counter.
// The destroy succeeds on rep-0 and rep-1 with capture 5 and tombstones
// rep-2 too (create, then destroy), so the held create, landing after it,
// is turned away instead of installing a live ghost slot. A second destroy
// is refused at the coordinator without sending a message.
func TestDestroyAfterMissedCreate(t *testing.T) {
	r := newRig(t, 1)
	g := r.group
	liveBefore := r.services[2].TotalLive()

	create := newHeldOp()
	var heldNonce atomic.Uint64
	var advances, sends atomic.Int32
	lateCreate := make(chan byte, 1)
	r.net.SetAdversary(opHook{g: g,
		f: func(replica string, m *opMessage) error {
			sends.Add(1)
			switch {
			case replica == "rep-2" && m.Op == opCreate:
				heldNonce.CompareAndSwap(0, m.Nonce)
				create.park() // the first create; the destroy's repair passes
			case replica == "rep-2" && m.Op == opAdvance && advances.Add(1) == 1:
				return transport.ErrDropped
			}
			return nil
		},
		done: func(replica string, m *opMessage, rep *opReply) {
			if replica == "rep-2" && m.Op == opCreate && m.Nonce == heldNonce.Load() {
				var st byte
				if rep != nil {
					st = rep.Status
				}
				lateCreate <- st
			}
		},
	})

	uuid, _, err := g.Create(r.client)
	if err != nil {
		t.Fatal(err)
	}
	<-create.arrived
	if v, err := g.IncrementN(r.client, uuid, 5); err != nil || v != 5 {
		t.Fatalf("increment acked by rep-0, rep-1: v=%d err=%v", v, err)
	}
	if v, err := g.DestroyAndRead(r.client, uuid); err != nil || v != 5 {
		t.Fatalf("destroy across a replica that missed the create: v=%d err=%v, want 5", v, err)
	}
	close(create.release)
	if st := <-lateCreate; st != statusGone {
		t.Fatalf("held create landing after the destroy: status %d, want statusGone (%d)", st, statusGone)
	}
	g.Quiesce()

	before := sends.Load()
	if _, err := g.DestroyAndRead(r.client, uuid); !errors.Is(err, pse.ErrCounterNotFound) {
		t.Fatalf("second destroy: err = %v, want ErrCounterNotFound", err)
	}
	if n := sends.Load() - before; n != 0 {
		t.Fatalf("second destroy sent %d ops, want none", n)
	}
	if got := r.services[2].TotalLive(); got != liveBefore {
		t.Fatalf("rep-2 holds %d local counters, want %d as before the create", got, liveBefore)
	}
	if got := g.TotalLive(); got != 0 {
		t.Fatalf("group TotalLive = %d, want 0", got)
	}
}

// TestWritesCommuteUnderAdversary is the seeded property behind the three
// scenarios above: one incrementer, two readers, and an adversary that for
// every increment picks a replica and drops, delays (past the following
// increment) or records-for-replay the next write addressed to it —
// sometimes dropping a second replica's copy too, so the attempt fails on
// a minority. Every successful increment returns exactly the previous
// result + 1 + the attempts that failed in between, and more than any
// read before it; a reader never sees a value go back; no replica ever
// holds more than the highest value issued.
//
// Partway through, two destroyers race each other and the incrementer,
// and the adversary drops the first destroy's copy to one replica (which
// so keeps the counter live). Exactly one destroy succeeds; its capture is
// at least every acknowledged increment and every read; no increment or
// read invoked after it returned succeeds.
func TestWritesCommuteUnderAdversary(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) { writesCommute(t, seed) })
	}
}

func writesCommute(t *testing.T, seed int64) {
	const (
		pass = iota
		drop
		dropTwo
		delay
		record
		modes
	)
	r := newRig(t, 1)
	g := r.group
	uuid, _, err := g.Create(r.client)
	if err != nil {
		t.Fatal(err)
	}
	g.Quiesce()

	rng := rand.New(rand.NewSource(seed))
	destroyAt, destroyVictim := 50+rng.Intn(100), r.replicas[rng.Intn(3)].ID()
	var (
		dropDestroy atomic.Bool // the first destroy's copy to destroyVictim is dropped
		destroying  atomic.Bool // a destroyer has been started
		destroyed   atomic.Bool // the winning destroy has returned
		maxAcked    atomic.Uint32
	)
	dropDestroy.Store(true)

	// The plan of the current increment, set by the incrementer.
	var (
		mu       sync.Mutex
		mode     int
		victim   string
		second   string // dropTwo's other replica
		armed    bool   // the victim's next write has not been seen yet
		gate     chan struct{}
		recorded []transport.Message
	)
	r.net.SetAdversary(&transport.Interceptor{Request: func(msg *transport.Message) error {
		replica, m := opHook{g: g}.open(msg)
		if m != nil && m.Op == opDestroyRead && replica == destroyVictim && dropDestroy.CompareAndSwap(true, false) {
			return transport.ErrDropped
		}
		if m == nil || m.Op != opAdvance {
			return nil
		}
		mu.Lock()
		md, hit, wait := mode, armed && replica == victim, gate
		if hit {
			armed = false
			if md == record {
				cp := *msg
				cp.Payload = append([]byte(nil), msg.Payload...)
				recorded = append(recorded, cp)
			}
		}
		also := md == dropTwo && replica == second
		mu.Unlock()
		switch {
		case also, hit && (md == drop || md == dropTwo):
			return transport.ErrDropped
		case hit && md == delay && !destroying.Load():
			// Once the destroy runs, an increment can meet tombstones and
			// wait for every vote, this one included: no delays then.
			<-wait
		}
		return nil
	}})

	var maxRead atomic.Uint32
	stop := make(chan struct{})
	var readers, destroyers sync.WaitGroup
	var gates []chan struct{} // gates[i] is released when increment i+2 starts
	released := 0
	defer func() {
		close(stop)
		for _, gt := range gates[released:] {
			close(gt)
		}
		readers.Wait()
		destroyers.Wait()
		g.Quiesce()
	}()
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last uint32
			for {
				select {
				case <-stop:
					return
				default:
				}
				after := destroyed.Load()
				v, err := g.Read(r.client, uuid)
				if err == nil && after {
					t.Errorf("read returned %d after the destroy had returned", v)
					return
				}
				if errors.Is(err, ErrNoQuorum) || errors.Is(err, pse.ErrCounterNotFound) && destroying.Load() {
					continue // a dropped repair can leave a read short of a quorum
				}
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if v < last {
					t.Errorf("read went back: %d after %d", v, last)
					return
				}
				last = v
				for cur := maxRead.Load(); v > cur && !maxRead.CompareAndSwap(cur, v); cur = maxRead.Load() {
				}
			}
		}()
	}

	// Each destroyer retries an unavailable answer until it wins or finds
	// the counter gone.
	var wins atomic.Int32
	var capture atomic.Uint32
	destroyer := func() {
		defer destroyers.Done()
		for {
			v, err := g.DestroyAndRead(r.client, uuid)
			switch {
			case err == nil:
				wins.Add(1)
				capture.Store(v)
				destroyed.Store(true)
				return
			case errors.Is(err, pse.ErrCounterNotFound):
				return
			case !errors.Is(err, ErrNoQuorum):
				t.Errorf("destroy: %v", err)
				return
			}
		}
	}

	var issued, failed uint32 // highest value issued; attempts failed since the last success
	for op := 0; op < 200 && !t.Failed(); op++ {
		if op == destroyAt {
			destroying.Store(true)
			destroyers.Add(2)
			go destroyer()
			go destroyer()
		}
		if op >= 2 {
			close(gates[released])
			released++
		}
		next := make(chan struct{})
		gates = append(gates, next)
		mu.Lock()
		armed = false // the replay below is delivered as is
		var replay *transport.Message
		if len(recorded) > 0 && rng.Intn(2) == 0 {
			replay = &recorded[rng.Intn(len(recorded))]
		}
		mu.Unlock()
		if replay != nil {
			// A recorded write delivered again, increments later.
			_, _ = r.net.Send(replay.From, replay.To, replay.Kind, replay.Payload)
		}
		mu.Lock()
		mode, armed, gate = rng.Intn(modes), true, next
		v := rng.Intn(3)
		victim, second = r.replicas[v].ID(), r.replicas[(v+1+rng.Intn(2))%3].ID()
		mu.Unlock()

		seen, after := maxRead.Load(), destroyed.Load()
		got, err := g.Increment(r.client, uuid)
		issued++
		switch {
		case err == nil && after:
			t.Fatalf("increment %d returned %d after the destroy had returned", op, got)
		case errors.Is(err, ErrNoQuorum), errors.Is(err, pse.ErrCounterNotFound) && destroying.Load():
			failed++
		case err != nil:
			t.Fatalf("increment %d: %v", op, err)
		case got != issued:
			t.Fatalf("increment %d returned %d, want %d (%d attempts failed since the last success)", op, got, issued, failed)
		case got <= seen:
			t.Fatalf("increment %d returned %d, not above the earlier read of %d", op, got, seen)
		default:
			failed = 0
			maxAcked.Store(got)
		}
		for i, rep := range r.replicas {
			// Read under the replica's lock: a racing destroy may drop the
			// slot and its local counter.
			rep.mu.Lock()
			var v uint32
			var err error
			if slot := rep.table[uuid.ID]; slot != nil {
				v, err = r.services[i].Read(rep.agent, slot.local)
			}
			rep.mu.Unlock()
			if err != nil || v > issued {
				t.Fatalf("after increment %d: %s holds %d (err=%v), highest issued is %d", op, rep.ID(), v, err, issued)
			}
		}
	}
	destroyers.Wait()
	if n := wins.Load(); n != 1 {
		t.Fatalf("%d destroys succeeded, want exactly 1", n)
	}
	if c := capture.Load(); c < maxAcked.Load() || c < maxRead.Load() || c > issued {
		t.Fatalf("destroy captured %d: acknowledged increments reached %d, reads %d, highest issued %d",
			c, maxAcked.Load(), maxRead.Load(), issued)
	}
}
