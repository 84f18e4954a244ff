package pserepl

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/transport"
)

// opHook is an adversary that shows the test every counter-op request in
// the clear (the group key is the test's own) before it reaches its
// replica; f may block to hold the request, or return an error to drop it.
type opHook struct {
	g *Group
	f func(replica string, m *opMessage) error
}

func (h opHook) OnRequest(msg *transport.Message) error {
	if msg.Kind != kindOp {
		return nil
	}
	replica := strings.TrimSuffix(string(msg.To), "/ctr")
	raw, err := h.g.sealer.Open(msg.Payload, aadReq(kindOp, replica))
	if err != nil {
		return nil
	}
	m, err := decodeOpMessage(raw)
	if err != nil {
		return nil
	}
	return h.f(replica, m)
}

func (opHook) OnResponse(transport.Message, *[]byte) error { return nil }

// TestStragglerLandingMidConfirmStillConverges is the regression for a
// tier-1 flake: a read whose durability check falls short only because
// one acker's increment is still in flight must wait for that apply and
// re-confirm — even when the straggler lands while the check is still
// running. (The commit used to decide that from a second look at the
// in-flight table; a straggler landing between the two looks turned a
// converged group into ErrNoQuorum.) Five replicas, every step held on a
// channel:
//
//	increment to 7: rep-0, rep-3, rep-4 ack; rep-1's copy is dropped
//	(it stays at 6, nothing in flight); rep-2's copy is held in flight.
//	read: acked by rep-0 (7), rep-1 (6) and rep-2 (6, in flight), so 7
//	is confirmed on one replica, repairable on one more, and quorum is 3.
//	The repair sent to rep-1 is the signal, from inside the durability
//	check, that releases rep-2's held increment and waits for it to land.
func TestStragglerLandingMidConfirmStillConverges(t *testing.T) {
	r := newRig(t, 2)
	g := r.group
	uuid, _, err := g.Create(r.client)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.IncrementN(r.client, uuid, 6); err != nil {
		t.Fatal(err)
	}
	g.Quiesce()

	held := make(chan struct{}) // closed to let every held request go
	var release sync.Once
	r.net.SetAdversary(opHook{g: g, f: func(replica string, m *opMessage) error {
		switch {
		case m.Op == opIncrement && replica == "rep-1":
			return transport.ErrDropped
		case m.Op == opIncrement && replica == "rep-2",
			m.Op == opRead && (replica == "rep-3" || replica == "rep-4"):
			<-held
		case m.Op == opAdvance && replica == "rep-1":
			release.Do(func() {
				close(held)
				for g.counterInflight(uuid.ID) {
					runtime.Gosched()
				}
			})
		}
		return nil
	}})

	if v, err := g.Increment(r.client, uuid); err != nil || v != 7 {
		t.Fatalf("increment acked by rep-0, rep-3, rep-4: v=%d err=%v", v, err)
	}
	// rep-1's refusal may still be in the increment's late-vote queue.
	for g.hasInflight(uuid.ID, "rep-1") {
		runtime.Gosched()
	}
	if !g.hasInflight(uuid.ID, "rep-2") {
		t.Fatal("setup: rep-2's increment is not in flight")
	}

	v, err := g.Read(r.client, uuid)
	if err != nil || v != 7 {
		t.Fatalf("read across a straggler that landed mid-confirm: v=%d err=%v, want 7", v, err)
	}
	select {
	case <-held:
	default:
		t.Fatal("the read never repaired rep-1: the scenario did not run")
	}
	g.Quiesce()
}
