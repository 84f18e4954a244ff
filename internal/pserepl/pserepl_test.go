package pserepl

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/pse"
	"repro/internal/sgx"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/xcrypto"
)

// rig is a replica group on bare simulated hardware: n replica machines,
// one client machine hosting the owning enclave.
type rig struct {
	lat      *sim.Latency
	net      *transport.Network
	group    *Group
	replicas []*Replica
	machines []*sgx.Machine
	services []*pse.Service
	client   *sgx.Enclave
}

func testImage(name string) *sgx.Image {
	key := xcrypto.DeriveKey([]byte("pserepl-test"), "signer")
	return &sgx.Image{Name: name, Version: 1, Code: []byte(name), SignerPublicKey: ed25519.PublicKey(key[:])}
}

func newRig(t *testing.T, f int) *rig {
	t.Helper()
	r := &rig{lat: sim.NewInstantLatency()}
	r.net = transport.NewNetwork(r.lat)
	n := 2*f + 1
	for i := 0; i < n; i++ {
		hw, err := sgx.NewMachine(sgx.MachineID(fmt.Sprintf("rep-%d", i)), r.lat)
		if err != nil {
			t.Fatal(err)
		}
		svc := pse.NewService(r.lat)
		rep, err := NewReplica(fmt.Sprintf("rep-%d", i), hw, svc, r.net, transport.Address(fmt.Sprintf("rep-%d/ctr", i)))
		if err != nil {
			t.Fatal(err)
		}
		r.machines = append(r.machines, hw)
		r.services = append(r.services, svc)
		r.replicas = append(r.replicas, rep)
	}
	g, err := NewGroup("test-rack", f, r.net, r.replicas...)
	if err != nil {
		t.Fatal(err)
	}
	r.group = g
	clientHW, err := sgx.NewMachine("client", r.lat)
	if err != nil {
		t.Fatal(err)
	}
	r.client, err = clientHW.Load(testImage("owner-app"))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestGroupValidation(t *testing.T) {
	r := newRig(t, 1)
	if _, err := NewGroup("bad", 1, r.net, r.replicas[0]); !errors.Is(err, ErrBadReplication) {
		t.Fatalf("f=1 with one replica: err = %v", err)
	}
	if _, err := NewGroup("bad", -1, r.net); !errors.Is(err, ErrBadReplication) {
		t.Fatalf("negative f: err = %v", err)
	}
	if _, err := NewGroup("bad", 1, r.net, r.replicas[0], r.replicas[1], r.replicas[0]); !errors.Is(err, ErrBadReplication) {
		t.Fatalf("duplicate replica: err = %v", err)
	}
}

func TestQuorumLifecycle(t *testing.T) {
	r := newRig(t, 1)
	g := r.group

	uuid, v, err := g.Create(r.client)
	if err != nil || v != 0 {
		t.Fatalf("create: v=%d err=%v", v, err)
	}
	for want := uint32(1); want <= 5; want++ {
		got, err := g.Increment(r.client, uuid)
		if err != nil || got != want {
			t.Fatalf("increment: got %d err=%v, want %d", got, err, want)
		}
	}
	if got, err := g.Read(r.client, uuid); err != nil || got != 5 {
		t.Fatalf("read: got %d err=%v", got, err)
	}
	if got, err := g.IncrementN(r.client, uuid, 10); err != nil || got != 15 {
		t.Fatalf("incrementN: got %d err=%v", got, err)
	}
	if g.Count(r.client.MREnclave()) != 1 {
		t.Fatalf("owner count = %d", g.Count(r.client.MREnclave()))
	}

	// Capability and owner enforcement happen replica-side.
	bad := uuid
	bad.Nonce[0] ^= 0xFF
	if _, err := g.Read(r.client, bad); !errors.Is(err, pse.ErrCounterNotFound) {
		t.Fatalf("wrong nonce: err = %v", err)
	}
	otherHW, _ := sgx.NewMachine("other", r.lat)
	stranger, err := otherHW.Load(testImage("stranger-app"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Increment(stranger, uuid); !errors.Is(err, pse.ErrNotOwner) {
		t.Fatalf("stranger increment: err = %v", err)
	}

	final, err := g.DestroyAndRead(r.client, uuid)
	if err != nil || final != 15 {
		t.Fatalf("destroy: final=%d err=%v", final, err)
	}
	if _, err := g.Increment(r.client, uuid); !errors.Is(err, pse.ErrCounterNotFound) {
		t.Fatalf("increment after destroy: err = %v", err)
	}
	// A second destroy of the same counter must fail like the firmware
	// primitive does — a forked clone re-running its freeze capture must
	// not get a success with a zero value.
	if _, err := g.DestroyAndRead(r.client, uuid); !errors.Is(err, pse.ErrCounterNotFound) {
		t.Fatalf("second destroy: err = %v", err)
	}
	if g.Count(r.client.MREnclave()) != 0 {
		t.Fatalf("owner count after destroy = %d", g.Count(r.client.MREnclave()))
	}

	// A fresh create never reuses the destroyed UUID.
	uuid2, _, err := g.Create(r.client)
	if err != nil {
		t.Fatal(err)
	}
	if uuid2.ID == uuid.ID {
		t.Fatal("counter ID reused after destroy")
	}
}

// TestKillOneReplica is the availability acceptance check: with one of
// 2f+1 replicas dead, counters stay available and strictly monotonic;
// with f+1 dead, operations fail safe with ErrNoQuorum instead of
// answering from a minority.
func TestKillOneReplica(t *testing.T) {
	r := newRig(t, 1)
	g := r.group
	uuid, _, err := g.Create(r.client)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.IncrementN(r.client, uuid, 7); err != nil {
		t.Fatal(err)
	}

	// Kill one replica machine: its agent enclave dies with it.
	r.machines[0].Restart()
	last := uint32(7)
	for i := 0; i < 5; i++ {
		got, err := g.Increment(r.client, uuid)
		if err != nil {
			t.Fatalf("increment with one replica down: %v", err)
		}
		if got <= last {
			t.Fatalf("monotonicity violated: %d after %d", got, last)
		}
		last = got
	}
	if got, err := g.Read(r.client, uuid); err != nil || got != 12 {
		t.Fatalf("read with one replica down: got %d err=%v", got, err)
	}
	// Creates and destroys also commit with the quorum intact.
	u2, _, err := g.Create(r.client)
	if err != nil {
		t.Fatalf("create with one replica down: %v", err)
	}
	if _, err := g.DestroyAndRead(r.client, u2); err != nil {
		t.Fatalf("destroy with one replica down: %v", err)
	}

	// Second failure exceeds f: unavailable, never wrong.
	r.machines[1].Restart()
	if _, err := g.Increment(r.client, uuid); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("increment with quorum lost: err = %v", err)
	}
	if _, err := g.Read(r.client, uuid); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("read with quorum lost: err = %v", err)
	}
}

// TestReseedRejoin exercises the recovery path: a replica that missed
// increments, a create, and a destroy while its machine was down is
// re-seeded from the quorum and then carries the full state — proven by
// killing a different replica afterwards and operating against a quorum
// that includes the rejoined one.
func TestReseedRejoin(t *testing.T) {
	r := newRig(t, 1)
	g := r.group
	uuid, _, err := g.Create(r.client)
	if err != nil {
		t.Fatal(err)
	}
	doomed, _, err := g.Create(r.client)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.IncrementN(r.client, uuid, 3); err != nil {
		t.Fatal(err)
	}

	// Early-quorum returns can leave a straggler's create still in flight;
	// settle them, or with rep-0 down the destroy below can meet a replica
	// that has not heard of the counter yet and (safely) find no quorum.
	g.Quiesce()
	r.machines[0].Restart() // rep-0 goes down
	if _, err := g.IncrementN(r.client, uuid, 4); err != nil {
		t.Fatal(err)
	}
	born, _, err := g.Create(r.client) // created while rep-0 is away
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Increment(r.client, born); err != nil {
		t.Fatal(err)
	}
	if _, err := g.DestroyAndRead(r.client, doomed); err != nil { // destroyed while away
		t.Fatal(err)
	}

	// Rejoin: reload the agent; the replica refuses to serve until the
	// reseed has replayed the quorum state onto it.
	if err := r.replicas[0].Restart(); err != nil {
		t.Fatal(err)
	}
	if r.replicas[0].Synced() {
		t.Fatal("replica serving before reseed")
	}
	if err := g.Reseed("rep-0"); err != nil {
		t.Fatal(err)
	}
	if !r.replicas[0].Synced() {
		t.Fatal("replica not serving after reseed")
	}

	// Now lose a replica that saw everything; the quorum must rely on
	// the rejoined one.
	r.machines[2].Restart()
	if got, err := g.Read(r.client, uuid); err != nil || got != 7 {
		t.Fatalf("read after reseed: got %d err=%v", got, err)
	}
	if got, err := g.Increment(r.client, uuid); err != nil || got != 8 {
		t.Fatalf("increment after reseed: got %d err=%v", got, err)
	}
	if got, err := g.Read(r.client, born); err != nil || got != 1 {
		t.Fatalf("read of counter created while away: got %d err=%v", got, err)
	}
	if _, err := g.Read(r.client, doomed); !errors.Is(err, pse.ErrCounterNotFound) {
		t.Fatalf("destroyed counter resurrected: err = %v", err)
	}
}

// TestHandoff moves a replica role to a fresh machine (the drain path)
// and verifies the group then tolerates losing another original member.
func TestHandoff(t *testing.T) {
	r := newRig(t, 1)
	g := r.group
	uuid, _, err := g.Create(r.client)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.IncrementN(r.client, uuid, 9); err != nil {
		t.Fatal(err)
	}

	freshHW, err := sgx.NewMachine("rep-3", r.lat)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewReplica("rep-3", freshHW, pse.NewService(r.lat), r.net, "rep-3/ctr")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Handoff("rep-0", fresh); err != nil {
		t.Fatal(err)
	}
	r.replicas[0].Close()
	want := []string{"rep-1", "rep-2", "rep-3"}
	got := g.Members()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("members after handoff = %v", got)
	}

	// The old machine can now disappear entirely, and another original
	// can die: the new replica carries its share.
	r.machines[0].Restart()
	r.machines[1].Restart()
	if got, err := g.Read(r.client, uuid); err != nil || got != 9 {
		t.Fatalf("read after handoff: got %d err=%v", got, err)
	}
	if got, err := g.Increment(r.client, uuid); err != nil || got != 10 {
		t.Fatalf("increment after handoff: got %d err=%v", got, err)
	}

	if err := g.Handoff("rep-0", fresh); !errors.Is(err, ErrUnknownReplica) {
		t.Fatalf("handoff of non-member: err = %v", err)
	}
}

// TestInspect is the operator view: the counter value is readable from
// the quorum with the UUID capability and owner identity alone, even
// when the owning enclave (and its whole machine) is gone.
func TestInspect(t *testing.T) {
	r := newRig(t, 1)
	g := r.group
	uuid, _, err := g.Create(r.client)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.IncrementN(r.client, uuid, 6); err != nil {
		t.Fatal(err)
	}
	owner := r.client.MREnclave()
	r.client.Machine().Restart() // owner enclave dies with its machine
	if _, err := g.Increment(r.client, uuid); !errors.Is(err, sgx.ErrEnclaveDestroyed) {
		t.Fatalf("dead owner increment: err = %v", err)
	}
	if got, err := g.Inspect(owner, uuid); err != nil || got != 6 {
		t.Fatalf("inspect: got %d err=%v", got, err)
	}
}

// TestReplicationCharges pins the simulated cost model of one replicated
// increment at f=1: one client ECALL, and per replica one network RTT,
// one replica-apply, one agent ECALL, and one firmware increment.
func TestReplicationCharges(t *testing.T) {
	r := newRig(t, 1)
	g := r.group
	uuid, _, err := g.Create(r.client)
	if err != nil {
		t.Fatal(err)
	}
	g.Quiesce() // let the create's straggler vote land before the reset
	r.lat.Reset()
	if _, err := g.Increment(r.client, uuid); err != nil {
		t.Fatal(err)
	}
	// The increment returns as soon as a majority acked; wait for the
	// straggler's vote (and any late repair) so the full fan-out cost is
	// visible before counting.
	g.Quiesce()
	counts := r.lat.Counts()
	if got := counts[sim.OpCounterIncrement]; got != 3 {
		t.Fatalf("firmware increments = %d, want 3", got)
	}
	if got := counts[sim.OpNetworkRTT]; got != 3 {
		t.Fatalf("network RTTs = %d, want 3", got)
	}
	if got := counts[sim.OpReplicaApply]; got != 3 {
		t.Fatalf("replica applies = %d, want 3", got)
	}
	if got := counts[sim.OpECall]; got != 4 { // 1 client + 3 agents
		t.Fatalf("ecalls = %d, want 4", got)
	}
	if got := counts[sim.OpCounterRead]; got != 0 {
		t.Fatalf("firmware reads = %d, want 0: a write is one firmware transaction", got)
	}
}

// TestGroupCapacityShared pins the rack's counter budget: every replica
// backs group counters under its single agent identity, so the group
// offers one facility's worth (pse.MaxCounters) shared across all
// owners, enforced at the coordinator instead of failing deep in the
// replicas.
func TestGroupCapacityShared(t *testing.T) {
	r := newRig(t, 0)
	g := r.group
	otherHW, _ := sgx.NewMachine("other-owner", r.lat)
	other, err := otherHW.Load(testImage("other-owner-app"))
	if err != nil {
		t.Fatal(err)
	}
	half := pse.MaxCounters / 2
	var lastA pse.UUID
	for i := 0; i < half; i++ {
		u, _, err := g.Create(r.client)
		if err != nil {
			t.Fatalf("create %d (owner A): %v", i, err)
		}
		lastA = u
		if _, _, err := g.Create(other); err != nil {
			t.Fatalf("create %d (owner B): %v", i, err)
		}
	}
	if g.TotalLive() != pse.MaxCounters {
		t.Fatalf("total live = %d", g.TotalLive())
	}
	// The rack is full for every owner, not only the one at 256.
	if _, _, err := g.Create(other); !errors.Is(err, pse.ErrCounterLimit) {
		t.Fatalf("create beyond rack capacity: err = %v", err)
	}
	// Destroying frees rack budget again.
	if _, err := g.DestroyAndRead(r.client, lastA); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.Create(other); err != nil {
		t.Fatalf("create after freeing budget: %v", err)
	}
}

// TestForgedAndReplayedTrafficRejected is the network-adversary check:
// replication endpoints accept nothing that is not sealed under the
// group key, and a recorded reseed cannot be replayed later (the
// freshness challenge rotates).
func TestForgedAndReplayedTrafficRejected(t *testing.T) {
	r := newRig(t, 1)
	g := r.group
	uuid, _, err := g.Create(r.client)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.IncrementN(r.client, uuid, 4); err != nil {
		t.Fatal(err)
	}

	// Forgery: a plaintext destroy sent straight to a replica address.
	forged := (&opMessage{Op: opDestroyRead, UUID: uuid, Owner: r.client.MREnclave()}).encode()
	if _, err := r.net.Send("adversary", r.replicas[0].Address(), kindOp, forged); !errors.Is(err, ErrBadAuth) {
		t.Fatalf("forged op accepted: err = %v", err)
	}
	// Forgery: a plaintext reseed with a tombstone for the live counter.
	evil := (&syncMessage{Tombstones: []uint32{uuid.ID}}).encode()
	if _, err := r.net.Send("adversary", r.replicas[0].Address(), kindReseed, evil); !errors.Is(err, ErrBadAuth) {
		t.Fatalf("forged reseed accepted: err = %v", err)
	}
	if got, err := g.Read(r.client, uuid); err != nil || got != 4 {
		t.Fatalf("counter after forgeries: got %d err=%v", got, err)
	}

	// Replay: record the sealed reseed traffic of a legitimate recovery,
	// then play it back at the (by then re-restarted) replica.
	var recorded [][]byte
	var recMu sync.Mutex
	r.net.SetAdversary(recorderAdversary{kind: kindReseed, mu: &recMu, out: &recorded})
	r.machines[0].Restart()
	if err := r.replicas[0].Restart(); err != nil {
		t.Fatal(err)
	}
	if err := g.Reseed("rep-0"); err != nil {
		t.Fatal(err)
	}
	r.net.SetAdversary(nil)
	if len(recorded) == 0 {
		t.Fatal("no reseed traffic recorded")
	}
	r.machines[0].Restart()
	if err := r.replicas[0].Restart(); err != nil {
		t.Fatal(err)
	}
	for _, raw := range recorded {
		if _, err := r.net.Send("adversary", r.replicas[0].Address(), kindReseed, raw); !errors.Is(err, ErrBadAuth) {
			t.Fatalf("replayed reseed accepted: err = %v", err)
		}
	}
	if r.replicas[0].Synced() {
		t.Fatal("replayed reseed marked replica serving")
	}
	// The legitimate path still works.
	if err := g.Reseed("rep-0"); err != nil {
		t.Fatal(err)
	}
	if got, err := g.Read(r.client, uuid); err != nil || got != 4 {
		t.Fatalf("counter after replay attempts: got %d err=%v", got, err)
	}

	// Vote replay: record the sealed votes of a read at value 4, advance
	// the counter, then substitute the recorded votes into a later read.
	// The stale votes must not be counted (nonce echo), so the read
	// fails safe instead of reporting the rolled-back value.
	var oldVotes [][]byte
	r.net.SetAdversary(replyRecorder{kind: kindOp, mu: &recMu, out: &oldVotes})
	if got, err := g.Read(r.client, uuid); err != nil || got != 4 {
		t.Fatalf("recorded read: got %d err=%v", got, err)
	}
	// The read returns on the first decidable majority; the straggler's
	// vote is still being recorded. Settle before reading oldVotes.
	g.Quiesce()
	r.net.SetAdversary(nil)
	if _, err := g.IncrementN(r.client, uuid, 3); err != nil {
		t.Fatal(err)
	}
	r.net.SetAdversary(replySubstituter{kind: kindOp, replies: oldVotes})
	if got, err := g.Read(r.client, uuid); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("read with replayed votes: got %d err=%v (want no-quorum)", got, err)
	}
	r.net.SetAdversary(nil)
	if got, err := g.Read(r.client, uuid); err != nil || got != 7 {
		t.Fatalf("clean read after vote replay: got %d err=%v", got, err)
	}
}

// replyRecorder copies response payloads of one message kind (locked:
// it runs from the parallel fan-out goroutines).
type replyRecorder struct {
	kind string
	mu   *sync.Mutex
	out  *[][]byte
}

func (a replyRecorder) OnRequest(*transport.Message) error { return nil }

func (a replyRecorder) OnResponse(msg transport.Message, reply *[]byte) error {
	if msg.Kind == a.kind {
		a.mu.Lock()
		*a.out = append(*a.out, append([]byte(nil), *reply...))
		a.mu.Unlock()
	}
	return nil
}

// replySubstituter replaces each response of one kind with recorded ones.
type replySubstituter struct {
	kind    string
	replies [][]byte
}

func (a replySubstituter) OnRequest(*transport.Message) error { return nil }

func (a replySubstituter) OnResponse(msg transport.Message, reply *[]byte) error {
	if msg.Kind == a.kind && len(a.replies) > 0 {
		*reply = append([]byte(nil), a.replies[0]...)
	}
	return nil
}

// recorderAdversary copies request payloads of one message kind.
// Adversary callbacks run from the group's parallel fan-out goroutines,
// so recording is locked.
type recorderAdversary struct {
	kind string
	mu   *sync.Mutex
	out  *[][]byte
}

func (a recorderAdversary) OnRequest(msg *transport.Message) error {
	if msg.Kind == a.kind {
		a.mu.Lock()
		*a.out = append(*a.out, append([]byte(nil), msg.Payload...))
		a.mu.Unlock()
	}
	return nil
}

func (a recorderAdversary) OnResponse(transport.Message, *[]byte) error { return nil }

// TestReseedCannotResurrect pins the stickiness of destruction across
// recovery: a replica that processed a committed destroy keeps its
// tombstone even when a reseed built from a stale peer lists the counter
// as live (the scenario: the destroy quorum's other members are down, so
// the snapshot comes from a replica that missed the destroy).
func TestReseedCannotResurrect(t *testing.T) {
	r := newRig(t, 1)
	g := r.group
	uuid, _, err := g.Create(r.client)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.IncrementN(r.client, uuid, 5); err != nil {
		t.Fatal(err)
	}

	// rep-2 misses the destroy: its machine is down when it commits.
	r.machines[2].Restart()
	if _, err := g.DestroyAndRead(r.client, uuid); err != nil {
		t.Fatal(err)
	}

	// rep-2 recovers the honest way first (its reseed carries the
	// tombstone from rep-0/rep-1).
	if err := r.replicas[2].Restart(); err != nil {
		t.Fatal(err)
	}
	// Now craft the stale view the adversarial scenario produces: a
	// reseed for rep-0 listing the destroyed counter live at an old
	// value, correctly challenge-bound (the attack is staleness, not
	// forgery — e.g. assembled from a stale replica's snapshot).
	rep0 := r.replicas[0]
	stale := &syncMessage{
		Entries: []syncEntry{{UUID: uuid, Owner: r.client.MREnclave(), Value: 3}},
	}
	rep0.mu.Lock()
	stale.Challenge = rep0.challenge
	rep0.mu.Unlock()
	if _, err := rep0.handleReseed(stale.encode()); err != nil {
		t.Fatal(err)
	}
	// The tombstone must have outranked the stale live entry.
	rep0.mu.Lock()
	_, live := rep0.table[uuid.ID]
	_, dead := rep0.destroyed[uuid.ID]
	rep0.mu.Unlock()
	if live || !dead {
		t.Fatalf("destroyed counter resurrected on reseed (live=%v dead=%v)", live, dead)
	}
	if _, err := g.Read(r.client, uuid); !errors.Is(err, pse.ErrCounterNotFound) {
		t.Fatalf("destroyed counter readable after stale reseed: err = %v", err)
	}
}

// dropAdversary drops requests of one kind addressed to one replica.
type dropAdversary struct {
	kind string
	to   transport.Address
}

func (a dropAdversary) OnRequest(msg *transport.Message) error {
	if msg.Kind == a.kind && msg.To == a.to {
		return transport.ErrDropped
	}
	return nil
}

func (a dropAdversary) OnResponse(transport.Message, *[]byte) error { return nil }

// TestDestroyRetryKeepsCommittedValue pins the R4 edge of retried
// destroys: when the first destroy attempt reaches only one replica —
// the one holding the latest committed value — and that attempt fails
// its quorum, the retry must still report the committed value, not the
// lower value of a straggler that supplies the retry's only live ack.
func TestDestroyRetryKeepsCommittedValue(t *testing.T) {
	r := newRig(t, 1)
	g := r.group
	uuid, _, err := g.Create(r.client)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.IncrementN(r.client, uuid, 7); err != nil {
		t.Fatal(err)
	}
	// rep-2 straggles at 7 while three more increments commit on
	// rep-0/rep-1 (value 10).
	r.net.SetAdversary(dropAdversary{kind: kindOp, to: r.replicas[2].Address()})
	if got, err := g.IncrementN(r.client, uuid, 3); err != nil || got != 10 {
		t.Fatalf("increment to 10: got %d err=%v", got, err)
	}
	// First destroy reaches only rep-0: it drops the counter and its
	// final value 10, but the quorum fails.
	r.net.SetAdversary(multiDrop{kinds: kindOp, to: []transport.Address{r.replicas[1].Address(), r.replicas[2].Address()}})
	if _, err := g.DestroyAndRead(r.client, uuid); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("partial destroy: err = %v", err)
	}
	// rep-1 — the only other holder of value 10 — dies; the retry's live
	// acks are rep-0 (gone) and rep-2 (straggler at 7).
	r.net.SetAdversary(nil)
	r.machines[1].Restart()
	final, err := g.DestroyAndRead(r.client, uuid)
	if err != nil {
		t.Fatalf("retry destroy: %v", err)
	}
	if final != 10 {
		t.Fatalf("retry destroy final = %d, want the committed 10", final)
	}
}

// multiDrop drops requests of one kind to any of the given addresses.
type multiDrop struct {
	kinds string
	to    []transport.Address
}

func (a multiDrop) OnRequest(msg *transport.Message) error {
	if msg.Kind != a.kinds {
		return nil
	}
	for _, to := range a.to {
		if msg.To == to {
			return transport.ErrDropped
		}
	}
	return nil
}

func (a multiDrop) OnResponse(transport.Message, *[]byte) error { return nil }

// TestStragglerRefusalIsNotAuthoritative pins the mixed-vote rule: a
// replica that missed a committed create must not be able to turn a
// live counter's reads into pse.ErrCounterNotFound (the signal the
// migration protocol reads as destroyed/forked).
//
// With one replica dead, an OK and a not-found answer the read, and that
// is decidable. The two responders intersect the create's quorum, and
// every committed write's, at the OK replica, so its value is the
// counter's. The not-found voter can only have missed the create: a
// destroyed counter has tombstones on a majority, so an OK beside a
// not-found could never reach one for it. So the read returns the value
// and heals the straggler. With two replicas dead the straggler answers
// alone: too few responses, so the read reports unavailability, never
// not-found.
func TestStragglerRefusalIsNotAuthoritative(t *testing.T) {
	r := newRig(t, 1)
	g := r.group
	// rep-2 misses the create entirely (requests to it are dropped), so
	// it stays synced but has no slot for the counter.
	r.net.SetAdversary(dropAdversary{kind: kindOp, to: r.replicas[2].Address()})
	uuid, _, err := g.Create(r.client)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.IncrementN(r.client, uuid, 4); err != nil {
		t.Fatal(err)
	}
	// Early-quorum returns can leave straggler requests still in flight;
	// settle them before lifting the drop, or one could slip through
	// afterwards and heal rep-2 ahead of the scenario.
	g.Quiesce()
	r.net.SetAdversary(nil)

	// rep-0 and rep-1 die: only the straggler's not-found answers.
	r.machines[0].Restart()
	r.machines[1].Restart()
	if _, err := g.Read(r.client, uuid); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("read answered by the straggler alone: err = %v (want no-quorum, not not-found)", err)
	}

	// rep-0 rejoins; rep-1 stays dead. The responders are rep-0 (OK,
	// value 4) and rep-2 (not-found): the read returns 4 and heals rep-2.
	if err := r.replicas[0].Restart(); err != nil {
		t.Fatal(err)
	}
	if err := g.Reseed("rep-0"); err != nil {
		t.Fatal(err)
	}
	if got, err := g.Read(r.client, uuid); err != nil || got != 4 {
		t.Fatalf("read with straggler refusal: got %d err=%v, want 4", got, err)
	}
	rep2 := r.replicas[2]
	rep2.mu.Lock()
	slot := rep2.table[uuid.ID]
	rep2.mu.Unlock()
	if slot == nil || slot.value != 4 {
		t.Fatalf("straggler not healed by the read: slot %+v", slot)
	}

	// rep-1 rejoins and rep-0 (an original create acker) dies: the healed
	// straggler carries its share of the quorum.
	if err := r.replicas[1].Restart(); err != nil {
		t.Fatal(err)
	}
	if err := g.Reseed("rep-1"); err != nil {
		t.Fatal(err)
	}
	r.machines[0].Restart()
	if got, err := g.Read(r.client, uuid); err != nil || got != 4 {
		t.Fatalf("read served by healed straggler: got %d err=%v", got, err)
	}
	if got, err := g.Increment(r.client, uuid); err != nil || got != 5 {
		t.Fatalf("increment served by healed straggler: got %d err=%v", got, err)
	}
}

// TestConcurrentDestroySingleWinner pins the coordinator's destroy
// serialization: when a forked enclave and the original race their
// freeze captures, exactly one DestroyAndRead succeeds — the other gets
// ErrCounterNotFound, exactly like the firmware singleton.
func TestConcurrentDestroySingleWinner(t *testing.T) {
	for round := 0; round < 20; round++ {
		r := newRig(t, 1)
		g := r.group
		uuid, _, err := g.Create(r.client)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.IncrementN(r.client, uuid, 5); err != nil {
			t.Fatal(err)
		}
		type outcome struct {
			v   uint32
			err error
		}
		results := make(chan outcome, 2)
		for i := 0; i < 2; i++ {
			go func() {
				v, err := g.DestroyAndRead(r.client, uuid)
				results <- outcome{v, err}
			}()
		}
		a, b := <-results, <-results
		oks := 0
		for _, o := range []outcome{a, b} {
			if o.err == nil {
				oks++
				if o.v != 5 {
					t.Fatalf("winning destroy captured %d, want 5", o.v)
				}
			} else if !errors.Is(o.err, pse.ErrCounterNotFound) {
				t.Fatalf("losing destroy: err = %v", o.err)
			}
		}
		if oks != 1 {
			t.Fatalf("round %d: %d destroys succeeded, want exactly 1", round, oks)
		}
		if g.Count(r.client.MREnclave()) != 0 {
			t.Fatalf("owner budget after racing destroys = %d", g.Count(r.client.MREnclave()))
		}
	}
}

// TestReadRepairKeepsObservedValueVisible pins read monotonicity: a
// partial, quorum-failed increment that lands on one replica and is then
// observed by a read must stay visible even when that replica later
// fails — the observing read repairs the other ack-set members up to it.
func TestReadRepairKeepsObservedValueVisible(t *testing.T) {
	r := newRig(t, 1)
	g := r.group
	uuid, _, err := g.Create(r.client)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.IncrementN(r.client, uuid, 4); err != nil {
		t.Fatal(err)
	}
	// Partial increment: only rep-0 applies (requests to rep-1/rep-2
	// dropped); the caller is told it failed.
	r.net.SetAdversary(multiDrop{kinds: kindOp, to: []transport.Address{r.replicas[1].Address(), r.replicas[2].Address()}})
	if _, err := g.Increment(r.client, uuid); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("partial increment: err = %v", err)
	}
	r.net.SetAdversary(nil)
	// A read observes the partial value 5 — and repairs the stragglers.
	// With the early-quorum return the ack set is the first majority to
	// answer; slowing rep-2 pins it to {rep-0, rep-1} so the read
	// deterministically observes the tainted replica's 5.
	r.net.SetAdversary(slowPeer{kind: kindOp, to: r.replicas[2].Address(), d: 10 * time.Millisecond})
	if got, err := g.Read(r.client, uuid); err != nil || got != 5 {
		t.Fatalf("read observing partial increment: got %d err=%v", got, err)
	}
	g.Quiesce() // the straggler's late vote is repaired off the latency path
	r.net.SetAdversary(nil)
	// The tainted replica dies (within the f budget); the observed value
	// must not vanish from the fleet.
	r.machines[0].Restart()
	if got, err := g.Read(r.client, uuid); err != nil || got != 5 {
		t.Fatalf("read after tainted replica died: got %d err=%v (regression)", got, err)
	}
}

// slowPeer delays requests to one address — a hung (but not dead) peer.
type slowPeer struct {
	kind string
	to   transport.Address
	d    time.Duration
}

func (a slowPeer) OnRequest(msg *transport.Message) error {
	if msg.Kind == a.kind && msg.To == a.to {
		time.Sleep(a.d)
	}
	return nil
}

func (a slowPeer) OnResponse(transport.Message, *[]byte) error { return nil }

// TestConcurrentIncrementsUnique pins the firmware-like unique-result
// property: concurrent increments of one counter — e.g. a forked clone
// racing the original — never return the same value.
func TestConcurrentIncrementsUnique(t *testing.T) {
	r := newRig(t, 1)
	g := r.group
	uuid, _, err := g.Create(r.client)
	if err != nil {
		t.Fatal(err)
	}
	const workers, each = 4, 8
	results := make(chan uint32, workers*each)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				v, err := g.Increment(r.client, uuid)
				if err != nil {
					t.Error(err)
					return
				}
				results <- v
			}
		}()
	}
	wg.Wait()
	close(results)
	seen := make(map[uint32]bool)
	for v := range results {
		if seen[v] {
			t.Fatalf("increment value %d returned twice", v)
		}
		seen[v] = true
	}
	if len(seen) != workers*each {
		t.Fatalf("%d unique values from %d increments", len(seen), workers*each)
	}
}

// TestIncrementResultDurable pins the durability of returned values: an
// increment whose result incorporates a partial earlier increment must
// leave that value on a majority before returning, so the death of the
// one replica that originally held it (≤f failures) cannot make the
// returned value unobservable.
func TestIncrementResultDurable(t *testing.T) {
	r := newRig(t, 1)
	g := r.group
	uuid, _, err := g.Create(r.client)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.IncrementN(r.client, uuid, 4); err != nil {
		t.Fatal(err)
	}
	// A partial increment lands only on rep-0 (5); the caller sees
	// failure.
	r.net.SetAdversary(multiDrop{kinds: kindOp, to: []transport.Address{r.replicas[1].Address(), r.replicas[2].Address()}})
	if _, err := g.Increment(r.client, uuid); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("partial increment: err = %v", err)
	}
	r.net.SetAdversary(nil)
	// The retry returns 6 — rep-0's divergent history — and must confirm
	// it on a majority before returning. Slowing rep-2 pins the early
	// ack set to {rep-0, rep-1}, so the divergent holder is
	// deterministically observed.
	r.net.SetAdversary(slowPeer{kind: kindOp, to: r.replicas[2].Address(), d: 10 * time.Millisecond})
	got, err := g.Increment(r.client, uuid)
	if err != nil || got != 6 {
		t.Fatalf("retry increment: got %d err=%v", got, err)
	}
	g.Quiesce()
	r.net.SetAdversary(nil)
	r.machines[0].Restart() // the only original holder of 6 dies
	if v, err := g.Read(r.client, uuid); err != nil || v != 6 {
		t.Fatalf("read after holder died: got %d err=%v (returned value regressed)", v, err)
	}
}

// TestF0Group is the degenerate single-replica configuration: same API,
// no fault tolerance, one replica hop.
func TestF0Group(t *testing.T) {
	r := newRig(t, 0)
	g := r.group
	uuid, _, err := g.Create(r.client)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := g.Increment(r.client, uuid); err != nil || got != 1 {
		t.Fatalf("increment: got %d err=%v", got, err)
	}
	r.machines[0].Restart()
	if _, err := g.Increment(r.client, uuid); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("f=0 with replica down: err = %v", err)
	}
	// Recovery for f=0 leans on the durable replica state alone.
	if err := r.replicas[0].Restart(); err != nil {
		t.Fatal(err)
	}
	if err := g.Reseed("rep-0"); err != nil {
		t.Fatal(err)
	}
	if got, err := g.Read(r.client, uuid); err != nil || got != 1 {
		t.Fatalf("read after f=0 recovery: got %d err=%v", got, err)
	}
}

// TestHungPeerDoesNotDelayOps pins the early-quorum return (the ROADMAP
// follow-on PR 3 left open): a broadcast returns as soon as the vote
// tally is decidable, so one hung — not dead — peer no longer adds its
// transport deadline to every operation's latency.
func TestHungPeerDoesNotDelayOps(t *testing.T) {
	r := newRig(t, 1)
	g := r.group
	uuid, _, err := g.Create(r.client)
	if err != nil {
		t.Fatal(err)
	}
	g.Quiesce()
	const hang = 400 * time.Millisecond
	r.net.SetAdversary(slowPeer{kind: kindOp, to: r.replicas[2].Address(), d: hang})
	start := time.Now()
	if got, err := g.Increment(r.client, uuid); err != nil || got != 1 {
		t.Fatalf("increment with hung peer: got %d err=%v", got, err)
	}
	if got, err := g.Read(r.client, uuid); err != nil || got != 1 {
		t.Fatalf("read with hung peer: got %d err=%v", got, err)
	}
	elapsed := time.Since(start)
	// Two ops ran; before the early return each would have paid the full
	// hang, so anything under one hang proves neither waited for the
	// hung peer.
	if elapsed >= hang {
		t.Fatalf("two quorum ops took %v with one peer hung %v: early-quorum return regressed", elapsed, hang)
	}
	g.Quiesce()
	r.net.SetAdversary(nil)
	// The hung peer's votes eventually landed; nothing diverged.
	if got, err := g.Read(r.client, uuid); err != nil || got != 1 {
		t.Fatalf("read after hang cleared: got %d err=%v", got, err)
	}
}

// TestEscrowStore exercises the rack's state-escrow store end to end:
// quorum-committed puts, highest-version quorum gets, version-forward
// supersede (a replayed older record never displaces a newer one), and
// records following the membership through restart + reseed.
func TestEscrowStore(t *testing.T) {
	r := newRig(t, 1)
	g := r.group
	owner := r.client.MREnclave()
	id := [16]byte{1, 2, 3}
	bind := pse.UUID{ID: 42, Nonce: [16]byte{9}}

	if _, _, _, err := g.EscrowGet(owner, id); !errors.Is(err, ErrEscrowNotFound) {
		t.Fatalf("get before put: err = %v", err)
	}
	if err := g.EscrowPut(owner, id, 1, bind, []byte("sealed-v1")); err != nil {
		t.Fatal(err)
	}
	if err := g.EscrowPut(owner, id, 3, bind, []byte("sealed-v3")); err != nil {
		t.Fatal(err)
	}
	g.Quiesce()
	// A replayed older record is refused by every replica.
	if err := g.EscrowPut(owner, id, 2, bind, []byte("sealed-v2-replay")); err == nil {
		t.Fatal("replayed older escrow version accepted")
	}
	ver, b, blob, err := g.EscrowGet(owner, id)
	if err != nil || ver != 3 || b != bind || string(blob) != "sealed-v3" {
		t.Fatalf("get: ver=%d bind=%v blob=%q err=%v", ver, b, blob, err)
	}

	// The record survives a replica's machine failure...
	r.machines[0].Restart()
	ver, _, blob, err = g.EscrowGet(owner, id)
	if err != nil || ver != 3 || string(blob) != "sealed-v3" {
		t.Fatalf("get after replica death: ver=%d blob=%q err=%v", ver, blob, err)
	}
	// ...and reseeds onto the rejoining replica, so the group tolerates
	// losing a different one afterwards.
	if err := r.replicas[0].Restart(); err != nil {
		t.Fatal(err)
	}
	if err := g.Reseed("rep-0"); err != nil {
		t.Fatal(err)
	}
	r.machines[1].Restart()
	ver, _, blob, err = g.EscrowGet(owner, id)
	if err != nil || ver != 3 || string(blob) != "sealed-v3" {
		t.Fatalf("get served by reseeded replica: ver=%d blob=%q err=%v", ver, blob, err)
	}
}
