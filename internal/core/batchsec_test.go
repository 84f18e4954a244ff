package core

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"repro/internal/attest"
	"repro/internal/obs"
	"repro/internal/sgx"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wirec"
	"repro/internal/xcrypto"
)

// Regression tests for the batch pipeline's destination-side hardening:
// ack-stream nonce reuse on chunk replay, authenticated batch aborts,
// authenticated resume refusals, and the cap eviction of the
// peer-populated tables. These drive the unexported handlers directly on
// a bare MigrationEnclave — none of the paths under test touch the
// enclave, quoting, or IAS machinery.

// newBareME builds a MigrationEnclave with just the state the network
// handlers use (no enclave, no attestation plumbing, nil observer).
func newBareME() *MigrationEnclave {
	return &MigrationEnclave{
		addr:      "bare-me",
		outgoing:  make(map[string]*outgoingRecord),
		incoming:  make(map[string]*incomingRecord),
		arrivals:  make(map[sgx.Measurement][]string),
		acks:      make(map[string]*incomingRecord),
		sessions:  make(map[string]*resumableSession),
		accepted:  make(map[string]*resumableSession),
		rxBatches: make(map[string]*batchRecvState),
		doneQueue: make(map[string][][]byte),
	}
}

// attestedPeer equips me with a provider credential and an IAS, and
// returns a peer certificate and quote they accept — what a completed
// handshake caches in a resumable session — plus the provider, so a test
// can revoke the peer afterwards.
func attestedPeer(t *testing.T, me *MigrationEnclave) (*attest.Provider, *xcrypto.Certificate, *attest.Quote) {
	t.Helper()
	prov, err := attest.NewProvider("prov")
	if err != nil {
		t.Fatal(err)
	}
	if me.cred, err = prov.ProvisionME("self"); err != nil {
		t.Fatal(err)
	}
	peer, err := prov.ProvisionME("peer")
	if err != nil {
		t.Fatal(err)
	}
	group, err := xcrypto.NewAuthority("epid-group")
	if err != nil {
		t.Fatal(err)
	}
	me.ias = attest.NewIAS(group, sim.NewInstantLatency())
	machine, err := sgx.NewMachine("peer", sim.NewInstantLatency())
	if err != nil {
		t.Fatal(err)
	}
	qe, err := attest.NewQuotingEnclave(machine, group)
	if err != nil {
		t.Fatal(err)
	}
	enclave, err := machine.Load(MigrationEnclaveImage())
	if err != nil {
		t.Fatal(err)
	}
	quote, err := qe.Quote(enclave, sgx.ReportData{})
	if err != nil {
		t.Fatal(err)
	}
	return prov, peer.Certificate(), quote
}

// installRxBatch derives a batch's directional keys from secret+counter,
// installs the receive state on me, and returns the sender-side sealers.
func installRxBatch(t *testing.T, me *MigrationEnclave, secret []byte, counter uint64, batchID []byte, count uint32) (data, acks *xcrypto.StreamSealer) {
	t.Helper()
	dataKey, ackKey := batchKeys(secret, counter)
	st, err := newBatchRecvState(dataKey, ackKey, nil, false, count)
	if err != nil {
		t.Fatal(err)
	}
	st.authed = true
	me.mu.Lock()
	me.storeRxBatchLocked(batchID, st)
	me.mu.Unlock()
	data, err = xcrypto.NewStreamSealer(dataKey)
	if err != nil {
		t.Fatal(err)
	}
	acks, err = xcrypto.NewStreamSealer(ackKey)
	if err != nil {
		t.Fatal(err)
	}
	return data, acks
}

// sealRecordChunk builds one sealed chunk carrying a single batch record
// at the given index (the envelope is garbage, so the member decodes to
// an error status — which still exercises the full ack path).
func sealRecordChunk(t *testing.T, data *xcrypto.StreamSealer, batchID []byte, seq uint64, index uint32) []byte {
	t.Helper()
	recRaw, err := encodeBatchRecord(&batchRecord{Index: index, Envelope: []byte("not-an-envelope")})
	if err != nil {
		t.Fatal(err)
	}
	payload := wirec.AppendU32(nil, uint32(len(recRaw)))
	payload = append(payload, recRaw...)
	raw, err := encodeBatchChunk(&batchChunk{
		BatchID: batchID,
		Seq:     seq,
		Sealed:  data.SealAt(seq, payload, batchID),
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestBatchAckReplayReturnsIdenticalCiphertext is the nonce-reuse
// regression: re-presenting a chunk AFTER more records have drained must
// return byte-identical ack ciphertext, never a fresh seal of the grown
// cumulative status list at the same (key, seq).
func TestBatchAckReplayReturnsIdenticalCiphertext(t *testing.T) {
	me := newBareME()
	secret := bytes.Repeat([]byte{0x42}, 32)
	batchID := []byte("batch-id-0123456")
	data, acks := installRxBatch(t, me, secret, 7, batchID, 100)

	chunk0 := sealRecordChunk(t, data, batchID, 0, 0)
	ack0, err := me.handleBatchChunk(chunk0)
	if err != nil {
		t.Fatalf("first chunk: %v", err)
	}
	// More records drain: the cumulative status list grows.
	if _, err := me.handleBatchChunk(sealRecordChunk(t, data, batchID, 1, 1)); err != nil {
		t.Fatalf("second chunk: %v", err)
	}
	replayAck, err := me.handleBatchChunk(chunk0)
	if err != nil {
		t.Fatalf("replayed chunk: %v", err)
	}
	if !bytes.Equal(ack0, replayAck) {
		t.Fatal("replayed chunk produced a different ack ciphertext at the same seq (AES-GCM nonce reuse)")
	}
	// The cached ack still opens to the original one-member status list.
	pt, err := acks.OpenAt(0, replayAck, batchID)
	if err != nil {
		t.Fatalf("open replayed ack: %v", err)
	}
	list, err := decodeBatchStatusList(pt)
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Statuses) != 1 {
		t.Fatalf("replayed ack carries %d statuses, want the original 1", len(list.Statuses))
	}
}

// TestBatchAbortAuthenticatedAndFreesState: only the holder of the
// batch's data key can abort it; a genuine abort frees the reassembly
// state and converges on repeat.
func TestBatchAbortAuthenticatedAndFreesState(t *testing.T) {
	me := newBareME()
	secret := bytes.Repeat([]byte{0x17}, 32)
	batchID := []byte("batch-id-abcdefg")
	data, _ := installRxBatch(t, me, secret, 3, batchID, 4)

	// Forged abort (wrong key) is rejected and the state survives.
	wrongKey, _ := batchKeys(bytes.Repeat([]byte{0x18}, 32), 3)
	forger, err := xcrypto.NewStreamSealer(wrongKey)
	if err != nil {
		t.Fatal(err)
	}
	forged, err := encodeBatchAbort(&batchAbort{
		BatchID: batchID,
		Sealed:  forger.SealAt(batchAbortSeq, []byte(batchAbortLabel), batchID),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := me.handleBatchAbort(forged); err == nil {
		t.Fatal("forged batch abort accepted")
	}
	if me.ActiveRxBatches() != 1 {
		t.Fatal("forged abort freed the batch state")
	}

	// The genuine abort frees the state.
	genuine, err := encodeBatchAbort(&batchAbort{
		BatchID: batchID,
		Sealed:  data.SealAt(batchAbortSeq, []byte(batchAbortLabel), batchID),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := me.handleBatchAbort(genuine); err != nil {
		t.Fatalf("genuine abort: %v", err)
	}
	if me.ActiveRxBatches() != 0 {
		t.Fatal("abort did not free the batch state")
	}
	// A duplicate abort converges silently.
	if _, err := me.handleBatchAbort(genuine); err != nil {
		t.Fatalf("duplicate abort: %v", err)
	}
}

// TestBatchResumeRefusalAuthentication: the destination MACs a refusal
// only when the presented ticket proves possession of the session secret
// (counter replay, stale epoch); refusals of unknown sessions or
// bad-MAC tickets stay unauthenticated so they cannot become an oracle.
func TestBatchResumeRefusalAuthentication(t *testing.T) {
	me := newBareME()
	me.epoch = bytes.Repeat([]byte{0xEE}, 16)
	secret := bytes.Repeat([]byte{0x33}, 32)
	sid := []byte("session-id-00001")
	_, peerCert, peerQuote := attestedPeer(t, me)
	me.accepted[hex.EncodeToString(sid)] = &resumableSession{
		id: sid, secret: secret, epoch: me.epoch, counter: 5,
		peerCert: peerCert, peerQuote: peerQuote,
	}

	refusalFor := func(t *testing.T, ticket *resumeTicket) *batchOfferReply {
		t.Helper()
		raw, err := encodeBatchOffer(&batchOffer{Count: ticket.Count, Resume: ticket})
		if err != nil {
			t.Fatal(err)
		}
		replyRaw, err := me.handleBatchOffer(raw)
		if err != nil {
			t.Fatal(err)
		}
		reply, err := decodeBatchOfferReply(replyRaw)
		if err != nil {
			t.Fatal(err)
		}
		if !reply.Refused {
			t.Fatal("expected a refusal")
		}
		return reply
	}

	// Counter replay with a valid ticket MAC: refusal must be MACed.
	replayed := &resumeTicket{
		SessionID: sid, Epoch: me.epoch, Counter: 3, Count: 2,
		MAC: resumeMAC(secret, sid, me.epoch, 3, 2),
	}
	reply := refusalFor(t, replayed)
	if !macEqual(reply.RefuseMAC, resumeRefuseMAC(secret, sid, 3)) {
		t.Fatal("secret-holding destination did not authenticate its refusal")
	}

	// Unknown session: nothing to MAC with.
	unknown := &resumeTicket{
		SessionID: []byte("no-such-session!"), Epoch: me.epoch, Counter: 9, Count: 2,
		MAC: bytes.Repeat([]byte{1}, 32),
	}
	if reply := refusalFor(t, unknown); len(reply.RefuseMAC) != 0 {
		t.Fatal("refusal of an unknown session carried a refusal MAC")
	}

	// Valid session but forged ticket MAC: no refusal MAC either.
	badMAC := &resumeTicket{
		SessionID: sid, Epoch: me.epoch, Counter: 9, Count: 2,
		MAC: bytes.Repeat([]byte{2}, 32),
	}
	if reply := refusalFor(t, badMAC); len(reply.RefuseMAC) != 0 {
		t.Fatal("refusal of a secretless ticket carried a refusal MAC")
	}
}

// TestResumeRechecksPeerRevocation is the R2 regression for session
// resume: a cached session only proves what was true at handshake time,
// so both ends re-check the peer's provider certificate and platform
// credential on every resume. A revoked (or never provider-authenticated)
// peer gets an authenticated refusal and the session is forgotten; the
// source side drops its cache without sending a ticket.
func TestResumeRechecksPeerRevocation(t *testing.T) {
	secret := bytes.Repeat([]byte{0x44}, 32)
	sid := []byte("session-id-00003")
	resume := func(me *MigrationEnclave, counter uint64) *batchOfferReply {
		t.Helper()
		raw, err := encodeBatchOffer(&batchOffer{Count: 1, Resume: &resumeTicket{
			SessionID: sid, Epoch: me.epoch, Counter: counter, Count: 1,
			MAC: resumeMAC(secret, sid, me.epoch, counter, 1),
		}})
		if err != nil {
			t.Fatal(err)
		}
		replyRaw, err := me.handleBatchOffer(raw)
		if err != nil {
			t.Fatal(err)
		}
		reply, err := decodeBatchOfferReply(replyRaw)
		if err != nil {
			t.Fatal(err)
		}
		return reply
	}

	// Destination role.
	me := newBareME()
	me.epoch = bytes.Repeat([]byte{0xEE}, 16)
	prov, peerCert, peerQuote := attestedPeer(t, me)
	me.accepted[hex.EncodeToString(sid)] = &resumableSession{
		id: sid, secret: secret, epoch: me.epoch, peerCert: peerCert, peerQuote: peerQuote,
	}
	if reply := resume(me, 1); !reply.Resumed {
		t.Fatalf("resume by a peer in good standing refused: %+v", reply)
	}
	prov.Revoke("peer")
	reply := resume(me, 2)
	if !reply.Refused || !macEqual(reply.RefuseMAC, resumeRefuseMAC(secret, sid, 2)) {
		t.Fatalf("resume by a revoked peer: %+v, want an authenticated refusal", reply)
	}
	if me.AcceptedSessions() != 0 {
		t.Fatal("revoked peer's session still cached at the destination")
	}

	// A session whose source never authenticated on frame 0 never resumes.
	me.accepted[hex.EncodeToString(sid)] = &resumableSession{
		id: sid, secret: secret, epoch: me.epoch, peerQuote: peerQuote,
	}
	if reply := resume(me, 3); !reply.Refused {
		t.Fatalf("resume of a never-authenticated session accepted: %+v", reply)
	}

	// Source role: the ticket is not even sent.
	src := newBareME()
	prov, peerCert, peerQuote = attestedPeer(t, src)
	dest := transport.Address("dest-me")
	src.sessions[string(dest)] = &resumableSession{id: sid, secret: secret, counter: 1,
		peerCert: peerCert, peerQuote: peerQuote}
	src.net = &scriptedNet{reply: func(kind string, _ []byte) ([]byte, error) {
		t.Errorf("source sent %s to a revoked destination's cached session", kind)
		return nil, fmt.Errorf("unreachable")
	}}
	prov.Revoke("peer")
	if bs, err := src.beginResumed(dest, 1, BatchOpts{}, obs.TraceContext{}); err != nil || bs != nil {
		t.Fatalf("resume toward a revoked peer should fall back (nil, nil), got (%v, %v)", bs, err)
	}
	if src.sessions[string(dest)] != nil {
		t.Fatal("revoked destination's session still cached at the source")
	}
}

// scriptedNet is a Messenger whose Send is answered by a test callback
// (the on-path attacker / scripted destination).
type scriptedNet struct {
	reply func(kind string, payload []byte) ([]byte, error)
}

func (s *scriptedNet) Register(transport.Address, transport.Handler) error { return nil }
func (s *scriptedNet) Unregister(transport.Address)                        {}
func (s *scriptedNet) Send(_, _ transport.Address, kind string, payload []byte) ([]byte, error) {
	_, inner := obs.Extract(payload)
	return s.reply(kind, inner)
}

// TestForgedRefusalDoesNotEvictCachedSession: an on-path attacker can
// forge an (unauthenticated) refusal, which costs one fresh handshake
// but must NOT evict the source's cached session; only a refusal MACed
// under the session secret may.
func TestForgedRefusalDoesNotEvictCachedSession(t *testing.T) {
	me := newBareME()
	secret := bytes.Repeat([]byte{0x55}, 32)
	sid := []byte("session-id-00002")
	dest := transport.Address("dest-me")
	_, peerCert, peerQuote := attestedPeer(t, me)
	me.sessions[string(dest)] = &resumableSession{id: sid, secret: secret, counter: 7,
		peerCert: peerCert, peerQuote: peerQuote}

	// Forged refusal: no proof of the session secret.
	me.net = &scriptedNet{reply: func(kind string, _ []byte) ([]byte, error) {
		if kind != kindOffer {
			return nil, fmt.Errorf("unexpected kind %q", kind)
		}
		return encodeBatchOfferReply(&batchOfferReply{Refused: true})
	}}
	bs, err := me.beginResumed(dest, 2, BatchOpts{}, obs.TraceContext{})
	if err != nil || bs != nil {
		t.Fatalf("refusal should fall back (nil, nil), got (%v, %v)", bs, err)
	}
	if me.sessions[string(dest)] == nil {
		t.Fatal("forged refusal evicted the cached session")
	}

	// Authenticated refusal: the destination proves it holds the secret
	// and refuses the exact counter the source reserved — evict.
	me.net = &scriptedNet{reply: func(_ string, payload []byte) ([]byte, error) {
		offer, err := decodeBatchOffer(payload)
		if err != nil {
			return nil, err
		}
		return encodeBatchOfferReply(&batchOfferReply{
			Refused:   true,
			RefuseMAC: resumeRefuseMAC(secret, sid, offer.Resume.Counter),
		})
	}}
	bs, err = me.beginResumed(dest, 2, BatchOpts{}, obs.TraceContext{})
	if err != nil || bs != nil {
		t.Fatalf("refusal should fall back (nil, nil), got (%v, %v)", bs, err)
	}
	if me.sessions[string(dest)] != nil {
		t.Fatal("authenticated refusal did not evict the cached session")
	}
}

// TestDestinationTablesBounded: the peer-populated accepted-session and
// reassembly tables stay under their caps, evicting least-recently-used
// entries first; the incoming store refuses beyond its cap and never
// evicts, since every stored envelope was acknowledged to its source.
func TestDestinationTablesBounded(t *testing.T) {
	me := newBareME()
	for i := 0; i < maxAcceptedSessions+50; i++ {
		sid := []byte(fmt.Sprintf("session-%08d", i))
		me.mu.Lock()
		me.storeAcceptedLocked(&resumableSession{id: sid, secret: []byte("s")})
		me.mu.Unlock()
	}
	if got := me.AcceptedSessions(); got != maxAcceptedSessions {
		t.Fatalf("accepted sessions = %d, want cap %d", got, maxAcceptedSessions)
	}
	// The oldest entries were evicted, the newest survive.
	me.mu.Lock()
	_, oldestAlive := me.accepted[hex.EncodeToString([]byte(fmt.Sprintf("session-%08d", 49)))]
	_, newestAlive := me.accepted[hex.EncodeToString([]byte(fmt.Sprintf("session-%08d", maxAcceptedSessions+49)))]
	me.mu.Unlock()
	if oldestAlive {
		t.Fatal("least-recently-admitted session survived eviction")
	}
	if !newestAlive {
		t.Fatal("newest session was evicted")
	}

	dataKey, ackKey := batchKeys(bytes.Repeat([]byte{9}, 32), 0)
	for i := 0; i < maxRxBatches+20; i++ {
		st, err := newBatchRecvState(dataKey, ackKey, nil, false, 1)
		if err != nil {
			t.Fatal(err)
		}
		me.mu.Lock()
		me.storeRxBatchLocked([]byte(fmt.Sprintf("batch-%08d", i)), st)
		me.mu.Unlock()
	}
	if got := me.ActiveRxBatches(); got != maxRxBatches {
		t.Fatalf("rx batches = %d, want cap %d", got, maxRxBatches)
	}

	// One identity may queue many envelopes, up to the cap and no further.
	var twin sgx.Measurement
	envelope := func(i int) *migrationEnvelope {
		return &migrationEnvelope{Data: &MigrationData{}, MREnclave: twin, DoneToken: []byte(fmt.Sprintf("token-%08d", i))}
	}
	for i := 0; i < maxStoredIncoming; i++ {
		if err := me.storeIncoming(envelope(i), obs.TraceContext{}, false); err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
	}
	if err := me.storeIncoming(envelope(maxStoredIncoming), obs.TraceContext{}, false); !errors.Is(err, ErrIncomingFull) {
		t.Fatalf("store beyond the cap: %v, want ErrIncomingFull", err)
	}
	// A full store still acknowledges what it holds (idempotent re-delivery)
	// and dropped nothing to make room.
	if err := me.storeIncoming(envelope(0), obs.TraceContext{}, false); err != nil {
		t.Fatalf("re-delivery of a stored envelope at the cap: %v", err)
	}
	if got := me.PendingIncoming(); got != maxStoredIncoming {
		t.Fatalf("pending incoming = %d, want cap %d", got, maxStoredIncoming)
	}
	// A fetch frees a place; the fetched token stays tombstoned.
	conn := &localConn{session: &attest.LocalSession{PeerMREnclave: twin}}
	if resp := me.handleFetchIncoming("s", conn, &localRequest{}); resp.Status != statusData {
		t.Fatalf("fetch: %+v", resp)
	}
	if err := me.storeIncoming(envelope(maxStoredIncoming), obs.TraceContext{}, false); err != nil {
		t.Fatalf("store after a fetch freed a place: %v", err)
	}
	if err := me.storeIncoming(envelope(0), obs.TraceContext{}, false); !errors.Is(err, ErrEnvelopeConsumed) {
		t.Fatalf("re-delivery of the fetched envelope: %v, want ErrEnvelopeConsumed", err)
	}
}
