package core

import (
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sgx"
	"repro/internal/transport"
	"repro/internal/wirec"
	"repro/internal/xcrypto"
)

// The ME<->ME migration protocol (Fig. 2), as a stream of N members.
//
// One stream is a single offer exchange (full mutual attestation, or a
// resume of a cached session — see session.go), then a pipelined stream
// of AEAD-sealed chunks carrying length-prefixed migration records, with
// cumulative per-member status acks; DONE confirmations flow back in
// aggregated flushes. The paper's single migration is the stream of one
// (streamOne in remote.go): offer, one data frame, DONE. Each enclave is
// frozen by the caller only immediately before BatchSender.Add streams
// its envelope, and its status arrives with the chunk ack that covered
// it — so stream width never lengthens any single enclave's freeze
// window, it only overlaps more of them with the same wire time.

// Batch pipeline errors.
var (
	// ErrBatchClosed reports an Add after Finish was called.
	ErrBatchClosed = errors.New("core: batch sender already finished")
	// ErrUnknownBatch reports a chunk for an unknown or completed batch.
	ErrUnknownBatch = errors.New("core: unknown or completed batch stream")
)

// Pipeline shape: chunk N+1 leaves before the ack for N returns.
const (
	streamWindow = 8       // sealed chunks in flight per stream
	chunkBytes   = 8 << 10 // target chunk payload size
)

// Destination-side resource bounds. These tables are populated by
// untrusted network input (any peer that completes a handshake). The
// session and reassembly tables are capped with least-recently-admitted
// eviction as a backstop against peers that open state and vanish; the
// primary cleanup paths are batch completion and the sender's explicit
// abort.
const (
	// maxAcceptedSessions bounds the destination's resumable-session
	// table. Sessions are one per live (source ME, dest ME) pair, so the
	// cap is far above any real fleet's concurrency.
	maxAcceptedSessions = 256
	// maxRxBatches bounds concurrent per-batch reassembly states. A
	// source runs one batch per destination at a time, so this caps the
	// number of simultaneously-sending peers.
	maxRxBatches = 128
	// maxStoredIncoming bounds the envelopes stored awaiting their enclave
	// (about 1.3 kB each). Unlike the two tables above this one is never
	// evicted from: every stored envelope was acknowledged, so its source
	// counts on it. A delivery beyond the cap is refused and stays held at
	// its source ME.
	maxStoredIncoming = 1 << 14
)

// batchAbortSeq is the reserved stream position that authenticates a
// batchAbort: data chunks use sequences counting up from 0 and can never
// reach it, so the abort frame is the only frame ever sealed there.
const batchAbortSeq = ^uint64(0)

// batchAbortLabel is the abort frame's fixed plaintext.
const batchAbortLabel = "batch-abort"

// BatchOpts shapes one batch stream.
type BatchOpts struct {
	// Compress applies WAN compression to each envelope beneath the AEAD
	// boundary: the record is compressed, then sealed, so the link only
	// carries ciphertext of the smaller frame.
	Compress bool
	// Link names the WAN link this batch crosses. When set, compression
	// effectiveness is also recorded per link (wan.compress.ratio.<link>),
	// so the fleet can compare how well each path's traffic compresses.
	Link string
	// Trace is the batch's parent trace context.
	Trace obs.TraceContext
}

// BatchMemberStatus is one member's final outcome as seen by the sender.
type BatchMemberStatus struct {
	OK     bool
	Detail string
}

// BatchSender streams one batch of held outgoing migrations to a single
// destination ME. Typical use: BeginBatch, then for each member freeze
// the enclave (opMigrateOutHold via the library) and Add its token;
// consume Delivered for per-member completion; Finish to drain.
type BatchSender struct {
	me       *MigrationEnclave
	dest     transport.Address
	batchID  []byte
	stream   *xcrypto.StreamSealer // data direction (seal)
	acks     *xcrypto.StreamSealer // ack direction (open)
	fresh    bool                  // batch began with a full handshake
	cert     []byte                // seq-0 provider auth (fresh only)
	sig      []byte
	authed   func() // fresh only: lets the next open toward dest proceed (beginStream)
	count    int    // declared member count (the destination's completion bar)
	compress bool
	link     string

	sp *obs.Span
	tc obs.TraceContext

	mu        sync.Mutex
	cond      *sync.Cond
	buf       []byte // length-prefixed records awaiting chunking
	nextSeq   uint64
	inFlight  int
	finished  bool
	sendErr   error
	seen      map[uint32]bool // indices whose status was merged
	statuses  map[uint32]BatchMemberStatus
	tokens    map[uint32][]byte
	savings   int64
	compIn    int64 // bytes fed to the compressor
	compOut   int64 // bytes the compressor produced
	delivered chan uint32
}

// BeginBatch opens a batch stream of count members toward dest. It
// first tries to resume a cached attested session with the destination;
// a refusal (e.g. the destination restarted into a new epoch) silently
// falls back to a full mutual remote attestation, which also refreshes
// the cached session.
func (me *MigrationEnclave) BeginBatch(dest transport.Address, count int, opts BatchOpts) (*BatchSender, error) {
	if err := me.enclave.ECall(); err != nil {
		return nil, err
	}
	return me.beginStream(dest, count, opts)
}

// beginStream is BeginBatch from inside the enclave (no entry transition).
//
// Opens toward one destination are serialized: resume counters then reach
// it in the order they were drawn (it refuses one at or below the last it
// saw), and openers that find a handshake under way wait and resume its
// session instead of each attesting. A resumed stream leaves the section
// once open. A fresh one stays inside until the destination is known to
// have authenticated us — its frame 0 acknowledged — or the stream ends:
// a resume presented earlier is refused with the MAC, which drops the
// session at both ends.
func (me *MigrationEnclave) beginStream(dest transport.Address, count int, opts BatchOpts) (*BatchSender, error) {
	if count <= 0 || count > maxBatchCount {
		return nil, fmt.Errorf("core: batch size %d out of range [1, %d]", count, maxBatchCount)
	}
	sp, tc := me.observer().StartSpan(obs.SpanMETransfer, opts.Trace)
	if sp != nil {
		sp.Site = string(me.addr)
	}
	opened := me.lockPeer(me.opening, dest)
	bs, err := me.beginResumed(dest, count, opts, tc)
	if err == nil && bs == nil {
		// No cached session, or resumption refused: full handshake.
		bs, err = me.beginFresh(dest, count, opts, tc)
	}
	if err != nil {
		opened()
		if sp != nil {
			sp.End()
		}
		return nil, err
	}
	if bs.fresh {
		bs.authed = opened
	} else {
		opened()
	}
	bs.sp = sp
	bs.tc = tc
	return bs, nil
}

// beginResumed attempts session resumption. It returns (nil, nil) when
// there is no cached session or the destination refused the ticket —
// the caller falls back to a fresh handshake.
func (me *MigrationEnclave) beginResumed(dest transport.Address, count int, opts BatchOpts, tc obs.TraceContext) (*BatchSender, error) {
	me.mu.Lock()
	sess := me.sessions[string(dest)]
	var ctr uint64
	if sess != nil {
		ctr = sess.counter
		sess.counter++
	}
	me.mu.Unlock()
	if sess == nil {
		me.observer().M().Counter(obs.MESessionResumeMiss).Add(1)
		return nil, nil
	}
	if err := me.recheckPeer(sess); err != nil {
		// The destination we attested is no longer a valid partner (R2).
		// Forget the session; the full handshake below refuses it with the
		// precise reason, exactly as a first contact would.
		me.dropSession(dest, sess)
		me.observer().M().Counter(obs.MESessionResumeRefused).Add(1)
		return nil, nil
	}
	ticket := &resumeTicket{
		SessionID: sess.id,
		Epoch:     sess.epoch,
		Counter:   ctr,
		Count:     uint32(count),
		MAC:       resumeMAC(sess.secret, sess.id, sess.epoch, ctr, uint32(count)),
	}
	offerRaw, err := encodeBatchOffer(&batchOffer{Count: uint32(count), Resume: ticket})
	if err != nil {
		return nil, err
	}
	offerSp, offerTC := me.observer().StartSpan(obs.SpanMEOffer, tc)
	replyRaw, err := me.net.Send(me.addr, dest, kindOffer, obs.Inject(offerTC, offerRaw))
	offerSp.End()
	if err != nil {
		return nil, fmt.Errorf("send batch offer: %w", err)
	}
	reply, err := decodeBatchOfferReply(replyRaw)
	if err != nil {
		return nil, err
	}
	if reply.Refused {
		if macEqual(reply.RefuseMAC, resumeRefuseMAC(sess.secret, sess.id, ctr)) {
			// Authenticated refusal: the destination provably still holds
			// the session secret yet will not honor it (epoch rolled,
			// counter replayed). Drop the cache so future batches
			// handshake fresh immediately.
			me.dropSession(dest, sess)
		}
		// An unauthenticated refusal proves nothing: it is either a
		// restarted destination that lost the session (and so cannot MAC
		// anything) or an on-path forgery. Keep the cache — the fallback
		// below is a fully authenticated handshake that replaces the
		// session on success, so a forged refusal costs one handshake,
		// never a durable downgrade to per-batch attestation.
		me.observer().M().Counter(obs.MESessionResumeRefused).Add(1)
		return nil, nil
	}
	// An accepting destination must prove it holds the session secret and
	// reserved exactly our counter; anything else is an active attack or
	// corruption, not a fallback case.
	if !reply.Resumed || !macEqual(reply.ConfirmMAC, resumeConfirmMAC(sess.secret, sess.id, ctr)) {
		return nil, fmt.Errorf("core: batch resume confirmation failed authentication")
	}
	if len(reply.BatchID) == 0 {
		return nil, fmt.Errorf("%w: resume reply missing batch id", ErrDataFormat)
	}
	me.observer().M().Counter(obs.MESessionResumed).Add(1)
	me.observer().M().Counter(obs.MESessionResumeHit).Add(1)
	dataKey, ackKey := batchKeys(sess.secret, ctr)
	return me.newBatchSender(dest, count, opts, reply.BatchID, dataKey, ackKey, false, nil, nil)
}

// dropSession forgets the cached source-side session for dest, unless a
// concurrent handshake already replaced it.
func (me *MigrationEnclave) dropSession(dest transport.Address, sess *resumableSession) {
	me.mu.Lock()
	if me.sessions[string(dest)] == sess {
		delete(me.sessions, string(dest))
	}
	me.mu.Unlock()
}

// recheckPeer re-validates, for a session about to be resumed, everything
// the handshake established about the peer that can since have been
// withdrawn: its provider certificate (chain, expiry, revocation,
// federation grant) and its platform credential. The session secret only
// proves what was true at handshake time; without this a revoked machine
// stayed a migration partner for as long as its session was cached.
func (me *MigrationEnclave) recheckPeer(sess *resumableSession) error {
	if err := me.cred.RecheckPeer(sess.peerCert); err != nil {
		return err
	}
	return me.ias.RecheckPlatform(sess.peerQuote)
}

// beginFresh runs the full mutual remote attestation (the Fig. 2 attest
// round) and caches the resulting session.
func (me *MigrationEnclave) beginFresh(dest transport.Address, count int, opts BatchOpts, tc obs.TraceContext) (*BatchSender, error) {
	dh, err := xcrypto.NewKeyExchange()
	if err != nil {
		return nil, fmt.Errorf("batch dh: %w", err)
	}
	myQuote, err := me.qe.Quote(me.enclave, sgx.MakeReportData(dh.PublicBytes()))
	if err != nil {
		return nil, fmt.Errorf("source quote: %w", err)
	}
	wq, err := quoteToWire(myQuote)
	if err != nil {
		return nil, err
	}
	offerRaw, err := encodeBatchOffer(&batchOffer{Count: uint32(count), Quote: wq, DHPub: dh.PublicBytes()})
	if err != nil {
		return nil, err
	}
	offerSp, offerTC := me.observer().StartSpan(obs.SpanMEOffer, tc)
	replyRaw, err := me.net.Send(me.addr, dest, kindOffer, obs.Inject(offerTC, offerRaw))
	offerSp.End()
	if err != nil {
		return nil, fmt.Errorf("send batch offer: %w", err)
	}
	reply, err := decodeBatchOfferReply(replyRaw)
	if err != nil {
		return nil, err
	}
	if reply.Refused || reply.Resumed || reply.Quote == nil {
		return nil, fmt.Errorf("%w: expected handshake reply", ErrDataFormat)
	}
	peerQuote, err := quoteFromWire(reply.Quote)
	if err != nil {
		return nil, err
	}
	// The peer must be a genuine SGX enclave (IAS) running EXACTLY the same
	// Migration Enclave code (MRENCLAVE equality, §VI-A), its quote must
	// bind both handshake keys, and its machine must belong to the same
	// cloud provider (R2): certificate chain plus transcript signature.
	if err := me.ias.Verify(peerQuote); err != nil {
		return nil, fmt.Errorf("verify destination quote: %w", err)
	}
	if peerQuote.MREnclave != me.enclave.MREnclave() {
		return nil, fmt.Errorf("%w: destination %v, expected %v",
			ErrPeerIdentity, peerQuote.MREnclave, me.enclave.MREnclave())
	}
	if peerQuote.Data != sgx.MakeReportData(dh.PublicBytes(), reply.DHPub) {
		return nil, ErrQuoteBinding
	}
	transcript := xcrypto.Transcript(transcriptContext, dh.PublicBytes(), reply.DHPub)
	peerCert, err := certFromWire(reply.Cert)
	if err != nil {
		return nil, err
	}
	if err := me.cred.VerifyPeer(peerCert, transcript, reply.Sig); err != nil {
		return nil, fmt.Errorf("authenticate destination: %w", err)
	}
	shared, err := dh.Shared(reply.DHPub)
	if err != nil {
		return nil, fmt.Errorf("shared secret: %w", err)
	}
	if len(reply.BatchID) == 0 || len(reply.SessionID) == 0 {
		return nil, fmt.Errorf("%w: handshake reply missing ids", ErrDataFormat)
	}
	secret := deriveSessionSecret(shared, transcript)
	me.mu.Lock()
	me.sessions[string(dest)] = &resumableSession{
		id:        reply.SessionID,
		secret:    secret,
		epoch:     append([]byte(nil), reply.Epoch...),
		counter:   1, // counter 0 keys this batch
		peerCert:  peerCert,
		peerQuote: peerQuote,
	}
	me.mu.Unlock()
	myCert, err := certToWire(me.cred.Certificate())
	if err != nil {
		return nil, err
	}
	dataKey, ackKey := batchKeys(secret, 0)
	return me.newBatchSender(dest, count, opts, reply.BatchID, dataKey, ackKey, true, myCert, me.cred.Sign(transcript))
}

func (me *MigrationEnclave) newBatchSender(dest transport.Address, count int, opts BatchOpts, batchID []byte, dataKey, ackKey [32]byte, fresh bool, cert, sig []byte) (*BatchSender, error) {
	stream, err := xcrypto.NewStreamSealer(dataKey)
	if err != nil {
		return nil, err
	}
	acks, err := xcrypto.NewStreamSealer(ackKey)
	if err != nil {
		return nil, err
	}
	bs := &BatchSender{
		me:        me,
		dest:      dest,
		batchID:   batchID,
		stream:    stream,
		acks:      acks,
		fresh:     fresh,
		cert:      cert,
		sig:       sig,
		count:     count,
		compress:  opts.Compress,
		link:      opts.Link,
		seen:      make(map[uint32]bool),
		statuses:  make(map[uint32]BatchMemberStatus),
		tokens:    make(map[uint32][]byte),
		delivered: make(chan uint32, count),
	}
	bs.cond = sync.NewCond(&bs.mu)
	return bs, nil
}

// Add streams one held outgoing migration (identified by its done-token
// from opMigrateOutHold) as batch member index. The record is appended
// to the stream and sent as soon as a window slot frees; the enclave's
// freeze clock has already started, so Add is called immediately after
// the freeze.
func (bs *BatchSender) Add(index uint32, token []byte) error {
	me := bs.me
	key := hex.EncodeToString(token)
	me.mu.Lock()
	rec := me.outgoing[key]
	if err := sendable(rec); err != nil {
		me.mu.Unlock()
		return err
	}
	rec.inFlight = true
	rec.dest = bs.dest
	rec.sent = false
	envRaw, err := rec.envelope.encode()
	trace := rec.trace
	me.mu.Unlock()
	abort := func(err error) error {
		me.mu.Lock()
		rec.inFlight = false
		me.mu.Unlock()
		return err
	}
	if err != nil {
		return abort(err)
	}
	compressed := false
	var saved, inBytes, outBytes int64
	if bs.compress {
		inBytes = int64(len(envRaw))
		frame, err := transport.CompressFrame(envRaw)
		if err != nil {
			return abort(err)
		}
		if d := len(envRaw) - len(frame); d > 0 {
			saved = int64(d)
		}
		envRaw = frame
		outBytes = int64(len(envRaw))
		compressed = true
	}
	recRaw, err := encodeBatchRecord(&batchRecord{
		Index:      index,
		Compressed: compressed,
		Trace:      trace.Marshal(),
		Envelope:   envRaw,
	})
	if err != nil {
		return abort(err)
	}
	bs.mu.Lock()
	if bs.finished {
		bs.mu.Unlock()
		return abort(ErrBatchClosed)
	}
	if bs.sendErr != nil {
		err := bs.sendErr
		bs.mu.Unlock()
		return abort(err)
	}
	bs.tokens[index] = append([]byte(nil), token...)
	bs.buf = wirec.AppendBytes(bs.buf, recRaw)
	bs.savings += saved
	bs.compIn += inBytes
	bs.compOut += outBytes
	bs.maybeFlushLocked()
	bs.mu.Unlock()
	return nil
}

// maybeFlushLocked cuts and launches chunks while buffered bytes and
// window slots are both available. Cutting greedily keeps the pipeline
// full in both regimes: an idle link drains small chunks immediately
// (short per-enclave latency), a saturated window accumulates records
// into larger, better-amortized chunks.
func (bs *BatchSender) maybeFlushLocked() {
	for len(bs.buf) > 0 && bs.inFlight < streamWindow && bs.sendErr == nil {
		n := min(len(bs.buf), chunkBytes)
		chunk := append([]byte(nil), bs.buf[:n]...)
		bs.buf = bs.buf[n:]
		seq := bs.nextSeq
		bs.nextSeq++
		bs.inFlight++
		go bs.sendChunk(seq, chunk)
	}
}

// sendChunk seals and sends one chunk, then merges the cumulative
// status ack. Chunk-level failures are not retried here: retry is a
// batch-attempt decision made by the caller (internal/fleet), which
// knows which members were never covered by any ack.
func (bs *BatchSender) sendChunk(seq uint64, chunk []byte) {
	me := bs.me
	sealed := bs.stream.SealAt(seq, chunk, bs.batchID)
	msg := &batchChunk{BatchID: bs.batchID, Seq: seq, Sealed: sealed}
	if bs.fresh && seq == 0 {
		msg.Cert = bs.cert
		msg.Sig = bs.sig
	}
	raw, err := encodeBatchChunk(msg)
	var replyRaw []byte
	if err == nil {
		sp, tc := me.observer().StartSpan(obs.SpanMEData, bs.tc)
		replyRaw, err = me.net.Send(me.addr, bs.dest, kindData, obs.Inject(tc, raw))
		sp.End()
	}
	var list *batchStatusList
	if err == nil {
		var pt []byte
		if pt, err = bs.acks.OpenAt(seq, replyRaw, bs.batchID); err == nil {
			list, err = decodeBatchStatusList(pt)
		}
	}
	if err == nil && bs.authed != nil && seq == 0 {
		bs.authed() // the ack proves the destination verified frame 0's certificate
	}
	var newlyStored []uint32
	bs.mu.Lock()
	if err != nil {
		if bs.sendErr == nil {
			bs.sendErr = err
		}
	} else {
		// Acks are cumulative and idempotent: merge only unseen indices.
		for _, s := range list.Statuses {
			if bs.seen[s.Index] {
				continue
			}
			bs.seen[s.Index] = true
			st := BatchMemberStatus{OK: s.Status == batchStatusStored, Detail: s.Detail}
			bs.statuses[s.Index] = st
			if st.OK {
				newlyStored = append(newlyStored, s.Index)
			}
		}
	}
	bs.mu.Unlock()
	// Mark stored members sent and publish delivery BEFORE releasing the
	// window slot: Finish only closes delivered once inFlight reaches
	// zero, so these sends can never hit a closed channel. The channel
	// is buffered to the batch size and each index fires once, so the
	// sends never block either.
	for _, idx := range newlyStored {
		bs.markSent(idx)
		bs.delivered <- idx
	}
	bs.mu.Lock()
	bs.inFlight--
	bs.maybeFlushLocked()
	bs.cond.Broadcast()
	bs.mu.Unlock()
}

// markSent records that the member's envelope is stored at the
// destination.
func (bs *BatchSender) markSent(index uint32) {
	bs.mu.Lock()
	token := bs.tokens[index]
	bs.mu.Unlock()
	if token == nil {
		return
	}
	me := bs.me
	me.mu.Lock()
	if rec, ok := me.outgoing[hex.EncodeToString(token)]; ok {
		rec.sent = true
		rec.inFlight = false
	}
	me.mu.Unlock()
}

// Delivered streams the indices of members confirmed stored at the
// destination, in delivery order. The channel closes when Finish
// drains; consuming it lets the caller resume each enclave at the
// destination the moment its own data lands, not when the batch ends.
func (bs *BatchSender) Delivered() <-chan uint32 { return bs.delivered }

// Finish closes the batch, waits for in-flight chunks, and returns the
// per-member outcomes. Members absent from the map were never covered
// by an ack (e.g. the link failed mid-stream): their records stay
// frozen-and-held at the source, retryable by token. The returned
// error is the first stream failure, if any.
func (bs *BatchSender) Finish() (map[uint32]BatchMemberStatus, error) {
	bs.mu.Lock()
	bs.finished = true
	bs.maybeFlushLocked()
	for bs.inFlight > 0 || (len(bs.buf) > 0 && bs.sendErr == nil) {
		bs.cond.Wait()
	}
	err := bs.sendErr
	out := make(map[uint32]BatchMemberStatus, len(bs.statuses))
	for k, v := range bs.statuses {
		out[k] = v
	}
	savings := bs.savings
	compIn, compOut := bs.compIn, bs.compOut
	tokens := make([][]byte, 0, len(bs.tokens))
	for _, t := range bs.tokens {
		tokens = append(tokens, t)
	}
	bs.mu.Unlock()
	close(bs.delivered)
	if bs.authed != nil {
		bs.authed() // frame 0 never made it; stop holding up the next open
	}
	// Release every member's in-flight latch: unacked records go back to
	// held-and-retryable (parked).
	me := bs.me
	me.mu.Lock()
	for _, t := range tokens {
		if rec, ok := me.outgoing[hex.EncodeToString(t)]; ok {
			rec.inFlight = false
		}
	}
	me.mu.Unlock()
	if savings > 0 {
		me.observer().M().Counter(obs.WireBytesSaved).Add(savings)
	}
	if compIn > 0 {
		// Compression effectiveness for the whole batch, as permille of
		// the input that survived (compressed*1000/input). Histograms
		// store time.Duration samples, so the ratio rides as a raw int64:
		// 1000 means incompressible, 250 means 4:1. Recorded globally and,
		// when the caller named the link, per link.
		ratio := time.Duration(compOut * 1000 / compIn)
		me.observer().M().Histogram(obs.WANCompressRatio).Observe(ratio)
		if bs.link != "" {
			me.observer().M().Histogram(obs.WANCompressRatioLink, bs.link).Observe(ratio)
		}
	}
	if len(out) < bs.count {
		// The destination drops its reassembly state only when all
		// declared members are acked; this batch ended short (members
		// parked, stream failure, or fewer Adds than declared), so tell
		// it the stream is over. The abort is authenticated by sealing
		// the reserved batchAbortSeq frame of the data stream — only the
		// data-key holder can produce it, and the position can never
		// collide with a chunk. Best-effort: if the link is down too, the
		// destination's cap-based eviction reclaims the state instead.
		sealed := bs.stream.SealAt(batchAbortSeq, []byte(batchAbortLabel), bs.batchID)
		if raw, aerr := encodeBatchAbort(&batchAbort{BatchID: bs.batchID, Sealed: sealed}); aerr == nil {
			_, _ = me.net.Send(me.addr, bs.dest, kindAbort, obs.Inject(bs.tc, raw))
		}
	}
	if bs.sp != nil {
		bs.sp.End()
	}
	return out, err
}

// ---------------------------------------------------------------------
// Destination side
// ---------------------------------------------------------------------

// batchRecvState is the destination ME's per-batch reassembly state.
type batchRecvState struct {
	// admitted is the state's admission order for cap eviction; written
	// at insertion and read at eviction, both under the ME's mu.
	admitted uint64

	mu         sync.Mutex
	stream     *xcrypto.StreamSealer // data direction (open)
	acks       *xcrypto.StreamSealer // ack direction (seal)
	transcript []byte
	fresh      bool
	authed     bool              // source provider authenticated (seq 0 of fresh)
	sess       *resumableSession // fresh only: the session this handshake admitted
	count      uint32
	nextSeq    uint64
	seen       map[uint64]bool
	pending    map[uint64][]byte
	buf        []byte
	statuses   map[uint32]memberStatus
	// ackSent caches the exact sealed ack returned for each chunk seq. A
	// replayed chunk MUST get the identical ciphertext back: the status
	// list is cumulative, so re-sealing at the same seq after more
	// records drained would put two different plaintexts under one
	// (key, nonce) pair — the StreamSealer invariant violation that leaks
	// the GCM auth key.
	ackSent map[uint64][]byte
}

// storeAcceptedLocked admits one destination-side resumable session,
// evicting least-recently-used entries beyond maxAcceptedSessions. It
// returns the eviction count; callers emit metrics after unlocking
// (observer() itself takes me.mu). Requires me.mu held.
func (me *MigrationEnclave) storeAcceptedLocked(sess *resumableSession) int {
	me.admitSeq++
	sess.order = me.admitSeq
	me.accepted[hex.EncodeToString(sess.id)] = sess
	return evictOldest(me.accepted, maxAcceptedSessions, func(s *resumableSession) uint64 { return s.order })
}

// storeRxBatchLocked admits one per-batch reassembly state, evicting the
// least-recently-admitted beyond maxRxBatches (stale states whose sender
// vanished without an abort). Returns the eviction count; requires me.mu
// held.
func (me *MigrationEnclave) storeRxBatchLocked(batchID []byte, st *batchRecvState) int {
	me.admitSeq++
	st.admitted = me.admitSeq
	me.rxBatches[hex.EncodeToString(batchID)] = st
	return evictOldest(me.rxBatches, maxRxBatches, func(s *batchRecvState) uint64 { return s.admitted })
}

// evictOldest deletes the entries with the lowest admission order until
// m holds at most max, and returns how many it deleted.
func evictOldest[V any](m map[string]V, max int, order func(V) uint64) int {
	evicted := 0
	for len(m) > max {
		oldestKey := ""
		var oldest uint64
		for k, v := range m {
			if oldestKey == "" || order(v) < oldest {
				oldestKey, oldest = k, order(v)
			}
		}
		delete(m, oldestKey)
		evicted++
	}
	return evicted
}

// ActiveRxBatches reports the number of batch reassembly states currently
// held (tests and operators: a nonzero steady-state value means senders
// are vanishing mid-batch without aborts).
func (me *MigrationEnclave) ActiveRxBatches() int {
	me.mu.Lock()
	defer me.mu.Unlock()
	return len(me.rxBatches)
}

// AcceptedSessions reports the size of the destination-side resumable
// session table (tests and operators).
func (me *MigrationEnclave) AcceptedSessions() int {
	me.mu.Lock()
	defer me.mu.Unlock()
	return len(me.accepted)
}

// storeIncoming applies the destination's per-token fork-prevention rules
// to one decoded envelope and stores it for a matching local enclave.
func (me *MigrationEnclave) storeIncoming(env *migrationEnvelope, tc obs.TraceContext, solo bool) error {
	key := hex.EncodeToString(env.DoneToken)
	me.mu.Lock()
	defer me.mu.Unlock()
	switch rec := me.incoming[key]; {
	case rec == nil:
	case rec.env == nil:
		// This exact envelope was already fetched by a restoring library
		// here (a retry raced the restore); storing it again could fork
		// the restored enclave.
		return ErrEnvelopeConsumed
	default:
		// A re-send of the very same migration (e.g. the previous
		// delivery's ack was lost) is accepted idempotently: the stored
		// copy is kept and acknowledged again, so retries of a
		// delivered-but-unacknowledged transfer converge instead of wedging.
		return nil
	}
	if me.stored >= maxStoredIncoming {
		return ErrIncomingFull
	}
	me.incoming[key] = &incomingRecord{env: env, trace: tc, solo: solo}
	me.arrivals[env.MREnclave] = append(me.arrivals[env.MREnclave], key)
	me.stored++
	return nil
}

// handleBatchOffer is the destination side of the batch offer round.
func (me *MigrationEnclave) handleBatchOffer(payload []byte) ([]byte, error) {
	offer, err := decodeBatchOffer(payload)
	if err != nil {
		return nil, err
	}
	if offer.Resume != nil {
		return me.handleBatchResume(offer)
	}
	// Fresh handshake: the source must be a genuine enclave running this
	// same ME code, with a quote that binds its handshake key. Its provider
	// certificate follows on the first data frame (see handleBatchChunk).
	srcQuote, err := quoteFromWire(offer.Quote)
	if err != nil {
		return nil, err
	}
	if err := me.ias.Verify(srcQuote); err != nil {
		return nil, fmt.Errorf("verify source quote: %w", err)
	}
	if srcQuote.MREnclave != me.enclave.MREnclave() {
		return nil, fmt.Errorf("%w: source %v", ErrPeerIdentity, srcQuote.MREnclave)
	}
	if srcQuote.Data != sgx.MakeReportData(offer.DHPub) {
		return nil, ErrQuoteBinding
	}
	dh, err := xcrypto.NewKeyExchange()
	if err != nil {
		return nil, fmt.Errorf("destination dh: %w", err)
	}
	shared, err := dh.Shared(offer.DHPub)
	if err != nil {
		return nil, fmt.Errorf("shared secret: %w", err)
	}
	transcript := xcrypto.Transcript(transcriptContext, offer.DHPub, dh.PublicBytes())
	secret := deriveSessionSecret(shared, transcript)
	myQuote, err := me.qe.Quote(me.enclave, sgx.MakeReportData(offer.DHPub, dh.PublicBytes()))
	if err != nil {
		return nil, fmt.Errorf("destination quote: %w", err)
	}
	wq, err := quoteToWire(myQuote)
	if err != nil {
		return nil, err
	}
	myCert, err := certToWire(me.cred.Certificate())
	if err != nil {
		return nil, err
	}
	sid, err := xcrypto.RandomBytes(16)
	if err != nil {
		return nil, err
	}
	batchID, err := xcrypto.RandomBytes(16)
	if err != nil {
		return nil, err
	}
	dataKey, ackKey := batchKeys(secret, 0)
	st, err := newBatchRecvState(dataKey, ackKey, transcript, true, offer.Count)
	if err != nil {
		return nil, err
	}
	// peerCert stays nil — and the session unresumable — until the source
	// authenticates on frame 0.
	st.sess = &resumableSession{
		id:        sid,
		secret:    secret,
		epoch:     append([]byte(nil), me.epoch...),
		counter:   0, // counter 0 keys this batch; resumes must exceed it
		peerQuote: srcQuote,
	}
	me.mu.Lock()
	evictedSess := me.storeAcceptedLocked(st.sess)
	evictedRx := me.storeRxBatchLocked(batchID, st)
	epoch := append([]byte(nil), me.epoch...)
	me.mu.Unlock()
	if evictedSess > 0 {
		me.observer().M().Counter(obs.MESessionEvicted).Add(int64(evictedSess))
	}
	if evictedRx > 0 {
		me.observer().M().Counter(obs.MEStreamRxEvicted).Add(int64(evictedRx))
	}
	return encodeBatchOfferReply(&batchOfferReply{
		BatchID:   batchID,
		SessionID: sid,
		Epoch:     epoch,
		Quote:     wq,
		DHPub:     dh.PublicBytes(),
		Cert:      myCert,
		Sig:       me.cred.Sign(transcript),
	})
}

// handleBatchResume decides one resume ticket. Refusals are replies,
// not errors: the source is expected to fall back to a full handshake.
// The epoch check is the fence — a restarted ME minted a new epoch (and
// forgot its accepted table anyway), so no pre-restart ticket verifies.
// Refusals of tickets that DO prove possession of the session secret
// carry a RefuseMAC, so only the true destination can make the source
// evict its cached session; a secretless refusal (restarted ME, or an
// on-path forgery) is unauthenticated and triggers only the fallback.
func (me *MigrationEnclave) handleBatchResume(offer *batchOffer) ([]byte, error) {
	refuse := func(mac []byte) ([]byte, error) {
		me.observer().M().Counter(obs.MESessionResumeRefused).Add(1)
		return encodeBatchOfferReply(&batchOfferReply{Refused: true, RefuseMAC: mac})
	}
	t := offer.Resume
	if t == nil || t.Count != offer.Count {
		return refuse(nil)
	}
	me.mu.Lock()
	sess := me.accepted[hex.EncodeToString(t.SessionID)]
	authed := sess != nil && sess.peerCert != nil
	epoch := me.epoch
	me.mu.Unlock()
	if sess == nil {
		return refuse(nil)
	}
	if !macEqual(t.MAC, resumeMAC(sess.secret, t.SessionID, t.Epoch, t.Counter, t.Count)) {
		// The ticket does not prove possession of the session secret;
		// refuse without a MAC (no authenticated-refusal oracle for
		// attacker-chosen tickets).
		return refuse(nil)
	}
	// From here the peer provably holds the secret, so a refusal is MACed:
	// the source may safely evict its cache on seeing it.
	refuseProof := resumeRefuseMAC(sess.secret, t.SessionID, t.Counter)
	if !macEqual(t.Epoch, epoch) {
		return refuse(refuseProof)
	}
	if !authed || me.recheckPeer(sess) != nil {
		// The source never proved provider membership on this session, or
		// what it proved has been withdrawn since (R2). Forget the session;
		// the source's fallback handshake is judged on today's facts.
		me.mu.Lock()
		delete(me.accepted, hex.EncodeToString(t.SessionID))
		me.mu.Unlock()
		return refuse(refuseProof)
	}
	me.mu.Lock()
	if t.Counter <= sess.counter {
		// Counter replay: this use (or a later one) was already accepted.
		me.mu.Unlock()
		return refuse(refuseProof)
	}
	sess.counter = t.Counter
	// LRU touch: sessions that keep resuming resist cap eviction.
	me.admitSeq++
	sess.order = me.admitSeq
	me.mu.Unlock()
	dataKey, ackKey := batchKeys(sess.secret, t.Counter)
	st, err := newBatchRecvState(dataKey, ackKey, nil, false, offer.Count)
	if err != nil {
		return nil, err
	}
	st.authed = true // at the original handshake, re-checked above
	batchID, err := xcrypto.RandomBytes(16)
	if err != nil {
		return nil, err
	}
	me.mu.Lock()
	evictedRx := me.storeRxBatchLocked(batchID, st)
	me.mu.Unlock()
	if evictedRx > 0 {
		me.observer().M().Counter(obs.MEStreamRxEvicted).Add(int64(evictedRx))
	}
	me.observer().M().Counter(obs.MESessionResumed).Add(1)
	return encodeBatchOfferReply(&batchOfferReply{
		Resumed:    true,
		BatchID:    batchID,
		ConfirmMAC: resumeConfirmMAC(sess.secret, t.SessionID, t.Counter),
	})
}

func newBatchRecvState(dataKey, ackKey [32]byte, transcript []byte, fresh bool, count uint32) (*batchRecvState, error) {
	stream, err := xcrypto.NewStreamSealer(dataKey)
	if err != nil {
		return nil, err
	}
	acks, err := xcrypto.NewStreamSealer(ackKey)
	if err != nil {
		return nil, err
	}
	return &batchRecvState{
		stream:     stream,
		acks:       acks,
		transcript: transcript,
		fresh:      fresh,
		count:      count,
		seen:       make(map[uint64]bool),
		pending:    make(map[uint64][]byte),
		statuses:   make(map[uint32]memberStatus),
		ackSent:    make(map[uint64][]byte),
	}, nil
}

// handleBatchChunk decrypts one stream frame, reassembles in order,
// stores every complete record, and replies with the sealed cumulative
// status list. Frames may arrive out of order (the sender pipelines);
// record consumption is strictly in-order, which also guarantees no
// record is delivered before the seq-0 source authentication of a
// fresh-handshake batch has passed.
func (me *MigrationEnclave) handleBatchChunk(payload []byte) ([]byte, error) {
	msg, err := decodeBatchChunk(payload)
	if err != nil {
		return nil, err
	}
	me.mu.Lock()
	st := me.rxBatches[hex.EncodeToString(msg.BatchID)]
	me.mu.Unlock()
	if st == nil {
		return nil, ErrUnknownBatch
	}
	pt, err := st.stream.OpenAt(msg.Seq, msg.Sealed, msg.BatchID)
	if err != nil {
		return nil, fmt.Errorf("open batch chunk: %w", err)
	}
	st.mu.Lock()
	if sealed, ok := st.ackSent[msg.Seq]; ok {
		// Replay of an already-acknowledged frame (duplicate delivery or
		// an attacker re-presenting it): return the identical ciphertext.
		// Sealing a fresh cumulative status list here would reuse the ack
		// stream's (key, seq) nonce with different plaintext.
		st.mu.Unlock()
		return sealed, nil
	}
	if st.fresh && !st.authed && msg.Seq == 0 {
		// Mutual provider authentication (R2), batch-framed: the source
		// proves membership by signing the handshake transcript; the
		// signature rides the first frame because the transcript did not
		// exist until the offer reply.
		srcCert, err := certFromWire(msg.Cert)
		if err != nil {
			st.mu.Unlock()
			return nil, err
		}
		if err := me.cred.VerifyPeer(srcCert, st.transcript, msg.Sig); err != nil {
			st.mu.Unlock()
			return nil, fmt.Errorf("authenticate source: %w", err)
		}
		st.authed = true
		me.mu.Lock()
		st.sess.peerCert = srcCert // the session becomes resumable
		me.mu.Unlock()
	}
	if !st.seen[msg.Seq] {
		st.seen[msg.Seq] = true
		st.pending[msg.Seq] = pt
	}
	if st.authed {
		for {
			next, ok := st.pending[st.nextSeq]
			if !ok {
				break
			}
			delete(st.pending, st.nextSeq)
			st.nextSeq++
			st.buf = append(st.buf, next...)
		}
		if err := me.drainRecordsLocked(st); err != nil {
			st.mu.Unlock()
			return nil, err
		}
	}
	list := make([]memberStatus, 0, len(st.statuses))
	for _, s := range st.statuses {
		list = append(list, s)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].Index < list[j].Index })
	complete := uint32(len(st.statuses)) >= st.count
	raw, err := encodeBatchStatusList(&batchStatusList{Statuses: list})
	if err != nil {
		st.mu.Unlock()
		return nil, err
	}
	// Seal and cache under the lock so a concurrent presentation of the
	// same seq cannot race past the ackSent check and seal a second,
	// different frame at this position.
	sealed := st.acks.SealAt(msg.Seq, raw, msg.BatchID)
	st.ackSent[msg.Seq] = sealed
	st.mu.Unlock()
	if complete {
		me.mu.Lock()
		delete(me.rxBatches, hex.EncodeToString(msg.BatchID))
		me.mu.Unlock()
	}
	return sealed, nil
}

// handleBatchAbort frees the reassembly state of a batch whose sender
// finished short of completion. The abort is authenticated by opening
// the reserved batchAbortSeq frame under the batch's data key; anything
// else is rejected, so an off-path attacker cannot shoot down a live
// batch. Unknown batch ids converge silently (already completed, already
// aborted, or evicted).
func (me *MigrationEnclave) handleBatchAbort(payload []byte) ([]byte, error) {
	msg, err := decodeBatchAbort(payload)
	if err != nil {
		return nil, err
	}
	key := hex.EncodeToString(msg.BatchID)
	me.mu.Lock()
	st := me.rxBatches[key]
	me.mu.Unlock()
	if st == nil {
		return []byte(statusOK), nil
	}
	if _, err := st.stream.OpenAt(batchAbortSeq, msg.Sealed, msg.BatchID); err != nil {
		return nil, fmt.Errorf("authenticate batch abort: %w", err)
	}
	me.mu.Lock()
	delete(me.rxBatches, key)
	me.mu.Unlock()
	me.observer().M().Counter(obs.MEStreamRxAborted).Add(1)
	return []byte(statusOK), nil
}

// drainRecordsLocked parses every complete length-prefixed record out
// of the reassembly buffer and stores its envelope. Per-record refusals
// (fork prevention, decode errors) become member statuses; a corrupted
// record FRAME poisons the whole stream and fails the handler, leaving
// uncovered members parked at the source.
func (me *MigrationEnclave) drainRecordsLocked(st *batchRecvState) error {
	for {
		if len(st.buf) < 4 {
			return nil
		}
		rd := newWireReader(st.buf)
		n := int(rd.U32())
		if n == 0 || n > wirec.MaxField {
			return fmt.Errorf("%w: batch record length %d", ErrDataFormat, n)
		}
		if len(st.buf) < 4+n {
			return nil
		}
		rec, err := decodeBatchRecord(rd.Take(n))
		if err != nil {
			return err
		}
		st.buf = st.buf[4+n:]
		status := memberStatus{Index: rec.Index, Status: batchStatusStored}
		envRaw := rec.Envelope
		if rec.Compressed {
			envRaw, err = transport.DecompressFrame(envRaw, 0)
		}
		var env *migrationEnvelope
		if err == nil {
			env, err = decodeEnvelope(envRaw)
		}
		if err == nil {
			err = me.storeIncoming(env, obs.UnmarshalTrace(rec.Trace), st.count == 1)
		}
		if err != nil {
			status.Status = batchStatusError
			status.Detail = err.Error()
		}
		st.statuses[rec.Index] = status
	}
}

// handleBatchDone is the source side's receipt of DONE confirmations: the
// destination libraries restored successfully, so the source copies of the
// migration data can be deleted safely (§V-D). Repeats converge (a
// completed record stays in the table); a token this ME never issued is
// reported, after every known one has been applied.
func (me *MigrationEnclave) handleBatchDone(payload []byte) ([]byte, error) {
	msg, err := decodeBatchDoneMessage(payload)
	if err != nil {
		return nil, err
	}
	me.mu.Lock()
	defer me.mu.Unlock()
	unknown := 0
	for _, token := range msg.Tokens {
		rec, ok := me.outgoing[hex.EncodeToString(token)]
		if !ok {
			unknown++
			continue
		}
		rec.done = true
		// Delete the migration data itself; keep the completion marker so
		// the source library can observe it via MigrationComplete.
		rec.envelope = nil
	}
	if unknown > 0 {
		return nil, fmt.Errorf("%w (%d of %d)", ErrUnknownToken, unknown, len(msg.Tokens))
	}
	return []byte(statusOK), nil
}
