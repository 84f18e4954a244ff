package core

import (
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/attest"
	"repro/internal/obs"
	"repro/internal/sgx"
	"repro/internal/transport"
	"repro/internal/xcrypto"
)

// Migration Enclave errors.
var (
	ErrUnknownSession = errors.New("core: unknown local session")
	ErrPeerIdentity   = errors.New("core: peer migration enclave has a different identity")
	ErrQuoteBinding   = errors.New("core: quote does not bind the handshake keys")
	ErrUnknownToken   = errors.New("core: unknown migration token")
	// ErrMigrationDone reports a retry/redirect of a migration whose DONE
	// confirmation has already arrived: the state was restored at a
	// destination, so re-sending the stale envelope would fork it.
	ErrMigrationDone = errors.New("core: migration already completed; data must not be re-sent")
	// ErrTransferInFlight reports a retry/redirect refused because another
	// transfer of the same migration is currently running; two concurrent
	// sends of one record could deliver it to two destinations. Retry
	// after the in-flight transfer finishes.
	ErrTransferInFlight = errors.New("core: a transfer of this migration is already in flight")
	// ErrEnvelopeConsumed reports a re-delivery refused because the
	// destination already handed this exact envelope to a restoring
	// library. Whether that restore completed is the source record's
	// (done flag's) knowledge, not the destination's: storing the
	// envelope again could fork a completed restore, so it is refused
	// either way.
	ErrEnvelopeConsumed = errors.New("core: this migration's envelope was already fetched at the destination")
	// ErrIncomingFull reports a delivery refused because the destination
	// already stores maxStoredIncoming unfetched envelopes. The envelope
	// stays held at the source; a retry succeeds once restores drain the
	// store. Nothing already acknowledged is ever evicted to make room.
	ErrIncomingFull = errors.New("core: destination's incoming migration store is full")
)

// MigrationEnclaveVersion is the ME code version; all machines in a data
// center run the same version, so MRENCLAVE values match.
const MigrationEnclaveVersion = 1

// MigrationEnclaveImage returns the Migration Enclave image. It is
// deliberately identical on every machine: during remote attestation each
// ME checks that its peer measures exactly the same (paper §VI-A).
func MigrationEnclaveImage() *sgx.Image {
	return &sgx.Image{
		Name:            "migration-enclave",
		Version:         MigrationEnclaveVersion,
		Code:            []byte("migration enclave: local attestation, remote attestation, store-and-forward"),
		SignerPublicKey: attest.ArchitecturalSignerKey(),
	}
}

// localConn is the ME-side endpoint of one attested app-enclave channel.
type localConn struct {
	session *attest.LocalSession
}

// outgoingRecord is migration data held at the source ME until the DONE
// confirmation arrives (or the transfer is retried/redirected, §V-D).
type outgoingRecord struct {
	envelope *migrationEnvelope
	dest     transport.Address
	sent     bool // reached destination ME (stored there)
	done     bool // destination library confirmed restore
	inFlight bool // a transfer of this record is currently running
	// trace is the migration's trace context (zero when tracing is off);
	// transfers and retries open their protocol spans under it.
	trace obs.TraceContext
}

// incomingRecord is an incoming migration — stored awaiting its enclave,
// then delivered and awaiting the library's ack — plus the trace context
// it traveled with, so the restoring library joins the originating trace.
// Once a library fetched it, the table's record drops env and stays as
// the token's tombstone (as outgoing keeps its done records).
// solo marks the only member of its stream: nothing else will queue a
// DONE behind it, so its confirmation is flushed at ack time (Fig. 2's
// final arrow) instead of waiting for an aggregated flush.
type incomingRecord struct {
	env   *migrationEnvelope
	trace obs.TraceContext
	solo  bool
}

// MigrationEnclave is the per-machine migration manager (paper §V-B,
// §VI-A). It runs inside its own enclave in the management VM, locally
// attests application enclaves, and speaks the Fig. 2 protocol with peer
// Migration Enclaves over the untrusted network.
type MigrationEnclave struct {
	enclave *sgx.Enclave
	cred    *attest.Credential
	qe      *attest.QuotingEnclave
	ias     *attest.IAS
	net     transport.Messenger
	addr    transport.Address

	// obs records protocol spans; nil disables recording but trace
	// contexts still propagate through unchanged.
	obs *obs.Observer

	mu       sync.Mutex
	locals   map[string]*localConn
	outgoing map[string]*outgoingRecord // key: hex done-token
	// incoming holds every migration ever delivered here, by done-token:
	// stored until a restoring library fetches it, a tombstone from then
	// on. Tombstones are deliberately retained for the ME's lifetime (like
	// outgoing's done records): pruning one would reopen the window where
	// a late re-delivery of that envelope forks the restored enclave.
	// arrivals indexes the stored tokens of each enclave identity in
	// arrival order, always starting at a stored one; stored counts them.
	incoming map[string]*incomingRecord // key: hex done-token
	arrivals map[sgx.Measurement][]string
	stored   int
	acks     map[string]*incomingRecord // delivered, unacknowledged; key: local session ID

	// epoch is this ME instance's trust epoch, minted at construction.
	// Session-resume tickets are MAC-bound to the destination's epoch; a
	// restarted ME (a new instance) mints a new epoch, so every
	// pre-restart ticket is refused and the source falls back to a full
	// handshake (see session.go).
	epoch []byte
	// sessions caches resumable attested sessions by destination address
	// (source role); accepted caches them by hex session id (dest role).
	// accepted and rxBatches are populated by untrusted peers, so both
	// are capped (see storeAcceptedLocked / storeRxBatchLocked);
	// admitSeq stamps their entries for least-recently-used eviction.
	sessions  map[string]*resumableSession
	accepted  map[string]*resumableSession
	rxBatches map[string]*batchRecvState // key: hex batch id
	admitSeq  uint64
	// doneQueue accumulates DONE tokens per source-ME address until the
	// next flush.
	doneQueue map[string][][]byte
	// opening and flushing serialize, per peer address, the two exchanges
	// that must not overtake each other toward one peer: stream opens
	// toward a destination (beginStream) and DONE flushes toward a source
	// (flushDones). An entry exists only while its section is held.
	opening  map[string]chan struct{}
	flushing map[string]chan struct{}
}

// NewMigrationEnclave loads the ME on the machine, registers it on the
// network, and equips it with the provider credential provisioned during
// the secure setup phase.
func NewMigrationEnclave(
	machine *sgx.Machine,
	qe *attest.QuotingEnclave,
	ias *attest.IAS,
	cred *attest.Credential,
	net transport.Messenger,
	addr transport.Address,
) (*MigrationEnclave, error) {
	e, err := machine.Load(MigrationEnclaveImage())
	if err != nil {
		return nil, fmt.Errorf("load migration enclave: %w", err)
	}
	epoch, err := xcrypto.RandomBytes(16)
	if err != nil {
		return nil, fmt.Errorf("mint me epoch: %w", err)
	}
	me := &MigrationEnclave{
		enclave:   e,
		cred:      cred,
		qe:        qe,
		ias:       ias,
		net:       net,
		addr:      addr,
		locals:    make(map[string]*localConn),
		outgoing:  make(map[string]*outgoingRecord),
		incoming:  make(map[string]*incomingRecord),
		arrivals:  make(map[sgx.Measurement][]string),
		acks:      make(map[string]*incomingRecord),
		epoch:     epoch,
		sessions:  make(map[string]*resumableSession),
		accepted:  make(map[string]*resumableSession),
		rxBatches: make(map[string]*batchRecvState),
		doneQueue: make(map[string][][]byte),
		opening:   make(map[string]chan struct{}),
		flushing:  make(map[string]chan struct{}),
	}
	if err := net.Register(addr, me.handleNetwork); err != nil {
		return nil, fmt.Errorf("register migration enclave: %w", err)
	}
	return me, nil
}

// Address returns the ME's network address.
func (me *MigrationEnclave) Address() transport.Address { return me.addr }

// SetObserver installs the ME's observability sink. Call before traffic
// starts (the cloud layer wires it at machine provisioning).
func (me *MigrationEnclave) SetObserver(o *obs.Observer) {
	me.mu.Lock()
	me.obs = o
	me.mu.Unlock()
}

// observer returns the current sink (nil-safe to use directly).
func (me *MigrationEnclave) observer() *obs.Observer {
	me.mu.Lock()
	defer me.mu.Unlock()
	return me.obs
}

// lockPeer enters peer's critical section in held (me.opening or
// me.flushing), waiting out whoever is inside, and returns the function
// that leaves it. The exit may run on any goroutine, and more than once.
func (me *MigrationEnclave) lockPeer(held map[string]chan struct{}, peer transport.Address) (unlock func()) {
	for {
		me.mu.Lock()
		busy, ok := held[string(peer)]
		if !ok {
			left := make(chan struct{})
			held[string(peer)] = left
			me.mu.Unlock()
			var once sync.Once
			return func() {
				once.Do(func() {
					me.mu.Lock()
					delete(held, string(peer))
					me.mu.Unlock()
					close(left)
				})
			}
		}
		me.mu.Unlock()
		<-busy
	}
}

// Enclave exposes the ME's own enclave (tests and the management VM).
func (me *MigrationEnclave) Enclave() *sgx.Enclave { return me.enclave }

// ConnectLocal performs mutual local attestation with an application
// enclave on the same machine and opens the long-lived channel. It
// returns the application-side session and the session handle used for
// subsequent LocalCall invocations. The ME records the peer's MRENCLAVE
// for migration matching (§VI-A).
func (me *MigrationEnclave) ConnectLocal(app *sgx.Enclave) (*attest.LocalSession, string, error) {
	appSess, meSess, err := attest.LocalAttest(app, me.enclave)
	if err != nil {
		return nil, "", err
	}
	idBytes, err := xcrypto.RandomBytes(8)
	if err != nil {
		return nil, "", fmt.Errorf("session id: %w", err)
	}
	id := hex.EncodeToString(idBytes)
	me.mu.Lock()
	me.locals[id] = &localConn{session: meSess}
	me.mu.Unlock()
	return appSess, id, nil
}

// releaseLocal ends a library's local session, and with it any delivery
// the session fetched but never acknowledged: no DONE was queued for it,
// so its source still holds the envelope.
func (me *MigrationEnclave) releaseLocal(sessionID string) {
	me.mu.Lock()
	delete(me.locals, sessionID)
	delete(me.acks, sessionID)
	me.mu.Unlock()
}

// LocalCall delivers one sealed request from a locally attested library
// and returns the sealed reply. The wire bytes cross the untrusted OS.
func (me *MigrationEnclave) LocalCall(sessionID string, wire []byte) ([]byte, error) {
	if err := me.enclave.ECall(); err != nil {
		return nil, err
	}
	me.mu.Lock()
	conn, ok := me.locals[sessionID]
	me.mu.Unlock()
	if !ok {
		return nil, ErrUnknownSession
	}
	raw, err := conn.session.Channel.Open(wire)
	if err != nil {
		return nil, fmt.Errorf("open local request: %w", err)
	}
	req, err := decodeLocalRequest(raw)
	if err != nil {
		return nil, err
	}
	resp := me.dispatchLocal(sessionID, conn, req)
	respRaw, err := encodeLocalResponse(resp)
	if err != nil {
		return nil, err
	}
	sealed, err := conn.session.Channel.Seal(respRaw)
	if err != nil {
		return nil, fmt.Errorf("seal local reply: %w", err)
	}
	return sealed, nil
}

// dispatchLocal routes one library request.
func (me *MigrationEnclave) dispatchLocal(sessionID string, conn *localConn, req *localRequest) *localResponse {
	switch req.Op {
	case opMigrateOut, opMigrateOutHold:
		return me.handleMigrateOut(conn, req)
	case opFetchIncoming:
		return me.handleFetchIncoming(sessionID, conn, req)
	case opAckRestored:
		return me.handleAckRestored(sessionID, req)
	case opCheckDone:
		return me.handleCheckDone(req)
	default:
		return &localResponse{Status: "error", Detail: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// handleMigrateOut stores the outgoing migration, held for retry until
// its DONE arrives (§V-D). For opMigrateOut the ME then sends it itself,
// as a stream of one; for opMigrateOutHold the caller's stream will.
func (me *MigrationEnclave) handleMigrateOut(conn *localConn, req *localRequest) *localResponse {
	data, err := DecodeMigrationData(req.Body)
	if err != nil {
		return &localResponse{Status: "error", Detail: err.Error()}
	}
	token, err := xcrypto.RandomBytes(16)
	if err != nil {
		return &localResponse{Status: "error", Detail: err.Error()}
	}
	env := &migrationEnvelope{
		Data: data,
		// The source ME appends the attested MRENCLAVE of the sending
		// library's enclave; the destination ME will only deliver to an
		// enclave with exactly this identity.
		MREnclave: conn.session.PeerMREnclave,
		SourceME:  string(me.addr),
		DoneToken: token,
	}
	sp, tc := me.observer().StartSpan(obs.SpanMEMigrateOut, obs.UnmarshalTrace(req.Trace))
	if sp != nil {
		sp.Site = string(me.addr)
		defer sp.End()
	}
	dest := transport.Address(req.Dest)
	me.mu.Lock()
	me.outgoing[hex.EncodeToString(token)] = &outgoingRecord{envelope: env, dest: dest, trace: tc}
	me.mu.Unlock()
	if req.Op == opMigrateOutHold {
		return &localResponse{Status: statusHeld, Token: token}
	}
	if err := me.streamOne(token, dest, tc); err != nil {
		return &localResponse{Status: statusPending, Detail: err.Error(), Token: token}
	}
	return &localResponse{Status: statusSent, Token: token}
}

// handleFetchIncoming hands one stored envelope to a local library whose
// attested identity matches — the one the request names by done-token,
// else the oldest stored for that identity — and tombstones it so it is
// delivered exactly once (fork prevention, R3).
func (me *MigrationEnclave) handleFetchIncoming(sessionID string, conn *localConn, req *localRequest) *localResponse {
	mre := conn.session.PeerMREnclave
	me.mu.Lock()
	defer me.mu.Unlock()
	key := hex.EncodeToString(req.Token)
	if q := me.arrivals[mre]; len(req.Token) == 0 && len(q) > 0 {
		key = q[0]
	}
	inc := me.incoming[key]
	if inc == nil || inc.env == nil || inc.env.MREnclave != mre {
		return &localResponse{Status: statusNone}
	}
	// Drop the envelope atomically with the hand-over: from this moment it
	// is being restored, and a re-delivery of the same migration (a retry
	// racing the restore) must never be stored again — it would fork the
	// restored enclave.
	ack := *inc
	inc.env = nil
	me.stored--
	q := me.arrivals[mre]
	for len(q) > 0 && me.incoming[q[0]].env == nil {
		q = q[1:]
	}
	if me.arrivals[mre] = q; len(q) == 0 {
		delete(me.arrivals, mre)
	}
	me.acks[sessionID] = &ack
	raw, err := ack.env.encode()
	if err != nil {
		return &localResponse{Status: "error", Detail: err.Error()}
	}
	// Hand the migration's trace context to the restoring library so its
	// resume spans join the originating trace.
	return &localResponse{Status: statusData, Body: raw, Trace: ack.trace.Marshal()}
}

// handleAckRestored queues the DONE confirmation for the source ME. The
// only member of a stream of one flushes it here (Fig. 2's final arrow);
// a wider stream's restores never wait on the network — whoever drives
// the stream flushes (FlushDones), and the queue flushes itself only as
// a backstop, once it is as long as the incoming store it confirms. A
// failed flush keeps the tokens queued and the source keeps its copy —
// the safe failure mode of a lost DONE.
func (me *MigrationEnclave) handleAckRestored(sessionID string, req *localRequest) *localResponse {
	me.mu.Lock()
	ack, ok := me.acks[sessionID]
	delete(me.acks, sessionID)
	me.mu.Unlock()
	if !ok {
		return &localResponse{Status: "error", Detail: "no delivery awaiting acknowledgement"}
	}
	// Prefer the restoring library's span context (it deepened the trace
	// during restore); fall back to the delivery's own context.
	tc := obs.UnmarshalTrace(req.Trace)
	if !tc.Valid() {
		tc = ack.trace
	}
	sp, tc := me.observer().StartSpan(obs.SpanMEDone, tc)
	if sp != nil {
		sp.Site = string(me.addr)
		defer sp.End()
	}
	source := ack.env.SourceME
	me.mu.Lock()
	me.doneQueue[source] = append(me.doneQueue[source], ack.env.DoneToken)
	flush := ack.solo || len(me.doneQueue[source]) >= maxStoredIncoming
	me.mu.Unlock()
	if flush {
		if err := me.flushDones(transport.Address(source), tc); err != nil {
			return &localResponse{Status: statusOK, Detail: "restore complete; " + err.Error()}
		}
	}
	return &localResponse{Status: statusOK}
}

// handleCheckDone reports whether the DONE confirmation arrived.
func (me *MigrationEnclave) handleCheckDone(req *localRequest) *localResponse {
	me.mu.Lock()
	defer me.mu.Unlock()
	rec, ok := me.outgoing[hex.EncodeToString(req.Token)]
	if !ok {
		// Unknown token: either never existed or already completed and
		// cleaned up. Completed tokens are kept with done=true, so this
		// is an error.
		return &localResponse{Status: "error", Detail: ErrUnknownToken.Error()}
	}
	if rec.done {
		return &localResponse{Status: statusDone}
	}
	return &localResponse{Status: statusWaiting}
}

// FlushDones sends every queued DONE confirmation for the given source
// ME in one exchange. Flushes toward one source are single-flight: a
// caller that finds one on the wire waits for it, then sends whatever is
// still queued — so when FlushDones returns nil, every confirmation
// queued before the call has been applied at the source, whoever carried
// it. On failure the tokens are re-queued (the source keeps its copies;
// retries converge).
func (me *MigrationEnclave) FlushDones(source transport.Address) error {
	return me.flushDones(source, obs.TraceContext{})
}

// flushDones is FlushDones under the trace of the restore that triggered it.
func (me *MigrationEnclave) flushDones(source transport.Address, tc obs.TraceContext) error {
	defer me.lockPeer(me.flushing, source)()
	me.mu.Lock()
	tokens := me.doneQueue[string(source)]
	delete(me.doneQueue, string(source))
	me.mu.Unlock()
	if len(tokens) == 0 {
		return nil
	}
	payload, err := encodeBatchDoneMessage(&batchDoneMessage{Tokens: tokens})
	if err == nil {
		_, err = me.net.Send(me.addr, source, kindDone, obs.Inject(tc, payload))
	}
	if err == nil {
		return nil
	}
	// An unknown-token refusal (matched by text: handler errors cross TCP
	// as strings) means the source applied every token it still has a
	// record for and restarted out of the rest, so nothing is left to
	// confirm. Any other failure may have lost the message: re-queue.
	if !strings.Contains(err.Error(), ErrUnknownToken.Error()) {
		me.mu.Lock()
		me.doneQueue[string(source)] = append(tokens, me.doneQueue[string(source)]...)
		me.mu.Unlock()
	}
	return fmt.Errorf("flush DONE confirmations: %w", err)
}

// QueuedDones reports how many DONE confirmations await flushing to the
// given source ME (tests and operators).
func (me *MigrationEnclave) QueuedDones(source transport.Address) int {
	me.mu.Lock()
	defer me.mu.Unlock()
	return len(me.doneQueue[string(source)])
}

// PendingOutgoing returns the number of outgoing migrations not yet
// confirmed by a DONE from the destination.
func (me *MigrationEnclave) PendingOutgoing() int {
	me.mu.Lock()
	defer me.mu.Unlock()
	n := 0
	for _, rec := range me.outgoing {
		if !rec.done {
			n++
		}
	}
	return n
}

// PendingIncoming returns the number of stored incoming migrations
// waiting for their destination enclave.
func (me *MigrationEnclave) PendingIncoming() int {
	me.mu.Lock()
	defer me.mu.Unlock()
	return me.stored
}

// OutstandingTokens returns the done-tokens of outgoing migrations that
// have not yet been confirmed, for retry/redirect management by the
// machine operator.
func (me *MigrationEnclave) OutstandingTokens() [][]byte {
	me.mu.Lock()
	defer me.mu.Unlock()
	var tokens [][]byte
	for _, rec := range me.outgoing {
		if !rec.done && rec.envelope != nil {
			tokens = append(tokens, append([]byte(nil), rec.envelope.DoneToken...))
		}
	}
	return tokens
}

// OutgoingStatus reports the state of one outgoing migration: where it
// was last targeted, whether it reached that destination ME, and whether
// the destination library confirmed its restore. Operators use it to
// decide whether a parked migration can safely be redirected (only when
// the data never arrived, or the destination that holds it is gone).
func (me *MigrationEnclave) OutgoingStatus(token []byte) (dest transport.Address, sent, done bool, err error) {
	me.mu.Lock()
	defer me.mu.Unlock()
	rec, ok := me.outgoing[hex.EncodeToString(token)]
	if !ok {
		return "", false, false, ErrUnknownToken
	}
	return rec.dest, rec.sent, rec.done, nil
}

// RetryOutgoing re-sends every unsent outgoing migration to its recorded
// destination (skipping any already in a stream), returning the first
// error encountered (nil if all succeeded).
func (me *MigrationEnclave) RetryOutgoing() error {
	type held struct {
		token []byte
		dest  transport.Address
		trace obs.TraceContext
	}
	me.mu.Lock()
	var retry []held
	for _, rec := range me.outgoing {
		if !rec.sent && !rec.done && !rec.inFlight {
			retry = append(retry, held{rec.envelope.DoneToken, rec.dest, rec.trace})
		}
	}
	me.mu.Unlock()
	var firstErr error
	for _, h := range retry {
		if err := me.streamOne(h.token, h.dest, h.trace); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Redirect re-targets a pending outgoing migration to a different
// destination machine (§V-D: "another destination machine is selected").
// A migration whose DONE confirmation already arrived is refused with
// ErrMigrationDone: its state lives at a destination, and re-sending the
// stale envelope would fork the enclave. Re-targeting a migration that
// was delivered but not yet restored (sent, no DONE) is the operator's
// §V-D judgment call: it is only fork-safe when the previous destination
// machine is gone, which the source ME cannot verify — callers must
// check (as internal/fleet does) before redirecting away from a live
// destination.
func (me *MigrationEnclave) Redirect(token []byte, newDest transport.Address) error {
	me.mu.Lock()
	rec := me.outgoing[hex.EncodeToString(token)]
	err := sendable(rec)
	me.mu.Unlock()
	if err != nil {
		// Refuse before any exchange: a stale or busy record must not cost
		// the new destination a handshake.
		return err
	}
	return me.streamOne(token, newDest, rec.trace) // trace is set once, at creation
}

// sendable reports why an outgoing record (nil: no such token) may not
// enter a stream now. Callers hold the ME's mu.
func sendable(rec *outgoingRecord) error {
	switch {
	case rec == nil:
		return ErrUnknownToken
	case rec.done || rec.envelope == nil:
		return ErrMigrationDone
	case rec.inFlight:
		// Another send of this record is running; a second concurrent one
		// could deliver the envelope to two destinations.
		return ErrTransferInFlight
	}
	return nil
}
