package core

import (
	"fmt"

	"repro/internal/wirec"
)

// Wire messages of the ME<->ME migration protocol (Fig. 2 as a stream):
// one batchOffer per stream (kind migrate-offer) — carrying either a full
// attestation quote or a resume ticket — then a pipelined stream of
// AEAD-sealed batchChunk frames (migrate-data), each answered by a sealed
// batchStatusList, a batchDoneMessage (migrate-done) confirming one or
// many restores, and a batchAbort (migrate-abort) for streams that end
// short. All messages use the shared wirec framing with core's
// tag/version header and the same length-bomb clamps as the local codecs.

// maxBatchCount clamps the member count a batch offer may declare.
const maxBatchCount = 1 << 16

// resumeTicket asks the destination to resume a cached attested session
// instead of re-running the handshake. The MAC binds the session id,
// the destination epoch the source saw at handshake time, the reserved
// counter, and the batch size under the session secret.
type resumeTicket struct {
	SessionID []byte
	Epoch     []byte
	Counter   uint64
	Count     uint32
	MAC       []byte
}

// batchOffer opens a stream: either Resume is present (session resume)
// or Quote+DHPub are (full handshake: the source ME's quote binds its
// ephemeral DH public key).
type batchOffer struct {
	Count  uint32
	Quote  *wireQuote
	DHPub  []byte
	Resume *resumeTicket
}

// batchOfferReply either refuses resumption (Refused — not an error:
// the source falls back to a full handshake), confirms it (Resumed +
// ConfirmMAC), or completes a fresh handshake: the destination's quote
// binds both DH keys, its provider certificate and transcript signature
// authenticate the machine (R2), and the reply names the new session and
// the destination epoch.
// RefuseMAC accompanies a refusal from a destination that still holds
// the session secret (proof the refusal is genuine, see resumeRefuseMAC);
// it is absent when the destination lost the session, and the source
// only evicts its cache when the MAC verifies.
type batchOfferReply struct {
	Refused    bool
	Resumed    bool
	BatchID    []byte
	SessionID  []byte
	Epoch      []byte
	Quote      *wireQuote
	DHPub      []byte
	Cert       []byte
	Sig        []byte
	ConfirmMAC []byte
	RefuseMAC  []byte
}

// batchChunk is one sealed frame of the batch stream. Seq is the frame's
// stream position (frames may arrive out of order; the receiver
// reassembles). Cert/Sig are present only on seq 0 of a fresh-handshake
// batch: the source's provider authentication needs the full transcript
// (both DH keys), which does not exist until the offer reply — and the
// receiver consumes frames in order, so no record is delivered before
// the seq-0 authentication passes.
type batchChunk struct {
	BatchID []byte
	Seq     uint64
	Cert    []byte
	Sig     []byte
	Sealed  []byte
}

// Member statuses carried in chunk acks.
const (
	batchStatusStored byte = 1 // envelope stored at the destination ME
	batchStatusError  byte = 2 // refused; Detail carries the reason
)

// memberStatus is one batch member's outcome at the destination.
type memberStatus struct {
	Index  uint32
	Status byte
	Detail string
}

// batchStatusList is the (sealed) payload of a chunk ack: the
// cumulative set of member outcomes so far, so acks are idempotent and
// any single ack suffices to learn everything decided up to it.
type batchStatusList struct {
	Statuses []memberStatus
}

// batchDoneMessage flushes many DONE confirmations to a source ME in
// one exchange.
type batchDoneMessage struct {
	Tokens [][]byte
}

// batchAbort tells the destination a batch stream ended without ever
// completing (the sender's Finish saw fewer acks than the declared
// member count), so the per-batch reassembly state can be freed instead
// of lingering until cap-eviction. Sealed authenticates the abort: it is
// the data stream's frame at the reserved batchAbortSeq position, which
// only the holder of the batch's data key can produce.
type batchAbort struct {
	BatchID []byte
	Sealed  []byte
}

// batchRecord is one enclave's migration inside the stream plaintext:
// the encoded envelope (optionally a compressed frame) plus its trace
// context. Records are length-prefixed and concatenated; chunks cut the
// concatenation at arbitrary byte boundaries.
type batchRecord struct {
	Index      uint32
	Compressed bool
	Trace      []byte
	Envelope   []byte
}

func encodeResumeTicketInline(dst []byte, t *resumeTicket) []byte {
	dst = wirec.AppendBytes(dst, t.SessionID)
	dst = wirec.AppendBytes(dst, t.Epoch)
	dst = wirec.AppendU64(dst, t.Counter)
	dst = wirec.AppendU32(dst, t.Count)
	return wirec.AppendBytes(dst, t.MAC)
}

func (r *wireReader) resumeTicket() *resumeTicket {
	t := &resumeTicket{
		SessionID: r.Bytes(),
		Epoch:     r.Bytes(),
		Counter:   r.U64(),
		Count:     r.U32(),
		MAC:       r.Bytes(),
	}
	if r.errState() != nil {
		return nil
	}
	return t
}

func encodeBatchOffer(m *batchOffer) ([]byte, error) {
	if (m.Quote == nil) == (m.Resume == nil) {
		return nil, fmt.Errorf("%w: batch offer needs exactly one of quote or resume ticket", ErrDataFormat)
	}
	out := wirec.AppendHeader(make([]byte, 0, 256), tagBatchOffer, wireVersion)
	out = wirec.AppendU32(out, m.Count)
	if m.Resume != nil {
		out = append(out, 1)
		return encodeResumeTicketInline(out, m.Resume), nil
	}
	out = append(out, 0)
	out = appendQuote(out, m.Quote)
	return wirec.AppendBytes(out, m.DHPub), nil
}

func decodeBatchOffer(raw []byte) (*batchOffer, error) {
	rd := newWireReader(raw)
	if !rd.Header(tagBatchOffer, wireVersion) {
		return nil, rd.errState()
	}
	m := &batchOffer{Count: rd.U32()}
	if m.Count == 0 || m.Count > maxBatchCount {
		return nil, fmt.Errorf("%w: batch count %d out of range", ErrDataFormat, m.Count)
	}
	switch rd.U8() {
	case 1:
		m.Resume = rd.resumeTicket()
	case 0:
		m.Quote = rd.quote()
		m.DHPub = rd.Bytes()
	default:
		return nil, fmt.Errorf("%w: bad batch offer mode", ErrDataFormat)
	}
	if err := rd.done(); err != nil {
		return nil, err
	}
	if rd.errState() != nil {
		return nil, rd.errState()
	}
	return m, nil
}

// Flag bits of the batch offer reply.
const (
	batchReplyRefused byte = 1 << 0
	batchReplyResumed byte = 1 << 1
	batchReplyQuoted  byte = 1 << 2 // fresh-handshake fields present
)

func encodeBatchOfferReply(m *batchOfferReply) ([]byte, error) {
	var flags byte
	if m.Refused {
		flags |= batchReplyRefused
	}
	if m.Resumed {
		flags |= batchReplyResumed
	}
	if m.Quote != nil {
		flags |= batchReplyQuoted
	}
	out := wirec.AppendHeader(make([]byte, 0, 512), tagBatchReply, wireVersion)
	out = append(out, flags)
	out = wirec.AppendBytes(out, m.BatchID)
	out = wirec.AppendBytes(out, m.SessionID)
	out = wirec.AppendBytes(out, m.Epoch)
	out = wirec.AppendBytes(out, m.ConfirmMAC)
	out = wirec.AppendBytes(out, m.RefuseMAC)
	if m.Quote != nil {
		out = appendQuote(out, m.Quote)
		out = wirec.AppendBytes(out, m.DHPub)
		out = wirec.AppendBytes(out, m.Cert)
		out = wirec.AppendBytes(out, m.Sig)
	}
	return out, nil
}

func decodeBatchOfferReply(raw []byte) (*batchOfferReply, error) {
	rd := newWireReader(raw)
	if !rd.Header(tagBatchReply, wireVersion) {
		return nil, rd.errState()
	}
	flags := rd.U8()
	m := &batchOfferReply{
		Refused:    flags&batchReplyRefused != 0,
		Resumed:    flags&batchReplyResumed != 0,
		BatchID:    rd.Bytes(),
		SessionID:  rd.Bytes(),
		Epoch:      rd.Bytes(),
		ConfirmMAC: rd.Bytes(),
		RefuseMAC:  rd.Bytes(),
	}
	if flags&batchReplyQuoted != 0 {
		m.Quote = rd.quote()
		m.DHPub = rd.Bytes()
		m.Cert = rd.Bytes()
		m.Sig = rd.Bytes()
	}
	if err := rd.done(); err != nil {
		return nil, err
	}
	return m, nil
}

func encodeBatchChunk(m *batchChunk) ([]byte, error) {
	out := wirec.AppendHeader(make([]byte, 0, 64+len(m.Cert)+len(m.Sig)+len(m.Sealed)), tagBatchChunk, wireVersion)
	out = wirec.AppendBytes(out, m.BatchID)
	out = wirec.AppendU64(out, m.Seq)
	out = wirec.AppendBytes(out, m.Cert)
	out = wirec.AppendBytes(out, m.Sig)
	return wirec.AppendBytes(out, m.Sealed), nil
}

func decodeBatchChunk(raw []byte) (*batchChunk, error) {
	rd := newWireReader(raw)
	if !rd.Header(tagBatchChunk, wireVersion) {
		return nil, rd.errState()
	}
	m := &batchChunk{
		BatchID: rd.Bytes(),
		Seq:     rd.U64(),
		Cert:    rd.Bytes(),
		Sig:     rd.Bytes(),
		Sealed:  rd.Bytes(),
	}
	if err := rd.done(); err != nil {
		return nil, err
	}
	return m, nil
}

func encodeBatchStatusList(m *batchStatusList) ([]byte, error) {
	out := wirec.AppendHeader(make([]byte, 0, 8+16*len(m.Statuses)), tagBatchStatus, wireVersion)
	out = wirec.AppendU32(out, uint32(len(m.Statuses)))
	for _, s := range m.Statuses {
		out = wirec.AppendU32(out, s.Index)
		out = append(out, s.Status)
		out = wirec.AppendString(out, s.Detail)
	}
	return out, nil
}

func decodeBatchStatusList(raw []byte) (*batchStatusList, error) {
	rd := newWireReader(raw)
	if !rd.Header(tagBatchStatus, wireVersion) {
		return nil, rd.errState()
	}
	n := rd.U32()
	// Each status needs at least index(4) + status(1) + detail length(4).
	if !rd.CanHold(n, 9) {
		return nil, fmt.Errorf("%w: status count %d exceeds payload", ErrDataFormat, n)
	}
	m := &batchStatusList{Statuses: make([]memberStatus, 0, n)}
	for i := uint32(0); i < n; i++ {
		m.Statuses = append(m.Statuses, memberStatus{
			Index:  rd.U32(),
			Status: rd.U8(),
			Detail: rd.String(),
		})
	}
	if err := rd.done(); err != nil {
		return nil, err
	}
	return m, nil
}

func encodeBatchDoneMessage(m *batchDoneMessage) ([]byte, error) {
	out := wirec.AppendHeader(make([]byte, 0, 8+20*len(m.Tokens)), tagBatchDone, wireVersion)
	out = wirec.AppendU32(out, uint32(len(m.Tokens)))
	for _, t := range m.Tokens {
		out = wirec.AppendBytes(out, t)
	}
	return out, nil
}

func decodeBatchDoneMessage(raw []byte) (*batchDoneMessage, error) {
	rd := newWireReader(raw)
	if !rd.Header(tagBatchDone, wireVersion) {
		return nil, rd.errState()
	}
	n := rd.U32()
	if !rd.CanHold(n, 4) {
		return nil, fmt.Errorf("%w: token count %d exceeds payload", ErrDataFormat, n)
	}
	m := &batchDoneMessage{Tokens: make([][]byte, 0, n)}
	for i := uint32(0); i < n; i++ {
		m.Tokens = append(m.Tokens, rd.Bytes())
	}
	if err := rd.done(); err != nil {
		return nil, err
	}
	return m, nil
}

func encodeBatchAbort(m *batchAbort) ([]byte, error) {
	out := wirec.AppendHeader(make([]byte, 0, 16+len(m.BatchID)+len(m.Sealed)), tagBatchAbort, wireVersion)
	out = wirec.AppendBytes(out, m.BatchID)
	return wirec.AppendBytes(out, m.Sealed), nil
}

func decodeBatchAbort(raw []byte) (*batchAbort, error) {
	rd := newWireReader(raw)
	if !rd.Header(tagBatchAbort, wireVersion) {
		return nil, rd.errState()
	}
	m := &batchAbort{
		BatchID: rd.Bytes(),
		Sealed:  rd.Bytes(),
	}
	if err := rd.done(); err != nil {
		return nil, err
	}
	return m, nil
}

func encodeBatchRecord(m *batchRecord) ([]byte, error) {
	out := wirec.AppendHeader(make([]byte, 0, 16+len(m.Trace)+len(m.Envelope)), tagBatchRecord, wireVersion)
	out = wirec.AppendU32(out, m.Index)
	var c byte
	if m.Compressed {
		c = 1
	}
	out = append(out, c)
	out = wirec.AppendBytes(out, m.Trace)
	return wirec.AppendBytes(out, m.Envelope), nil
}

func decodeBatchRecord(raw []byte) (*batchRecord, error) {
	rd := newWireReader(raw)
	if !rd.Header(tagBatchRecord, wireVersion) {
		return nil, rd.errState()
	}
	m := &batchRecord{Index: rd.U32()}
	switch rd.U8() {
	case 0:
	case 1:
		m.Compressed = true
	default:
		return nil, fmt.Errorf("%w: bad record compression flag", ErrDataFormat)
	}
	m.Trace = rd.Bytes()
	m.Envelope = rd.Bytes()
	if err := rd.done(); err != nil {
		return nil, err
	}
	return m, nil
}
