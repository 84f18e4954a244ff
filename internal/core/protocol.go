package core

import (
	"fmt"

	"repro/internal/sgx"
	"repro/internal/wirec"
	"repro/internal/xcrypto"
)

// Local (Library <-> Migration Enclave) operations, carried over the
// attested channel established at migration_init.
const (
	// opMigrateOut stores the outgoing migration at the source ME, which
	// then streams it to the destination as a stream of one.
	opMigrateOut = "migrate-out"
	// opMigrateOutHold only stores it: the caller's own stream carries the
	// held envelope (BatchSender.Add), so each enclave freezes just before
	// its frames are sent however many members share the stream.
	opMigrateOutHold = "migrate-out-hold"
	opFetchIncoming  = "fetch-incoming"
	opAckRestored    = "ack-restored"
	opCheckDone      = "check-done"
)

// Local reply statuses.
const (
	statusSent    = "sent"      // data transferred to destination ME
	statusPending = "pending"   // transfer failed; held at source ME
	statusHeld    = "held"      // data held at source ME for the caller's stream
	statusNone    = "none"      // no incoming migration waiting
	statusData    = "data"      // incoming migration data attached
	statusOK      = "ok"        // generic success
	statusDone    = "done"      // DONE confirmation received
	statusWaiting = "in-flight" // migration not yet confirmed
)

// localRequest is a Library -> Migration Enclave message. Trace carries
// the caller's 16-byte obs.TraceContext (empty when tracing is off) so
// the ME's protocol spans join the library's trace.
type localRequest struct {
	Op    string
	Dest  string
	Body  []byte
	Token []byte
	Trace []byte
}

// localResponse is a Migration Enclave -> Library message. Trace returns
// the context an incoming migration or DONE confirmation traveled with,
// so the restoring library continues the originating trace.
type localResponse struct {
	Status string
	Detail string
	Body   []byte
	Token  []byte
	Trace  []byte
}

func encodeLocalRequest(r *localRequest) ([]byte, error) {
	out := make([]byte, 0, 2+36+len(r.Op)+len(r.Dest)+len(r.Body)+len(r.Token))
	out = wirec.AppendHeader(out, tagLocalRequest, wireVersion)
	out = wirec.AppendString(out, r.Op)
	out = wirec.AppendString(out, r.Dest)
	out = wirec.AppendBytes(out, r.Body)
	out = wirec.AppendBytes(out, r.Token)
	out = wirec.AppendBytes(out, r.Trace)
	return out, nil
}

func decodeLocalRequest(raw []byte) (*localRequest, error) {
	rd := newWireReader(raw)
	if !rd.Header(tagLocalRequest, wireVersion) {
		return nil, rd.errState()
	}
	r := &localRequest{
		Op:    rd.String(),
		Dest:  rd.String(),
		Body:  rd.Bytes(),
		Token: rd.Bytes(),
		Trace: rd.Bytes(),
	}
	if err := rd.done(); err != nil {
		return nil, err
	}
	return r, nil
}

func encodeLocalResponse(r *localResponse) ([]byte, error) {
	out := make([]byte, 0, 2+36+len(r.Status)+len(r.Detail)+len(r.Body)+len(r.Token))
	out = wirec.AppendHeader(out, tagLocalResponse, wireVersion)
	out = wirec.AppendString(out, r.Status)
	out = wirec.AppendString(out, r.Detail)
	out = wirec.AppendBytes(out, r.Body)
	out = wirec.AppendBytes(out, r.Token)
	out = wirec.AppendBytes(out, r.Trace)
	return out, nil
}

func decodeLocalResponse(raw []byte) (*localResponse, error) {
	rd := newWireReader(raw)
	if !rd.Header(tagLocalResponse, wireVersion) {
		return nil, rd.errState()
	}
	r := &localResponse{
		Status: rd.String(),
		Detail: rd.String(),
		Body:   rd.Bytes(),
		Token:  rd.Bytes(),
		Trace:  rd.Bytes(),
	}
	if err := rd.done(); err != nil {
		return nil, err
	}
	return r, nil
}

// Network message kinds between Migration Enclaves: Fig. 2's attest /
// data / DONE arrows, plus the authenticated abort of a stream that ends
// short. The paper's single migration is a stream of one (batchwire.go
// holds the message layouts).
const (
	kindOffer = "migrate-offer" // full mutual attestation, or resume of a cached session
	kindData  = "migrate-data"  // one sealed stream frame, answered by the cumulative ack
	kindDone  = "migrate-done"  // DONE confirmations, one token or many
	kindAbort = "migrate-abort" // sender ends a stream whose members were not all acked
)

// transcriptContext labels the remote-attestation transcript binding.
const transcriptContext = "me-remote-attestation"

// wireQuote is the wire-transportable form of attest.Quote.
type wireQuote struct {
	MREnclave sgx.Measurement
	MRSigner  sgx.Measurement
	Data      []byte
	Cert      []byte
	Signature []byte
}

// appendQuote encodes a quote inline (within an already-tagged message).
func appendQuote(dst []byte, q *wireQuote) []byte {
	dst = append(dst, q.MREnclave[:]...)
	dst = append(dst, q.MRSigner[:]...)
	dst = wirec.AppendBytes(dst, q.Data)
	dst = wirec.AppendBytes(dst, q.Cert)
	return wirec.AppendBytes(dst, q.Signature)
}

// quote decodes an inline quote from the reader's cursor.
func (r *wireReader) quote() *wireQuote {
	var q wireQuote
	copy(q.MREnclave[:], r.Take(len(q.MREnclave)))
	copy(q.MRSigner[:], r.Take(len(q.MRSigner)))
	q.Data = r.Bytes()
	q.Cert = r.Bytes()
	q.Signature = r.Bytes()
	if r.errState() != nil {
		return nil
	}
	return &q
}

// certToWire serializes a certificate for embedding in protocol messages.
func certToWire(c *xcrypto.Certificate) ([]byte, error) {
	if c == nil {
		return nil, fmt.Errorf("%w: missing certificate", ErrDataFormat)
	}
	return c.Encode()
}

// certFromWire parses an embedded certificate.
func certFromWire(raw []byte) (*xcrypto.Certificate, error) {
	return xcrypto.DecodeCertificate(raw)
}
