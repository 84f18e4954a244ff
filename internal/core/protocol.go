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

// The request and the reply share one layout: two strings, then the
// body, token and trace fields.
func appendLocal(tag byte, s1, s2 string, body, token, trace []byte) []byte {
	out := make([]byte, 0, 2+36+len(s1)+len(s2)+len(body)+len(token))
	out = wirec.AppendHeader(out, tag, wireVersion)
	out = wirec.AppendString(out, s1)
	out = wirec.AppendString(out, s2)
	out = wirec.AppendBytes(out, body)
	out = wirec.AppendBytes(out, token)
	return wirec.AppendBytes(out, trace)
}

func readLocal(raw []byte, tag byte, s1, s2 *string, body, token, trace *[]byte) error {
	rd := newWireReader(raw)
	if !rd.Header(tag, wireVersion) {
		return rd.errState()
	}
	*s1 = rd.String()
	*s2 = rd.String()
	*body = rd.Bytes()
	*token = rd.Bytes()
	*trace = rd.Bytes()
	return rd.done()
}

func encodeLocalRequest(r *localRequest) ([]byte, error) {
	return appendLocal(tagLocalRequest, r.Op, r.Dest, r.Body, r.Token, r.Trace), nil
}

func decodeLocalRequest(raw []byte) (*localRequest, error) {
	r := &localRequest{}
	if err := readLocal(raw, tagLocalRequest, &r.Op, &r.Dest, &r.Body, &r.Token, &r.Trace); err != nil {
		return nil, err
	}
	return r, nil
}

func encodeLocalResponse(r *localResponse) ([]byte, error) {
	return appendLocal(tagLocalResponse, r.Status, r.Detail, r.Body, r.Token, r.Trace), nil
}

func decodeLocalResponse(raw []byte) (*localResponse, error) {
	r := &localResponse{}
	if err := readLocal(raw, tagLocalResponse, &r.Status, &r.Detail, &r.Body, &r.Token, &r.Trace); err != nil {
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
