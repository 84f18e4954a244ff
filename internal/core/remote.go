package core

import (
	"errors"
	"fmt"

	"repro/internal/attest"
	"repro/internal/obs"
	"repro/internal/sgx"
	"repro/internal/transport"
)

// quoteToWire converts an attest.Quote to its wire form (inlined into
// the offer and its reply by appendQuote).
func quoteToWire(q *attest.Quote) (*wireQuote, error) {
	cert, err := certToWire(q.PlatformCert)
	if err != nil {
		return nil, err
	}
	return &wireQuote{
		MREnclave: q.MREnclave,
		MRSigner:  q.MRSigner,
		Data:      q.Data[:],
		Cert:      cert,
		Signature: q.Signature,
	}, nil
}

// quoteFromWire reconstructs an attest.Quote from its wire form.
func quoteFromWire(w *wireQuote) (*attest.Quote, error) {
	if w == nil || len(w.Data) != sgx.ReportDataSize {
		return nil, fmt.Errorf("%w: bad quote", ErrDataFormat)
	}
	cert, err := certFromWire(w.Cert)
	if err != nil {
		return nil, err
	}
	q := &attest.Quote{
		MREnclave:    w.MREnclave,
		MRSigner:     w.MRSigner,
		PlatformCert: cert,
		Signature:    w.Signature,
	}
	copy(q.Data[:], w.Data)
	return q, nil
}

// streamOne runs the source side of Fig. 2 for one held record: attest
// (or resume the attested session), data, and the delivery ack — a stream
// of one member. StartMigration, RetryOutgoing and Redirect all send
// through it; on any error the record stays held at this ME (§V-D).
func (me *MigrationEnclave) streamOne(token []byte, dest transport.Address, tc obs.TraceContext) error {
	bs, err := me.beginStream(dest, 1, BatchOpts{Trace: tc})
	if err != nil {
		return err
	}
	addErr := bs.Add(0, token)
	statuses, err := bs.Finish()
	if addErr != nil {
		return addErr
	}
	if err != nil {
		return err
	}
	st, acked := statuses[0]
	switch {
	case !acked:
		return errors.New("core: migration not acknowledged by destination")
	case !st.OK:
		return fmt.Errorf("destination rejected migration: %s", st.Detail)
	}
	return nil
}

// handleSpans names the destination-side span of each ME↔ME message
// kind; a kind the protocol does not know records no span.
var handleSpans = map[string]*obs.SpanDesc{
	kindOffer: obs.SpanMEHandleOffer,
	kindData:  obs.SpanMEHandleData,
	kindDone:  obs.SpanMEHandleDone,
	kindAbort: obs.SpanMEHandleAbort,
}

// handleNetwork is the ME's untrusted-network entry point.
func (me *MigrationEnclave) handleNetwork(msg transport.Message) ([]byte, error) {
	if err := me.enclave.ECall(); err != nil {
		return nil, err
	}
	sp, _ := me.observer().StartSpan(handleSpans[msg.Kind], msg.Trace)
	if sp != nil {
		sp.Site = string(me.addr)
		defer sp.End()
	}
	switch msg.Kind {
	case kindOffer:
		return me.handleBatchOffer(msg.Payload)
	case kindData:
		return me.handleBatchChunk(msg.Payload)
	case kindAbort:
		return me.handleBatchAbort(msg.Payload)
	case kindDone:
		return me.handleBatchDone(msg.Payload)
	default:
		return nil, fmt.Errorf("core: unknown message kind %q", msg.Kind)
	}
}
