package core

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/pse"
	"repro/internal/sgx"
)

// maxFieldLen keeps generated variable-length fields near the decoder's
// interesting boundaries without making the test slow.
const maxFieldLen = 1 << 12

func TestLocalRequestRoundTrip(t *testing.T) {
	cases := []localRequest{
		{},
		{Op: opMigrateOut, Dest: "machine-b/me", Body: []byte{1, 2, 3}, Token: []byte{9}},
		{Op: strings.Repeat("o", maxFieldLen), Dest: strings.Repeat("d", maxFieldLen),
			Body: bytes.Repeat([]byte{0xAB}, maxFieldLen), Token: bytes.Repeat([]byte{0xCD}, maxFieldLen)},
	}
	for i, in := range cases {
		raw, err := encodeLocalRequest(&in)
		if err != nil {
			t.Fatalf("case %d encode: %v", i, err)
		}
		out, err := decodeLocalRequest(raw)
		if err != nil {
			t.Fatalf("case %d decode: %v", i, err)
		}
		if !reflect.DeepEqual(&in, out) {
			t.Fatalf("case %d mismatch:\n in=%+v\nout=%+v", i, in, *out)
		}
	}
}

func TestLocalRequestRoundTripProperty(t *testing.T) {
	f := func(op, dest string, body, token []byte) bool {
		in := localRequest{Op: op, Dest: dest, Body: body, Token: token}
		raw, err := encodeLocalRequest(&in)
		if err != nil {
			return false
		}
		out, err := decodeLocalRequest(raw)
		if err != nil {
			return false
		}
		return in.Op == out.Op && in.Dest == out.Dest &&
			bytes.Equal(in.Body, out.Body) && bytes.Equal(in.Token, out.Token)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalResponseRoundTripProperty(t *testing.T) {
	f := func(status, detail string, body, token []byte) bool {
		in := localResponse{Status: status, Detail: detail, Body: body, Token: token}
		raw, err := encodeLocalResponse(&in)
		if err != nil {
			return false
		}
		out, err := decodeLocalResponse(raw)
		if err != nil {
			return false
		}
		return in.Status == out.Status && in.Detail == out.Detail &&
			bytes.Equal(in.Body, out.Body) && bytes.Equal(in.Token, out.Token)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// fullMigrationData builds the boundary case: all 256 counters active
// with extreme values.
func fullMigrationData() *MigrationData {
	var d MigrationData
	for i := range d.CountersActive {
		d.CountersActive[i] = true
		d.CounterValues[i] = math.MaxUint32 - uint32(i)
	}
	for i := range d.MSK {
		d.MSK[i] = byte(0xF0 | i)
	}
	return &d
}

func TestMigrationDataRoundTrip(t *testing.T) {
	cases := []*MigrationData{
		{}, // empty: no counters, zero MSK
		fullMigrationData(),
	}
	// Sparse pattern.
	sparse := &MigrationData{}
	sparse.CountersActive[0] = true
	sparse.CounterValues[0] = 1
	sparse.CountersActive[NumCounters-1] = true
	sparse.CounterValues[NumCounters-1] = math.MaxUint32
	cases = append(cases, sparse)

	for i, in := range cases {
		raw, err := in.Encode()
		if err != nil {
			t.Fatalf("case %d encode: %v", i, err)
		}
		if len(raw) != migrationDataSize {
			t.Fatalf("case %d: encoded %d bytes, want fixed %d", i, len(raw), migrationDataSize)
		}
		out, err := DecodeMigrationData(raw)
		if err != nil {
			t.Fatalf("case %d decode: %v", i, err)
		}
		if *in != *out {
			t.Fatalf("case %d mismatch", i)
		}
	}
}

func TestLibraryStateRoundTrip(t *testing.T) {
	full := &libraryState{Frozen: 1}
	for i := 0; i < NumCounters; i++ {
		full.CountersActive[i] = i%3 != 0
		full.CounterUUIDs[i] = pse.UUID{ID: uint32(i) * 7}
		for j := range full.CounterUUIDs[i].Nonce {
			full.CounterUUIDs[i].Nonce[j] = byte(i + j)
		}
		full.CounterOffsets[i] = math.MaxUint32 - uint32(i)
	}
	for i := range full.MSK {
		full.MSK[i] = byte(i)
	}
	for i, in := range []*libraryState{{}, full} {
		raw, err := in.encode()
		if err != nil {
			t.Fatalf("case %d encode: %v", i, err)
		}
		if len(raw) != libraryStateSize {
			t.Fatalf("case %d: encoded %d bytes, want fixed %d", i, len(raw), libraryStateSize)
		}
		out, err := decodeLibraryState(raw)
		if err != nil {
			t.Fatalf("case %d decode: %v", i, err)
		}
		if *in != *out {
			t.Fatalf("case %d mismatch", i)
		}
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	var mr sgx.Measurement
	for i := range mr {
		mr[i] = byte(255 - i)
	}
	cases := []*migrationEnvelope{
		{Data: &MigrationData{}},
		{Data: fullMigrationData(), MREnclave: mr,
			SourceME: strings.Repeat("src", 1000), DoneToken: bytes.Repeat([]byte{7}, maxFieldLen)},
	}
	for i, in := range cases {
		raw, err := in.encode()
		if err != nil {
			t.Fatalf("case %d encode: %v", i, err)
		}
		out, err := decodeEnvelope(raw)
		if err != nil {
			t.Fatalf("case %d decode: %v", i, err)
		}
		if *in.Data != *out.Data || in.MREnclave != out.MREnclave ||
			in.SourceME != out.SourceME || !bytes.Equal(in.DoneToken, out.DoneToken) {
			t.Fatalf("case %d mismatch", i)
		}
	}
	// An envelope without data must refuse to encode.
	if _, err := (&migrationEnvelope{}).encode(); !errors.Is(err, ErrDataFormat) {
		t.Fatalf("nil-data envelope encoded: %v", err)
	}
}

func TestProtocolMessageRoundTrips(t *testing.T) {
	quote := &wireQuote{
		Data:      bytes.Repeat([]byte{1}, 64),
		Cert:      []byte("cert-bytes"),
		Signature: []byte("sig-bytes"),
	}
	for i := range quote.MREnclave {
		quote.MREnclave[i] = byte(i)
		quote.MRSigner[i] = byte(i * 2)
	}

	// migrate-offer, both forms: a fresh handshake and a session resume.
	for _, offer := range []*batchOffer{
		{Count: 1, Quote: quote, DHPub: []byte("dh-a")},
		{Count: 64, Resume: &resumeTicket{SessionID: []byte("sid"), Epoch: []byte("epoch"),
			Counter: 9, Count: 64, MAC: bytes.Repeat([]byte{7}, 32)}},
	} {
		raw, err := encodeBatchOffer(offer)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeBatchOffer(raw)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(offer, got) {
			t.Fatalf("offer mismatch:\n in=%+v\nout=%+v", offer, got)
		}
	}

	// Its reply: handshake completion, resume confirmation, refusal.
	for _, reply := range []*batchOfferReply{
		{BatchID: []byte("b1"), SessionID: []byte("s1"), Epoch: []byte("e1"),
			Quote: quote, DHPub: []byte("dh-b"), Cert: []byte("c"), Sig: []byte("s")},
		{Resumed: true, BatchID: []byte("b2"), ConfirmMAC: bytes.Repeat([]byte{2}, 32)},
		{Refused: true, RefuseMAC: bytes.Repeat([]byte{3}, 32)},
	} {
		raw, err := encodeBatchOfferReply(reply)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeBatchOfferReply(raw)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reply, got) {
			t.Fatalf("offer reply mismatch:\n in=%+v\nout=%+v", reply, got)
		}
	}

	// migrate-data: a sealed frame, frame 0 of a fresh stream carrying the
	// source's provider authentication.
	data := &batchChunk{BatchID: []byte("b1"), Seq: 0, Cert: []byte("c2"), Sig: []byte("s2"),
		Sealed: bytes.Repeat([]byte{0xEE}, maxFieldLen)}
	rawData, err := encodeBatchChunk(data)
	if err != nil {
		t.Fatal(err)
	}
	gotData, err := decodeBatchChunk(rawData)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(data, gotData) {
		t.Fatalf("data message mismatch")
	}

	// migrate-done: one token (Fig. 2) or many.
	for _, done := range []*batchDoneMessage{
		{Tokens: [][]byte{[]byte("tok")}},
		{Tokens: [][]byte{[]byte("tok-a"), []byte("tok-b"), []byte("tok-c")}},
	} {
		raw, err := encodeBatchDoneMessage(done)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeBatchDoneMessage(raw)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(done, got) {
			t.Fatalf("done message mismatch")
		}
	}

	// migrate-abort.
	abort := &batchAbort{BatchID: []byte("b1"), Sealed: []byte("sealed-label")}
	rawAbort, err := encodeBatchAbort(abort)
	if err != nil {
		t.Fatal(err)
	}
	gotAbort, err := decodeBatchAbort(rawAbort)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(abort, gotAbort) {
		t.Fatalf("abort message mismatch")
	}
}

// TestDecodersRejectWrongTagAndVersion pins the versioned-header behavior:
// a value of one type never decodes as another, and a bumped format
// version is rejected cleanly.
func TestDecodersRejectWrongTagAndVersion(t *testing.T) {
	raw, err := encodeLocalRequest(&localRequest{Op: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeLocalResponse(raw); !errors.Is(err, ErrDataFormat) {
		t.Fatalf("cross-type decode: %v", err)
	}
	bumped := append([]byte(nil), raw...)
	bumped[1] = wireVersion + 1
	if _, err := decodeLocalRequest(bumped); !errors.Is(err, ErrDataFormat) {
		t.Fatalf("future version accepted: %v", err)
	}
	if _, err := decodeLocalRequest(nil); !errors.Is(err, ErrDataFormat) {
		t.Fatalf("empty input: %v", err)
	}
	// Trailing bytes are rejected, not ignored.
	if _, err := decodeLocalRequest(append(append([]byte(nil), raw...), 0)); !errors.Is(err, ErrDataFormat) {
		t.Fatalf("trailing bytes accepted: %v", err)
	}
	// Truncations at every length are rejected without panicking.
	env, err := (&migrationEnvelope{Data: fullMigrationData(), SourceME: "s", DoneToken: []byte("t")}).encode()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(env); cut += 37 {
		if _, err := decodeEnvelope(env[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}
