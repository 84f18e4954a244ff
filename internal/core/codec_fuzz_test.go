package core

import (
	"bytes"
	"testing"
)

// Fuzz harnesses for every binary decoder that consumes bytes from the
// untrusted OS or network. The invariant under fuzzing is uniform: a
// decoder either returns an error or a value that re-encodes and decodes
// consistently — it must never panic, whatever the wire bytes.
//
// Seed corpora live in testdata/fuzz/<FuzzName>/ plus the valid
// encodings added here, so `go test` replays them as regression inputs
// and `go test -fuzz` starts from realistic shapes.

func fuzzSeeds(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xA1})
	f.Add([]byte{0xA1, 0x01})
	f.Add([]byte{0xA1, 0xFF, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	// A length prefix claiming far more data than present.
	f.Add([]byte{0xA3, 0x01, 0xFF, 0xFF, 0xFF, 0xFF})
}

func FuzzDecodeLocalRequest(f *testing.F) {
	fuzzSeeds(f)
	valid, _ := encodeLocalRequest(&localRequest{Op: opMigrateOut, Dest: "m/me", Body: []byte("b"), Token: []byte("t")})
	f.Add(valid)
	f.Fuzz(func(t *testing.T, raw []byte) {
		r, err := decodeLocalRequest(raw)
		if err != nil {
			return
		}
		re, err := encodeLocalRequest(r)
		if err != nil {
			t.Fatalf("decoded value does not re-encode: %v", err)
		}
		r2, err := decodeLocalRequest(re)
		if err != nil {
			t.Fatalf("re-encoded value does not decode: %v", err)
		}
		if r.Op != r2.Op || r.Dest != r2.Dest || !bytes.Equal(r.Body, r2.Body) || !bytes.Equal(r.Token, r2.Token) {
			t.Fatal("re-encode round trip mismatch")
		}
	})
}

func FuzzDecodeLocalResponse(f *testing.F) {
	fuzzSeeds(f)
	valid, _ := encodeLocalResponse(&localResponse{Status: statusData, Body: []byte("payload")})
	f.Add(valid)
	f.Fuzz(func(t *testing.T, raw []byte) {
		r, err := decodeLocalResponse(raw)
		if err != nil {
			return
		}
		if _, err := encodeLocalResponse(r); err != nil {
			t.Fatalf("decoded value does not re-encode: %v", err)
		}
	})
}

func FuzzDecodeMigrationData(f *testing.F) {
	fuzzSeeds(f)
	valid, _ := fullMigrationData().Encode()
	f.Add(valid)
	f.Fuzz(func(t *testing.T, raw []byte) {
		d, err := DecodeMigrationData(raw)
		if err != nil {
			return
		}
		re, err := d.Encode()
		if err != nil {
			t.Fatalf("decoded value does not re-encode: %v", err)
		}
		// The format is fixed-width, so a successful decode must
		// re-encode to the identical bytes.
		if !bytes.Equal(raw, re) {
			t.Fatal("canonical re-encoding differs from accepted input")
		}
	})
}

func FuzzDecodeLibraryState(f *testing.F) {
	fuzzSeeds(f)
	valid, _ := (&libraryState{Frozen: 1}).encode()
	f.Add(valid)
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := decodeLibraryState(raw)
		if err != nil {
			return
		}
		re, err := s.encode()
		if err != nil {
			t.Fatalf("decoded value does not re-encode: %v", err)
		}
		if !bytes.Equal(raw, re) {
			t.Fatal("canonical re-encoding differs from accepted input")
		}
	})
}

func FuzzDecodeEnvelope(f *testing.F) {
	fuzzSeeds(f)
	valid, _ := (&migrationEnvelope{Data: fullMigrationData(), SourceME: "src/me", DoneToken: []byte("tok")}).encode()
	f.Add(valid)
	f.Fuzz(func(t *testing.T, raw []byte) {
		e, err := decodeEnvelope(raw)
		if err != nil {
			return
		}
		if e.Data == nil {
			t.Fatal("decoded envelope with nil data")
		}
		if _, err := e.encode(); err != nil {
			t.Fatalf("decoded value does not re-encode: %v", err)
		}
	})
}

// FuzzDecodeProtocolMessages feeds one input to every ME<->ME message
// decoder at once (each also has its own target in batch_fuzz_test.go).
// Beyond never panicking, at most one of them may accept it: the four
// kinds and their replies are told apart by tag, so bytes meant for one
// handler can never be taken for a well-formed message of another.
func FuzzDecodeProtocolMessages(f *testing.F) {
	fuzzSeeds(f)
	if off, err := encodeBatchOffer(&batchOffer{Count: 1, Quote: fuzzTestQuote(), DHPub: []byte("p")}); err == nil {
		f.Add(off)
	}
	if rep, err := encodeBatchOfferReply(&batchOfferReply{BatchID: []byte("b"), SessionID: []byte("s"), Quote: fuzzTestQuote(), DHPub: []byte("p")}); err == nil {
		f.Add(rep)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		accepted := 0
		if m, err := decodeBatchOffer(raw); err == nil {
			accepted++
			if (m.Quote == nil) == (m.Resume == nil) {
				t.Fatal("offer decoded with neither or both of quote and resume ticket")
			}
		}
		if _, err := decodeBatchOfferReply(raw); err == nil {
			accepted++
		}
		if _, err := decodeBatchChunk(raw); err == nil {
			accepted++
		}
		if _, err := decodeBatchStatusList(raw); err == nil {
			accepted++
		}
		if _, err := decodeBatchDoneMessage(raw); err == nil {
			accepted++
		}
		if _, err := decodeBatchAbort(raw); err == nil {
			accepted++
		}
		if accepted > 1 {
			t.Fatalf("%d decoders accepted the same bytes", accepted)
		}
	})
}

func FuzzDecodeEscrowRecord(f *testing.F) {
	fuzzSeeds(f)
	f.Add(encodeEscrowRecord([]byte("wrapped-msk"), []byte("sealed-table-ii-state")))
	f.Add(encodeEscrowRecord(nil, nil))
	f.Fuzz(func(t *testing.T, raw []byte) {
		keyBox, state, err := decodeEscrowRecord(raw)
		if err != nil {
			return
		}
		// An accepted record re-frames to the identical bytes.
		if re := encodeEscrowRecord(keyBox, state); !bytes.Equal(raw, re) {
			t.Fatal("canonical re-encoding differs from accepted input")
		}
	})
}
