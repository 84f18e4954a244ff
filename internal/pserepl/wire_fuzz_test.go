package pserepl

import (
	"bytes"
	"errors"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/pse"
	"repro/internal/sgx"
)

// Fuzz harnesses for the replication decoders, matching the
// internal/core/codec_fuzz_test.go pattern: every decoder that consumes
// bytes from the untrusted network either returns an error or a value
// that re-encodes and decodes consistently — it must never panic,
// whatever the wire bytes. Seed corpora live in testdata/fuzz/<FuzzName>/
// plus the valid encodings added here.

func fuzzSeeds(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xC1})
	f.Add([]byte{0xC1, 0x01})
	f.Add([]byte{0xC3, 0x01, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
}

func sampleOp() *opMessage {
	m := &opMessage{Op: opAdvance, N: 3}
	m.UUID = pse.UUID{ID: 7, Nonce: [16]byte{1, 2, 3, 4}}
	m.Owner = sgx.Measurement{9, 9, 9}
	return m
}

func FuzzDecodeOpMessage(f *testing.F) {
	fuzzSeeds(f)
	f.Add(sampleOp().encode())
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := decodeOpMessage(raw)
		if err != nil {
			return
		}
		re := m.encode()
		// The format is fixed-width, so a successful decode must
		// re-encode to the identical bytes.
		if !bytes.Equal(raw, re) {
			t.Fatal("canonical re-encoding differs from accepted input")
		}
	})
}

// TestStaleRelativeIncrementRejected pins the checked-in seed that holds
// sampleOp as a version-2 coordinator encoded it, when op 2 was a relative
// "+N" (opIncrement, since deleted): the decoder refuses it by version, so
// a stale coordinator's increment can never be taken for another op.
func TestStaleRelativeIncrementRejected(t *testing.T) {
	seed, err := os.ReadFile("testdata/fuzz/FuzzDecodeOpMessage/seed-v2-relative-increment")
	if err != nil {
		t.Fatal(err)
	}
	_, lit, _ := strings.Cut(strings.TrimSpace(string(seed)), "\n")
	quoted := strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")")
	str, err := strconv.Unquote(quoted)
	if err != nil {
		t.Fatalf("seed is not a go-fuzz []byte literal: %v", err)
	}
	raw := []byte(str)
	if len(raw) != opMessageSize || raw[0] != tagOp || raw[1] != 2 || raw[2] != 2 {
		t.Fatalf("seed is not a version-2 op-2 message: % x", raw[:3])
	}
	if _, err := decodeOpMessage(raw); !errors.Is(err, ErrWireFormat) {
		t.Fatalf("version-2 relative increment: err = %v, want ErrWireFormat", err)
	}
}

func FuzzDecodeOpReply(f *testing.F) {
	fuzzSeeds(f)
	f.Add((&opReply{Status: statusOK, Value: 42}).encode())
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := decodeOpReply(raw)
		if err != nil {
			return
		}
		if !bytes.Equal(raw, m.encode()) {
			t.Fatal("canonical re-encoding differs from accepted input")
		}
	})
}

func FuzzDecodeSyncMessage(f *testing.F) {
	fuzzSeeds(f)
	valid := &syncMessage{
		Entries: []syncEntry{
			{UUID: pse.UUID{ID: 1, Nonce: [16]byte{5}}, Owner: sgx.Measurement{7}, Value: 11},
			{UUID: pse.UUID{ID: 4}, Value: 2},
		},
		Tombstones: []uint32{2, 3},
		Escrows:    []escrowEntry{sampleEscrowEntry()},
	}
	f.Add(valid.encode())
	f.Add((&syncMessage{}).encode())
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := decodeSyncMessage(raw)
		if err != nil {
			return
		}
		re := m.encode()
		if !bytes.Equal(raw, re) {
			t.Fatal("canonical re-encoding differs from accepted input")
		}
		m2, err := decodeSyncMessage(re)
		if err != nil {
			t.Fatalf("re-encoded value does not decode: %v", err)
		}
		if len(m2.Entries) != len(m.Entries) || len(m2.Tombstones) != len(m.Tombstones) {
			t.Fatal("round trip mismatch")
		}
	})
}

func sampleEscrowEntry() escrowEntry {
	return escrowEntry{
		Owner:   sgx.Measurement{3, 1, 4},
		ID:      [16]byte{1, 5, 9},
		Version: 7,
		Bind:    pse.UUID{ID: 12, Nonce: [16]byte{2, 6}},
		Blob:    []byte("sealed escrow record bytes"),
	}
}

func FuzzDecodeEscrowMessage(f *testing.F) {
	fuzzSeeds(f)
	f.Add((&escrowMessage{Op: escrowPut, Entry: sampleEscrowEntry(), Nonce: 99}).encode())
	f.Add((&escrowMessage{Op: escrowGet, Entry: escrowEntry{Owner: sgx.Measurement{1}, ID: [16]byte{2}}, Nonce: 1}).encode())
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := decodeEscrowMessage(raw)
		if err != nil {
			return
		}
		re := m.encode()
		if !bytes.Equal(raw, re) {
			t.Fatal("canonical re-encoding differs from accepted input")
		}
	})
}

func FuzzDecodeEscrowReply(f *testing.F) {
	fuzzSeeds(f)
	f.Add((&escrowReply{Status: statusOK, Entry: sampleEscrowEntry(), Nonce: 4}).encode())
	f.Add((&escrowReply{Status: statusStale, Nonce: 2}).encode())
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := decodeEscrowReply(raw)
		if err != nil {
			return
		}
		if !bytes.Equal(raw, m.encode()) {
			t.Fatal("canonical re-encoding differs from accepted input")
		}
	})
}
