package core

import (
	"fmt"

	"repro/internal/wirec"
)

// Compact length-prefixed binary codec for the framework's own data
// structures, in the style of seal.Blob. Every encoded value starts with a
// one-byte type tag and a one-byte format version, so a blob from a
// different structure — or from an older library version — is rejected
// cleanly with ErrDataFormat instead of being misparsed.
//
// This replaces the encoding/json codecs: the Table I/II structures are
// dominated by fixed-width arrays (256 bools, 256 uint32 counters, 256
// UUIDs) that JSON renders as thousands of array elements, making encode/
// decode the most expensive step of every library persist and migration
// envelope. The binary forms are a bitmap plus fixed-width words.
//
// The framing primitives (headers, length-prefixed fields, fixed-width
// words, and the length-bomb defenses) are the shared internal/wirec
// ones, also used by the pserepl replication and fleet journal codecs;
// this file adds only core's tags, version, and the bitmap form, and
// re-roots decoder errors under ErrDataFormat.

// Wire type tags.
const (
	tagLocalRequest  byte = 0xA1
	tagLocalResponse byte = 0xA2
	tagMigrationData byte = 0xA3
	tagLibraryState  byte = 0xA4
	tagEnvelope      byte = 0xA5
	tagEscrowRecord  byte = 0xA6
	tagBatchOffer    byte = 0xB5
	tagBatchReply    byte = 0xB6
	tagBatchChunk    byte = 0xB7
	tagBatchStatus   byte = 0xB8
	tagBatchDone     byte = 0xB9
	tagBatchRecord   byte = 0xBA
	tagBatchAbort    byte = 0xBB
)

// wireVersion is the current format version, bumped on any layout change
// so stale sealed blobs and envelopes fail decoding instead of aliasing.
const wireVersion byte = 1

// appendBitmap packs a bool array into bytes, LSB-first within each byte.
func appendBitmap(dst []byte, bits *[NumCounters]bool) []byte {
	var packed [NumCounters / 8]byte
	for i, b := range bits {
		if b {
			packed[i/8] |= 1 << (i % 8)
		}
	}
	return append(dst, packed[:]...)
}

// wireReader is a cursor over one encoded value: the shared wirec.Reader
// plus core's bitmap form and ErrDataFormat error rooting. The first
// decoding error sticks; callers check err once at the end (and fail
// fast on header mismatch). All byte-slice reads alias the input buffer.
type wireReader struct {
	wirec.Reader
}

// newWireReader wraps raw wire bytes.
func newWireReader(raw []byte) wireReader {
	return wireReader{wirec.MakeReader(raw)}
}

// errState reports the sticky decoding error re-rooted under
// ErrDataFormat (nil if none).
func (r *wireReader) errState() error {
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrDataFormat, err)
	}
	return nil
}

// bitmap consumes a packed bool array.
func (r *wireReader) bitmap(bits *[NumCounters]bool) {
	packed := r.Take(NumCounters / 8)
	if packed == nil {
		return
	}
	for i := range bits {
		bits[i] = packed[i/8]&(1<<(i%8)) != 0
	}
}

// done asserts the value was consumed exactly and returns the final error.
func (r *wireReader) done() error {
	if err := r.Done(); err != nil {
		return fmt.Errorf("%w: %v", ErrDataFormat, err)
	}
	return nil
}
