package wirec

import (
	"bytes"
	"errors"
	"testing"
)

// sample is one value of every field kind: header, u8, u32, u64, bytes,
// string, empty bytes.
func sample() []byte {
	out := AppendHeader(nil, 0xA1, 3)
	out = append(out, 7)
	out = AppendU32(out, 0xDEADBEEF)
	out = AppendU64(out, 1<<40+5)
	out = AppendBytes(out, []byte("payload"))
	out = AppendString(out, "name")
	return AppendBytes(out, nil)
}

func TestRoundTrip(t *testing.T) {
	rd := NewReader(sample())
	if !rd.Header(0xA1, 3) {
		t.Fatalf("header refused: %v", rd.Err())
	}
	if got := rd.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if got := rd.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %x", got)
	}
	if got := rd.U64(); got != 1<<40+5 {
		t.Errorf("U64 = %d", got)
	}
	if got := rd.Bytes(); !bytes.Equal(got, []byte("payload")) {
		t.Errorf("Bytes = %q", got)
	}
	if got := rd.String(); got != "name" {
		t.Errorf("String = %q", got)
	}
	if got := rd.Bytes(); got != nil {
		t.Errorf("empty field decoded as %v, want nil", got)
	}
	if err := rd.Done(); err != nil {
		t.Errorf("Done = %v", err)
	}
}

func TestReaderRefusals(t *testing.T) {
	huge := AppendU32(nil, MaxField+1)
	cases := []struct {
		name string
		raw  []byte
		read func(*Reader)
	}{
		{"header on empty input", nil, func(r *Reader) { r.Header(0xA1, 3) }},
		{"wrong tag", sample(), func(r *Reader) { r.Header(0xA2, 3) }},
		{"wrong version", sample(), func(r *Reader) { r.Header(0xA1, 4) }},
		{"short u64", []byte{1, 2, 3}, func(r *Reader) { r.U64() }},
		{"negative take", []byte{1}, func(r *Reader) { r.Take(-1) }},
		{"field longer than the input", AppendU32(nil, 9), func(r *Reader) { r.Bytes() }},
		{"field over MaxField", append(huge, make([]byte, 16)...), func(r *Reader) { r.Bytes() }},
		{"trailing bytes", append(AppendU32(nil, 1), 0xFF), func(r *Reader) { r.U32() }},
	}
	for _, c := range cases {
		rd := NewReader(c.raw)
		c.read(rd)
		if err := rd.Done(); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: Done = %v, want ErrFormat", c.name, err)
		}
	}
}

// TestErrorSticks: after the first failure every read returns zero
// values, consumes nothing, and the first error is the one reported.
func TestErrorSticks(t *testing.T) {
	rd := NewReader(sample())
	rd.Header(0xEE, 3)
	first := rd.Err()
	if first == nil {
		t.Fatal("wrong tag accepted")
	}
	before := rd.Remaining()
	if rd.Header(0xA1, 3) || rd.U8() != 0 || rd.U32() != 0 || rd.U64() != 0 || rd.Bytes() != nil || rd.String() != "" {
		t.Error("reads after a failure returned data")
	}
	if rd.Remaining() != before {
		t.Errorf("reads after a failure consumed %d bytes", before-rd.Remaining())
	}
	if rd.Err() != first || rd.Done() != first {
		t.Errorf("error replaced: %v then %v", first, rd.Err())
	}
}

func TestCanHold(t *testing.T) {
	rd := NewReader(make([]byte, 100))
	for _, c := range []struct {
		n    uint32
		size int
		want bool
	}{
		{0, 8, true},
		{12, 8, true},
		{13, 8, false},
		{1 << 31, 1 << 30, false}, // the product overflows 32 bits, not the check
		{^uint32(0), 1, false},
		{1, 0, false}, // a zero entry size would admit any count
		{1, -4, false},
	} {
		if got := rd.CanHold(c.n, c.size); got != c.want {
			t.Errorf("CanHold(%d, %d) over 100 bytes = %v, want %v", c.n, c.size, got, c.want)
		}
	}
}

// FuzzReader drives every read the fuzzer's opcodes select over
// arbitrary input: no sequence may panic, read past the input, or clear
// the sticky error.
func FuzzReader(f *testing.F) {
	f.Add(sample(), []byte{0, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}, []byte{4, 4})
	f.Fuzz(func(t *testing.T, raw, ops []byte) {
		rd := MakeReader(raw)
		var failed error
		for _, op := range ops {
			before := rd.Remaining()
			switch op % 8 {
			case 0:
				rd.Header(0xA1, 3)
			case 1:
				rd.U8()
			case 2:
				rd.U32()
			case 3:
				rd.U64()
			case 4:
				rd.Bytes()
			case 5:
				_ = rd.String()
			case 6:
				rd.Take(int(int8(op)))
			case 7:
				rd.CanHold(uint32(op)<<24, int(op))
			}
			if rd.Remaining() > before {
				t.Fatalf("op %d grew the input from %d to %d", op, before, rd.Remaining())
			}
			if failed != nil && rd.Err() != failed {
				t.Fatalf("sticky error replaced: %v then %v", failed, rd.Err())
			}
			failed = rd.Err()
		}
	})
}
