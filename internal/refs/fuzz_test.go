package refs

import (
	"encoding/binary"
	"slices"
	"testing"
)

// fuzzRefBytes is the size of one reference in FuzzRecordedRoundTrip's
// input: an 8-byte address, a 4-byte instruction count and a write byte.
const fuzzRefBytes = 13

// fuzzStream turns fuzz bytes into a stream: the first 8 bytes (fewer, zero
// extended, in a short input) are the tail, and every following 13 bytes are
// one reference, all little-endian.  A count above MaxInstrs is clamped to
// it, so every input is a stream NewRecorded accepts; a trailing partial
// reference is ignored.
func fuzzStream(data []byte) ([]Ref, int64) {
	var head [8]byte
	copy(head[:], data)
	tail := int64(binary.LittleEndian.Uint64(head[:]))
	data = data[min(len(data), 8):]
	rs := make([]Ref, 0, len(data)/fuzzRefBytes)
	for ; len(data) >= fuzzRefBytes; data = data[fuzzRefBytes:] {
		rs = append(rs, Ref{
			Addr:   binary.LittleEndian.Uint64(data),
			Instrs: min(binary.LittleEndian.Uint32(data[8:]), MaxInstrs),
			Write:  data[12]&1 != 0,
		})
	}
	return rs, tail
}

// FuzzRecordedRoundTrip pins the recording codec on arbitrary streams: a
// recording decodes to exactly the references and tail it was recorded
// from, whichever way it is read, and a store resolves two recordings of
// equal content to one.  The committed corpus under
// testdata/fuzz/FuzzRecordedRoundTrip holds the codec's edge cases: an empty
// stream, addresses 0 and MaxUint64, descending addresses, a 64-bit delta
// next to a MaxInstrs count (the widest field) and all-equal addresses (a
// zero-width delta field).
func FuzzRecordedRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, tail := fuzzStream(data)
		r, err := NewRecorded(rs, tail)
		if err != nil {
			t.Fatal(err)
		}
		if got, gotTail := r.Emit(nil); gotTail != tail || !slices.Equal(got, rs) {
			t.Fatalf("Emit(nil) = %v, %d; want %v, %d", got, gotTail, rs, tail)
		}
		for _, block := range []int{1, 7, 64} {
			if got := drain(r, block); !slices.Equal(got, rs) {
				t.Fatalf("read in blocks of %d: %v, want %v", block, got, rs)
			}
		}
		if r.Len() != int64(len(rs)) || r.Tail() != tail || r.Instrs() != streamInstrs(rs, tail) {
			t.Fatalf("recorded (len %d, tail %d, instrs %d), want (%d, %d, %d)",
				r.Len(), r.Tail(), r.Instrs(), len(rs), tail, streamInstrs(rs, tail))
		}
		if r.Fingerprint() != FingerprintRefs(rs, tail) {
			t.Fatalf("Fingerprint differs from FingerprintRefs of the input")
		}
		twin, err := NewRecorded(slices.Clone(rs), tail)
		if err != nil {
			t.Fatal(err)
		}
		s := NewTraceStore()
		if got := s.Adopt(r); got != r {
			t.Fatalf("Adopt of new content returned %p, want %p", got, r)
		}
		if got := s.Adopt(twin); got != r {
			t.Fatalf("Adopt of an equal recording returned %p, want %p", got, r)
		}
	})
}

// TestEncodingFieldWidths pins the codec's field widths on the shapes the
// fuzz corpus names, and that each stream still decodes exactly: deltas of
// whole lines drop the line's offset bits, a descending scan zigzags its
// negative delta, equal addresses take no delta bits at all, and a 64-bit
// delta next to a MaxInstrs count takes the widest field, 97 bits.
func TestEncodingFieldWidths(t *testing.T) {
	strided := func(base uint64, stride int64, n int, instrs uint32) []Ref {
		rs := make([]Ref, n)
		for i := range rs {
			rs[i] = Ref{Addr: base + uint64(int64(i)*stride), Instrs: instrs, Write: i%2 == 0}
		}
		return rs
	}
	cases := []struct {
		name                string
		rs                  []Ref
		shift, dbits, ibits uint8
	}{
		{"ascending lines", strided(1<<20, 64, 10, 3), 6, 2, 2},
		{"descending lines", strided(1<<20, -128, 10, 1), 7, 1, 1},
		{"equal addresses", strided(0x123456789abc, 0, 20, 0), 0, 0, 0},
		{"widest field", []Ref{{Addr: 0, Instrs: MaxInstrs}, {Addr: 1<<63 | 1, Instrs: MaxInstrs}}, 0, 64, 32},
	}
	for _, c := range cases {
		r, err := NewRecorded(c.rs, 0)
		if err != nil {
			t.Fatal(err)
		}
		rd := r.Reader()
		if rd.shift != c.shift || rd.dbits != c.dbits || rd.ibits != c.ibits {
			t.Errorf("%s: (shift, dbits, ibits) = (%d, %d, %d), want (%d, %d, %d)",
				c.name, rd.shift, rd.dbits, rd.ibits, c.shift, c.dbits, c.ibits)
		}
		if got := drain(r, 3); !slices.Equal(got, c.rs) {
			t.Errorf("%s: decoded %v, want %v", c.name, got, c.rs)
		}
	}
}
