package refs

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// A recording's references are stored bit-packed, in one canonical encoding
// that is a pure function of the references, so that equal streams have
// equal bytes.  The encoding is a header followed by the packed body:
//
//	uvarint  n, the number of references
//	byte     shift, the trailing zero bits every address delta shares
//	byte     dbits, the width of a delta field
//	byte     ibits, the width of an instruction count
//	uvarint  the first reference's address
//	body     n fields of dbits+ibits+1 bits, packed little-endian
//	         (the first bit of a field is the lowest unused bit of the
//	         lowest unused byte)
//	padding  9 zero bytes
//
// Reference i's field holds zigzag((Addr[i] - Addr[i-1]) >> shift) in its
// low dbits bits (the delta of the first reference is 0) and then
// Instrs<<1 | write in ibits+1 bits.  The widths are the smallest that hold
// every field of the stream.  The padding lets a reader load the 65-bit
// window at any field's start without a bounds special case.  An empty
// stream encodes as no bytes at all.
//
// Address deltas are computed and shifted in two's complement, so a stream
// that wraps around the address space round-trips too.

// padBytes is the zero padding after a packed body.
const padBytes = 9

// zigzag maps a two's complement delta to an unsigned value whose bit length
// grows with the delta's magnitude in either direction.
func zigzag(d uint64) uint64 { return d<<1 ^ uint64(int64(d)>>63) }

// encode returns the canonical encoding of rs and the instructions its
// references retire.  A count that NarrowInstrs marked as out of range fails
// with ErrInstrsRange.
func encode(rs []Ref) ([]byte, int64, error) {
	if len(rs) == 0 {
		return nil, 0, nil
	}
	// First pass: the fields' widths.  Every delta d of the stream is a
	// multiple of 1<<shift, so zigzag(d>>shift) = zigzag(d)>>shift (2d
	// for d >= 0, 2|d|-1 below), and the widest delta field is the widest
	// unshifted zigzag less shift.
	var orDelta, orZig, orInstrs uint64
	var instrs int64
	prev := rs[0].Addr
	for i := range rs {
		r := &rs[i]
		if r.Instrs == instrsOverflow {
			return nil, 0, fmt.Errorf("%w (reference %d)", ErrInstrsRange, i)
		}
		instrs += int64(r.Instrs)
		orInstrs |= uint64(r.Instrs)
		d := r.Addr - prev
		prev = r.Addr
		orDelta |= d
		orZig |= zigzag(d)
	}
	var shift, dbits uint
	if orDelta != 0 {
		shift = uint(bits.TrailingZeros64(orDelta))
		dbits = uint(bits.Len64(orZig)) - shift
	}
	ibits := uint(bits.Len64(orInstrs))
	width := dbits + ibits + 1

	var hdr [2*binary.MaxVarintLen64 + 3]byte
	head := binary.AppendUvarint(hdr[:0], uint64(len(rs)))
	head = append(head, byte(shift), byte(dbits), byte(ibits))
	head = binary.AppendUvarint(head, rs[0].Addr)
	enc := make([]byte, len(head)+(len(rs)*int(width)+7)/8+padBytes)
	copy(enc, head)

	// Second pass: one write per reference through a 64-bit accumulator,
	// two where the fields together exceed a word.
	w := bitWriter{out: enc[len(head):]}
	prev = rs[0].Addr
	for i := range rs {
		r := &rs[i]
		z := zigzag(r.Addr-prev) >> shift
		prev = r.Addr
		iw := uint64(r.Instrs) << 1
		if r.Write {
			iw |= 1
		}
		if width <= 64 {
			w.put(z|iw<<dbits, width)
		} else {
			w.put(z, dbits)
			w.put(iw, ibits+1)
		}
	}
	w.flush()
	return enc, instrs, nil
}

// bitWriter packs fields little-endian into out, a word at a time.
type bitWriter struct {
	out []byte
	pos int    // bytes written
	acc uint64 // bits not yet written, from the lowest
	n   uint   // number of bits in acc
}

// put appends the low width bits of v, which holds no higher bits; width is
// at most 64.
func (w *bitWriter) put(v uint64, width uint) {
	w.acc |= v << w.n
	if w.n+width < 64 {
		w.n += width
		return
	}
	binary.LittleEndian.PutUint64(w.out[w.pos:], w.acc)
	w.pos += 8
	w.acc = v >> (64 - w.n) // the bits that did not fit; none when n is 0
	w.n += width - 64
}

// flush writes the bits still in the accumulator.  The padding after a body
// has room for the whole word.
func (w *bitWriter) flush() {
	if w.n > 0 {
		binary.LittleEndian.PutUint64(w.out[w.pos:], w.acc)
	}
}

// Reader decodes a recording's references front to back.  Each reader has
// its own position, so any number of readers may walk one recording at
// once.
type Reader struct {
	buf   []byte // the packed body and its padding
	bit   uint64 // position of the next field, in bits
	left  int    // references not yet read
	addr  uint64 // the address of the previous reference
	shift uint8
	dbits uint8
	ibits uint8
	width uint8 // dbits + ibits + 1
}

// Reader returns a reader positioned at the recording's first reference.
func (r *Recorded) Reader() Reader {
	if len(r.enc) == 0 {
		return Reader{}
	}
	n, k := binary.Uvarint(r.enc)
	h := r.enc[k:]
	base, m := binary.Uvarint(h[3:])
	return Reader{
		buf:   h[3+m:],
		left:  int(n),
		addr:  base,
		shift: h[0],
		dbits: h[1],
		ibits: h[2],
		width: h[1] + h[2] + 1,
	}
}

// Len returns the number of references not yet read.
func (rd *Reader) Len() int { return rd.left }

// Read decodes the next references into dst, as many as fit and remain, and
// returns how many it decoded: 0 once the stream is exhausted.
func (rd *Reader) Read(dst []Ref) int {
	n := min(len(dst), rd.left)
	imask := uint32(1)<<rd.ibits - 1
	// Direct calls, not a function value: through one, dst would escape
	// and every caller's stack block would move to the heap.
	if rd.width <= 57 {
		rd.bit, rd.addr = readNarrow(dst[:n], rd.buf, rd.bit, rd.addr, uint(rd.shift), uint(rd.dbits), uint64(rd.width), imask)
	} else {
		rd.bit, rd.addr = readWide(dst[:n], rd.buf, rd.bit, rd.addr, uint(rd.shift), uint(rd.dbits), uint64(rd.width), imask)
	}
	rd.left -= n
	return n
}

// readNarrow decodes len(dst) references of a stream whose fields take at
// most 57 bits: a field that short lies inside the word loaded at its first
// byte, whatever its offset in that byte.  It returns the position and
// address after the last.
func readNarrow(dst []Ref, buf []byte, bit, addr uint64, shift, dbits uint, width uint64, imask uint32) (uint64, uint64) {
	dmask := uint64(1)<<dbits - 1
	for i := range dst {
		j := bit >> 3
		word := binary.LittleEndian.Uint64(buf[j:j+8]) >> (bit & 7)
		bit += width
		z := word & dmask
		addr += uint64(int64(z>>1)^-int64(z&1)) << (shift & 63)
		iw := word >> (dbits & 63)
		dst[i] = Ref{Addr: addr, Instrs: uint32(iw>>1) & imask, Write: iw&1 != 0}
	}
	return bit, addr
}

// readWide is readNarrow for fields of any width, up to 97 bits: it loads
// each of a field's two parts on its own.
func readWide(dst []Ref, buf []byte, bit, addr uint64, shift, dbits uint, width uint64, imask uint32) (uint64, uint64) {
	dmask := uint64(1)<<dbits - 1
	for i := range dst {
		z := window(buf, bit) & dmask
		addr += uint64(int64(z>>1)^-int64(z&1)) << (shift & 63)
		iw := window(buf, bit+uint64(dbits))
		dst[i] = Ref{Addr: addr, Instrs: uint32(iw>>1) & imask, Write: iw&1 != 0}
		bit += width
	}
	return bit, addr
}

// window returns the 64 bits of buf starting at bit, lowest first.
func window(buf []byte, bit uint64) uint64 {
	i, sh := bit>>3, bit&7
	return binary.LittleEndian.Uint64(buf[i:])>>sh | uint64(buf[i+8])<<(64-sh)
}
