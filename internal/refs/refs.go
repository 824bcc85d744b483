// Package refs provides composable, deterministic memory-reference streams.
//
// A task in a computation DAG (package dag) issues memory references and
// retires instructions between them.  Workload builders describe that stream
// with the generators here — scans, strided and random walks, explicit lists
// and combinators over them — and dag.AddTask emits it once into a Recorded
// arena, the only form the stream takes from then on.  An arena is
// bit-packed, about 5 bytes a reference where a Ref takes 16 (see codec.go),
// and every reader — the CMP simulator (package cmpsim), the working-set
// profilers (package profile) and the space-bounded scheduler — decodes it
// front to back through its own Reader.  Nothing writes an arena after it is
// recorded, so any number of goroutines may read it at once.
//
// References are expressed at whatever granularity the producer chooses; the
// workload generators in this repository emit one reference per cache line
// touched, which keeps traces compact while preserving miss behaviour.
package refs

import (
	"errors"
	"math"
	"slices"

	"cmpsched/internal/prng"
)

// Ref is a single memory reference, as generators emit it and readers
// decode it.  Its fields pack into 16 bytes.
type Ref struct {
	// Addr is the byte address of the reference. Consumers map it to a
	// cache line by masking with their line size.
	Addr uint64
	// Instrs is the number of instructions retired since the previous
	// reference of the same stream (exclusive of the memory operation
	// itself), at most MaxInstrs. The simulator charges these cycles before
	// the access.
	Instrs uint32
	// Write reports whether the reference is a store.
	Write bool
}

// MaxInstrs is the largest per-reference instruction count a Ref holds.
const MaxInstrs = math.MaxUint32 - 1

// instrsOverflow is the Instrs value NarrowInstrs gives a count that does
// not fit: a marker rather than a count, which NewRecorded rejects.
const instrsOverflow = math.MaxUint32

// ErrInstrsRange reports a stream with a per-reference instruction count
// outside [0, MaxInstrs].
var ErrInstrsRange = errors.New("refs: per-reference instruction count outside [0, MaxInstrs]")

// NarrowInstrs narrows a per-reference instruction count to Ref.Instrs.  A
// count outside [0, MaxInstrs] becomes a marker that NewRecorded rejects
// with ErrInstrsRange, so a stream that does not fit fails when it
// is recorded instead of wrapping.
func NarrowInstrs(n int64) uint32 {
	if n < 0 || n > MaxInstrs {
		return instrsOverflow
	}
	return uint32(n)
}

// Gen describes a reference stream.  Generators hold no position: every
// Emit produces the same stream.
type Gen interface {
	// Emit appends the stream's references to dst and returns the extended
	// slice together with the number of instructions retired after the
	// final reference.
	Emit(dst []Ref) ([]Ref, int64)
}

// intn returns a uniform value in [0, n) drawn from r. n must be > 0.
func intn(r *prng.SplitMix64, n uint64) uint64 {
	// Multiply-shift reduction; bias is negligible for our trace sizes.
	hi, _ := mul64(r.Next(), n)
	return hi
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return hi, lo
}

// Empty is a generator producing no references and no instructions.
type Empty struct{}

// Emit implements Gen.
func (Empty) Emit(dst []Ref) ([]Ref, int64) { return dst, 0 }

// Compute is a generator that retires instructions without touching memory.
type Compute struct {
	// N is the number of instructions retired.
	N int64
}

// Emit implements Gen.
func (c Compute) Emit(dst []Ref) ([]Ref, int64) { return dst, c.N }

// Points replays an explicit list of references.  It carries the graph
// kernels' per-task traces as well as tests and hand-built micro traces.
type Points struct {
	// Refs is the reference list.
	Refs []Ref
	// Tail is the number of instructions retired after the final
	// reference.
	Tail int64
}

// NewPoints returns a Points generator over refs.
func NewPoints(refs []Ref, tail int64) *Points { return &Points{Refs: refs, Tail: tail} }

// Emit implements Gen.
func (p *Points) Emit(dst []Ref) ([]Ref, int64) { return append(dst, p.Refs...), p.Tail }

// Scan walks a contiguous region sequentially, touching one address per
// LineBytes, optionally several times.
type Scan struct {
	// Base is the starting byte address of the region.
	Base uint64
	// Bytes is the size of the region in bytes.
	Bytes int64
	// LineBytes is the distance between successive references; it is
	// normally the cache-line size. Must be > 0.
	LineBytes int64
	// Write marks the references as stores.
	Write bool
	// InstrsPerRef is the number of instructions retired before each
	// reference.
	InstrsPerRef int64
	// Passes is the number of complete passes over the region. Zero is
	// treated as one pass.
	Passes int
}

// NewScan returns a single sequential read pass over [base, base+bytes).
func NewScan(base uint64, bytes, lineBytes, instrsPerRef int64) *Scan {
	return &Scan{Base: base, Bytes: bytes, LineBytes: lineBytes, InstrsPerRef: instrsPerRef, Passes: 1}
}

// Emit implements Gen.
func (s *Scan) Emit(dst []Ref) ([]Ref, int64) {
	var lines int64
	if s.LineBytes > 0 && s.Bytes > 0 {
		lines = (s.Bytes + s.LineBytes - 1) / s.LineBytes
	}
	instrs := NarrowInstrs(s.InstrsPerRef)
	for pass := max(s.Passes, 1); pass > 0; pass-- {
		for i := int64(0); i < lines; i++ {
			dst = append(dst, Ref{Addr: s.Base + uint64(i*s.LineBytes), Instrs: instrs, Write: s.Write})
		}
	}
	return dst, 0
}

// Strided emits Count references starting at Base with a fixed stride.
type Strided struct {
	Base         uint64
	StrideBytes  int64
	Count        int64
	Write        bool
	InstrsPerRef int64
}

// Emit implements Gen.
func (s *Strided) Emit(dst []Ref) ([]Ref, int64) {
	instrs := NarrowInstrs(s.InstrsPerRef)
	for i := int64(0); i < s.Count; i++ {
		dst = append(dst, Ref{Addr: s.Base + uint64(i*s.StrideBytes), Instrs: instrs, Write: s.Write})
	}
	return dst, 0
}

// Random emits Count references uniformly distributed over a region, aligned
// to LineBytes. The sequence is a deterministic function of Seed.
type Random struct {
	Base         uint64
	Bytes        int64
	LineBytes    int64
	Count        int64
	Seed         uint64
	Write        bool
	InstrsPerRef int64
}

// Emit implements Gen.
func (g *Random) Emit(dst []Ref) ([]Ref, int64) {
	lb := g.LineBytes
	if lb <= 0 {
		lb = 64
	}
	lines := uint64(max(g.Bytes/lb, 1))
	r := prng.SplitMix64{State: g.Seed}
	instrs := NarrowInstrs(g.InstrsPerRef)
	for i := int64(0); i < g.Count; i++ {
		dst = append(dst, Ref{Addr: g.Base + intn(&r, lines)*uint64(lb), Instrs: instrs, Write: g.Write})
	}
	return dst, 0
}

// Concat runs a sequence of generators back to back.
type Concat struct {
	gens []Gen
}

// NewConcat returns a generator replaying gens in order. Nil entries are
// skipped.
func NewConcat(gens ...Gen) *Concat {
	out := make([]Gen, 0, len(gens))
	for _, g := range gens {
		if g != nil {
			out = append(out, g)
		}
	}
	return &Concat{gens: out}
}

// Emit implements Gen.  Every child's trailing instructions follow the
// sequence's final reference.
func (c *Concat) Emit(dst []Ref) ([]Ref, int64) {
	var tail int64
	for _, g := range c.gens {
		var t int64
		dst, t = g.Emit(dst)
		tail += t
	}
	return dst, tail
}

// Interleave alternates references from two generators (a, b, a, b, ...)
// until both are exhausted.  It models loops that touch two structures per
// iteration, such as a probe that reads an input record and then a hash
// bucket.
type Interleave struct {
	A, B Gen
}

// NewInterleave returns an interleaving of a and b.
func NewInterleave(a, b Gen) *Interleave { return &Interleave{A: a, B: b} }

// Emit implements Gen.  Once the shorter stream runs out the longer one's
// remainder follows, and both streams' trailing instructions follow the
// final reference.
func (i *Interleave) Emit(dst []Ref) ([]Ref, int64) {
	start := len(dst)
	dst, ta := i.A.Emit(dst)
	a := slices.Clone(dst[start:])
	dst, tb := i.B.Emit(dst)
	// Merge in place: b's k-th reference sits at start+len(a)+k, at or past
	// the slot start+2k+1 it moves to, so writing in order never overwrites
	// a reference not yet read, and once a runs out b's remainder is
	// already in place.
	b := dst[start+len(a):]
	w := start
	for k, r := range a {
		dst[w] = r
		w++
		if k < len(b) {
			dst[w] = b[k]
			w++
		}
	}
	return dst, ta + tb
}

// Repeat replays an inner generator a fixed number of times.
type Repeat struct {
	G     Gen
	Times int
}

// NewRepeat returns a generator that replays g `times` times.
func NewRepeat(g Gen, times int) *Repeat { return &Repeat{G: g, Times: times} }

// Emit implements Gen.  Every round's trailing instructions follow the
// final reference.
func (r *Repeat) Emit(dst []Ref) ([]Ref, int64) {
	if r.Times <= 0 {
		return dst, 0
	}
	start := len(dst)
	dst, tail := r.G.Emit(dst)
	round := dst[start:]
	for i := 1; i < r.Times; i++ {
		dst = append(dst, round...)
	}
	return dst, tail * int64(r.Times)
}

// WithTail wraps a generator and adds trailing instructions after the last
// reference, e.g. loop epilogues or result combination code.
type WithTail struct {
	G    Gen
	Tail int64
}

// NewWithTail wraps g with tail trailing instructions.
func NewWithTail(g Gen, tail int64) *WithTail { return &WithTail{G: g, Tail: tail} }

// Emit implements Gen.
func (w *WithTail) Emit(dst []Ref) ([]Ref, int64) {
	dst, tail := w.G.Emit(dst)
	return dst, tail + w.Tail
}
