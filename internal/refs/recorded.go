package refs

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"slices"
	"sync"

	"cmpsched/internal/prng"
)

// Recorded is a materialized reference stream: the canonical bit-packed
// encoding of its references (see codec.go) and the instructions retired
// after the last one.  It is the form every DAG task's stream takes once
// recorded (dag.AddTask).  Readers decode it front to back through a Reader.
// Nothing writes a Recorded after construction, so any number of goroutines
// may read one concurrently, and any number of tasks may share one.
type Recorded struct {
	enc    []byte
	tail   int64
	instrs int64 // sum of the references' Instrs plus tail
}

// NewRecorded returns the recording of the stream rs followed by tail
// trailing instructions.  It holds rs's encoding and keeps no reference to
// rs, so callers may reuse it.  A reference whose count NarrowInstrs marked
// as out of range fails with ErrInstrsRange.
func NewRecorded(rs []Ref, tail int64) (*Recorded, error) {
	enc, instrs, err := encode(rs)
	if err != nil {
		return nil, err
	}
	return &Recorded{enc: enc, tail: tail, instrs: instrs + tail}, nil
}

// fingerprintSeed seeds the stream fingerprint so it is not the identity on
// trivial streams; the value is arbitrary but fixed (changing it would move
// every fingerprint, which only matters within one process).
const fingerprintSeed = 0x9E3779B97F4A7C15

// FingerprintRefs returns the canonical 64-bit fingerprint of a materialized
// stream: a splitmix64-mixed hash over every reference (address, write bit,
// instruction count) and the trailing instruction count.  Two identical
// streams always fingerprint identically; the converse holds only
// probabilistically.  The value is stable, so tests pin streams by it.
func FingerprintRefs(rs []Ref, tail int64) uint64 {
	h := prng.Mix64(fingerprintSeed ^ uint64(len(rs)))
	for i := range rs {
		r := &rs[i]
		w := uint64(0)
		if r.Write {
			w = 1
		}
		h = prng.Mix64(h ^ r.Addr)
		h = prng.Mix64(h ^ uint64(r.Instrs)<<1 ^ w)
	}
	return prng.Mix64(h ^ uint64(tail))
}

// Len returns the number of references in the stream.
func (r *Recorded) Len() int64 {
	n, _ := binary.Uvarint(r.enc)
	return int64(n)
}

// Instrs returns the total number of instructions the stream retires,
// including those after the final reference.
func (r *Recorded) Instrs() int64 { return r.instrs }

// Tail returns the number of instructions retired after the final reference.
func (r *Recorded) Tail() int64 { return r.tail }

// Fingerprint returns the stream's canonical content fingerprint,
// FingerprintRefs of its decoded references and tail, computed on each call.
func (r *Recorded) Fingerprint() uint64 {
	rs, tail := r.Emit(nil)
	return FingerprintRefs(rs, tail)
}

// Emit implements Gen, so recordings compose like any other stream (the
// coarsening pass concatenates its members' recordings): it decodes the
// references onto dst.
func (r *Recorded) Emit(dst []Ref) ([]Ref, int64) {
	rd := r.Reader()
	n := len(dst)
	dst = slices.Grow(dst, rd.Len())[:n+rd.Len()]
	rd.Read(dst[n:])
	return dst, r.tail
}

// TraceStoreStats summarises a store's adoptions.
type TraceStoreStats struct {
	// Interned is the total number of Adopt requests served.
	Interned int64
	// Unique is the number of distinct streams held (each owning one
	// arena).  Interned - Unique is the number of arenas shared.
	Unique int64
	// ArenaBytes is the size of the unique arenas' encodings.
	ArenaBytes int64
}

// TraceStore shares recordings by content: recordings of identical streams
// adopted into one store resolve to one Recorded.  The encoding is
// canonical, so a recording is bucketed by a hash of its bytes and compared
// as bytes, and a hash collision can never alias two different streams.
// A store is safe for concurrent use.
type TraceStore struct {
	seed  maphash.Seed
	mu    sync.Mutex
	byKey map[uint64][]*Recorded
	stats TraceStoreStats
}

// NewTraceStore returns an empty store.
func NewTraceStore() *TraceStore {
	return &TraceStore{seed: maphash.MakeSeed(), byKey: make(map[uint64][]*Recorded)}
}

// Adopt returns the store's recording of r's stream: the existing one when
// the store holds identical content, otherwise r itself, taken without a
// copy.
func (s *TraceStore) Adopt(r *Recorded) *Recorded {
	key := maphash.Bytes(s.seed, r.enc)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Interned++
	for _, t := range s.byKey[key] {
		if t.tail == r.tail && bytes.Equal(t.enc, r.enc) {
			return t
		}
	}
	s.byKey[key] = append(s.byKey[key], r)
	s.stats.Unique++
	s.stats.ArenaBytes += int64(len(r.enc))
	return r
}

// Stats returns a snapshot of the store's counters.
func (s *TraceStore) Stats() TraceStoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
