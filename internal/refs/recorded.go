package refs

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"

	"cmpsched/internal/prng"
)

// Recorded is a materialized reference stream: the canonical bit-packed
// encoding of its references (see codec.go), the instructions retired after
// the last one, and the stream's lookup key in a TraceStore.  It is the form
// every DAG task's stream takes once recorded (dag.AddTask), and a
// TraceStore shares one Recorded among all identical streams.  Readers
// decode it front to back through a Reader.  Nothing writes a Recorded after
// construction, so any number of goroutines may read one concurrently.
type Recorded struct {
	enc    []byte
	tail   int64
	instrs int64  // sum of the references' Instrs plus tail
	key    uint64 // lookupKey of the references and tail
}

// fingerprintSeed seeds the stream fingerprint so it is not the identity on
// trivial streams; the value is arbitrary but fixed (changing it would move
// every fingerprint, which only matters within one process).
const fingerprintSeed = 0x9E3779B97F4A7C15

// FingerprintRefs returns the canonical 64-bit fingerprint of a materialized
// stream: a splitmix64-mixed hash over every reference (address, write bit,
// instruction count) and the trailing instruction count.  Two identical
// streams always fingerprint identically; the converse holds only
// probabilistically.  The value is stable, so tests pin streams by it; the
// TraceStore buckets streams by the cheaper lookupKey instead.
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

// The xxHash64 primes, the multipliers of lookupKey's lane rounds.
const (
	lanePrime1 = 0x9E3779B185EBCA87
	lanePrime2 = 0xC2B2AE3D27D4EB4F
)

// lookupKey is the TraceStore's 64-bit bucket key of a stream.  Interning
// hashes every reference of every task a build emits, so the key must be
// cheaper than FingerprintRefs' chain of two dependent splitmix64 rounds per
// reference: four lanes take every fourth reference each, so their multiply
// chains overlap, and a reference costs one xxHash64 round.  A round is a
// bijection of its lane for a fixed word and of its word for a fixed lane,
// refWord is injective in each field of a reference, and the final mix is a
// bijection of each lane and of the tail, so two streams of one length that
// differ in one field of one reference, or in the tail alone, never share a
// key.  Content equality is still verified on every match.
func lookupKey(rs []Ref, tail int64) uint64 {
	var l [4]uint64
	n := len(rs) &^ 3
	for i := 0; i < n; i += 4 {
		l[0] = laneRound(l[0], refWord(&rs[i]))
		l[1] = laneRound(l[1], refWord(&rs[i+1]))
		l[2] = laneRound(l[2], refWord(&rs[i+2]))
		l[3] = laneRound(l[3], refWord(&rs[i+3]))
	}
	for i := n; i < len(rs); i++ {
		l[i-n] = laneRound(l[i-n], refWord(&rs[i]))
	}
	h := prng.Mix64(uint64(len(rs)))
	for _, v := range l {
		h = prng.Mix64(h ^ v)
	}
	return prng.Mix64(h ^ uint64(tail))
}

// laneRound folds one word into a lane (xxHash64's round).
func laneRound(lane, w uint64) uint64 {
	return bits.RotateLeft64(lane+w*lanePrime2, 31) * lanePrime1
}

// refWord packs a reference into one word: the address, xored with the
// instruction count and write bit rotated into the address's high half.
func refWord(r *Ref) uint64 {
	w := uint64(r.Instrs) << 1
	if r.Write {
		w |= 1
	}
	return r.Addr ^ bits.RotateLeft64(w, 32)
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

// equal reports whether the recording holds exactly the references rs,
// decoding it a block at a time.
func (r *Recorded) equal(rs []Ref) bool {
	rd := r.Reader()
	if rd.Len() != len(rs) {
		return false
	}
	var blk [64]Ref
	for len(rs) > 0 {
		k := rd.Read(blk[:])
		if !slices.Equal(blk[:k], rs[:k]) {
			return false
		}
		rs = rs[k:]
	}
	return true
}

// TraceStoreStats summarises a store's interning activity.
type TraceStoreStats struct {
	// Interned is the total number of Intern and Adopt requests served.
	Interned int64
	// Unique is the number of distinct streams recorded (each owning one
	// arena).  Interned - Unique is the number of arena copies avoided.
	Unique int64
	// ArenaBytes is the size of the unique arenas' encodings.
	ArenaBytes int64
}

// TraceStore interns reference streams by content: streams with identical
// references and tails share one Recorded.  Lookup is by a 64-bit hash of
// the content (lookupKey) with full content verification on a match, so key
// collisions cost a comparison but can never alias two different streams.
// A store is safe for concurrent use.
type TraceStore struct {
	mu    sync.Mutex
	byKey map[uint64][]*Recorded
	stats TraceStoreStats
}

// NewTraceStore returns an empty store.
func NewTraceStore() *TraceStore {
	return &TraceStore{byKey: make(map[uint64][]*Recorded)}
}

// Intern returns the store's recording of the stream rs followed by tail
// trailing instructions: the existing one when the store holds identical
// content, otherwise a new one holding rs's encoding (the store keeps no
// reference to rs, so callers may reuse it).  A candidate is compared by
// decoding it, and only content new to the store is encoded.  A reference
// whose count NarrowInstrs marked as out of range fails with
// ErrInstrsRange.
func (s *TraceStore) Intern(rs []Ref, tail int64) (*Recorded, error) {
	key := lookupKey(rs, tail)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Interned++
	for _, r := range s.byKey[key] {
		if r.tail == tail && r.equal(rs) {
			return r, nil
		}
	}
	enc, instrs, err := encode(rs)
	if err != nil {
		return nil, err
	}
	r := &Recorded{enc: enc, tail: tail, instrs: instrs + tail, key: key}
	s.add(r)
	return r, nil
}

// Adopt returns the store's recording of r's stream: the existing one when
// the store holds identical content, otherwise r itself, taken without a
// copy.  The encoding is canonical, so content is compared as bytes.
func (s *TraceStore) Adopt(r *Recorded) *Recorded {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Interned++
	for _, t := range s.byKey[r.key] {
		if t.tail == r.tail && bytes.Equal(t.enc, r.enc) {
			return t
		}
	}
	s.add(r)
	return r
}

// add makes r the store's recording of its content.
func (s *TraceStore) add(r *Recorded) {
	s.byKey[r.key] = append(s.byKey[r.key], r)
	s.stats.Unique++
	s.stats.ArenaBytes += int64(len(r.enc))
}

// Stats returns a snapshot of the store's interning counters.
func (s *TraceStore) Stats() TraceStoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
