package refs

import (
	"fmt"
	"slices"
	"sync"
	"unsafe"

	"cmpsched/internal/prng"
)

// Recorded is a materialized reference stream: an immutable arena of Refs,
// the instructions retired after the last one, and the stream's content
// fingerprint.  It is the form every DAG task's stream takes once recorded
// (dag.AddTask), and a TraceStore shares one Recorded among all identical
// streams.  Nothing writes a Recorded after construction, so any number of
// goroutines may read one concurrently.
type Recorded struct {
	refs   []Ref
	tail   int64
	instrs int64 // sum of refs[i].Instrs plus tail
	fp     uint64
}

// refBytes is the in-memory footprint of one arena entry, used for the
// store's arena-bytes accounting.
const refBytes = int64(unsafe.Sizeof(Ref{}))

// fingerprintSeed seeds the stream fingerprint so it is not the identity on
// trivial streams; the value is arbitrary but fixed (changing it would move
// every fingerprint, which only matters within one process).
const fingerprintSeed = 0x9E3779B97F4A7C15

// FingerprintRefs returns the canonical 64-bit fingerprint of a materialized
// stream: a splitmix64-mixed hash over every reference (address, write bit,
// instruction count) and the trailing instruction count.  Two identical
// streams always fingerprint identically; the converse holds only
// probabilistically, which is why TraceStore verifies content equality before
// sharing an arena.
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

// Arena returns the stream's references.  The slice is shared by every
// reader of the recording and must not be modified.
func (r *Recorded) Arena() []Ref { return r.refs }

// Len returns the number of references in the stream.
func (r *Recorded) Len() int64 { return int64(len(r.refs)) }

// Instrs returns the total number of instructions the stream retires,
// including those after the final reference.
func (r *Recorded) Instrs() int64 { return r.instrs }

// Tail returns the number of instructions retired after the final reference.
func (r *Recorded) Tail() int64 { return r.tail }

// Fingerprint returns the stream's canonical content fingerprint.
func (r *Recorded) Fingerprint() uint64 { return r.fp }

// Emit implements Gen, so recordings compose like any other stream (the
// coarsening pass concatenates its members' recordings).
func (r *Recorded) Emit(dst []Ref) ([]Ref, int64) { return append(dst, r.refs...), r.tail }

// TraceStoreStats summarises a store's interning activity.
type TraceStoreStats struct {
	// Interned is the total number of Intern and Adopt requests served.
	Interned int64
	// Unique is the number of distinct streams recorded (each owning one
	// arena).  Interned - Unique is the number of arena copies avoided.
	Unique int64
	// ArenaBytes is the memory held by the unique arenas.
	ArenaBytes int64
}

// TraceStore interns reference streams by content: streams with identical
// references and tails share one Recorded.  Lookup is by 64-bit fingerprint
// with full content verification on a match, so fingerprint collisions cost
// a comparison but can never alias two different streams.  A store is safe
// for concurrent use.
type TraceStore struct {
	mu    sync.Mutex
	byFP  map[uint64][]*Recorded
	stats TraceStoreStats
}

// NewTraceStore returns an empty store.
func NewTraceStore() *TraceStore {
	return &TraceStore{byFP: make(map[uint64][]*Recorded)}
}

// Intern returns the store's recording of the stream rs followed by tail
// trailing instructions: the existing one when the store holds identical
// content, otherwise a new one whose arena is a copy of rs (the store keeps
// no reference to rs, so callers may reuse it).  A reference whose count
// NarrowInstrs marked as out of range fails with ErrInstrsRange.
func (s *TraceStore) Intern(rs []Ref, tail int64) (*Recorded, error) {
	fp := FingerprintRefs(rs, tail)
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.lookup(fp, rs, tail); r != nil {
		return r, nil
	}
	var sum int64
	for i := range rs {
		if rs[i].Instrs == instrsOverflow {
			return nil, fmt.Errorf("%w (reference %d)", ErrInstrsRange, i)
		}
		sum += int64(rs[i].Instrs)
	}
	r := &Recorded{refs: slices.Clone(rs), tail: tail, instrs: sum + tail, fp: fp}
	s.add(r)
	return r, nil
}

// Adopt returns the store's recording of r's stream: the existing one when
// the store holds identical content, otherwise r itself, taken without a
// copy.
func (s *TraceStore) Adopt(r *Recorded) *Recorded {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.lookup(r.fp, r.refs, r.tail); t != nil {
		return t
	}
	s.add(r)
	return r
}

// lookup counts one request and returns the store's recording of the given
// content, or nil when the content is new to the store.
func (s *TraceStore) lookup(fp uint64, rs []Ref, tail int64) *Recorded {
	s.stats.Interned++
	for _, r := range s.byFP[fp] {
		if r.tail == tail && sameRefs(r.refs, rs) {
			return r
		}
	}
	return nil
}

// add makes r the store's recording of its content.
func (s *TraceStore) add(r *Recorded) {
	s.byFP[r.fp] = append(s.byFP[r.fp], r)
	s.stats.Unique++
	s.stats.ArenaBytes += int64(len(r.refs)) * refBytes
}

// Stats returns a snapshot of the store's interning counters.
func (s *TraceStore) Stats() TraceStoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// sameRefs reports element-wise equality, with an identity fast path for
// re-interned arenas.
func sameRefs(a, b []Ref) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	if &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
