package refs

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// drain reads r's references through one reader, block references at a
// time.
func drain(r *Recorded, block int) []Ref {
	var out []Ref
	rd := r.Reader()
	buf := make([]Ref, block)
	for k := rd.Read(buf); k > 0; k = rd.Read(buf) {
		out = append(out, buf[:k]...)
	}
	return out
}

// record emits g and records the stream.
func record(t *testing.T, g Gen) *Recorded {
	t.Helper()
	rs, tail := g.Emit(nil)
	r, err := NewRecorded(rs, tail)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRecordedMatchesSource pins the recording contract over every generator
// shape: a recording replays its stream exactly and reports its length,
// tail, instruction total and fingerprint.
func TestRecordedMatchesSource(t *testing.T) {
	for name, g := range fixtures(t) {
		rs, tail := g.Emit(nil)
		r := record(t, g)
		if r.Len() != int64(len(rs)) || r.Tail() != tail || r.Instrs() != streamInstrs(rs, tail) {
			t.Fatalf("%s: recorded (len %d, tail %d, instrs %d), want (%d, %d, %d)",
				name, r.Len(), r.Tail(), r.Instrs(), len(rs), tail, streamInstrs(rs, tail))
		}
		if r.Fingerprint() != FingerprintRefs(rs, tail) {
			t.Fatalf("%s: fingerprint differs from FingerprintRefs", name)
		}
		if got := drain(r, 5); !slices.Equal(got, rs) {
			t.Fatalf("%s: the decoded stream differs from the emitted one", name)
		}
		if again, againTail := r.Emit(nil); againTail != tail || !slices.Equal(again, rs) {
			t.Fatalf("%s: re-emitting the recording changed the stream", name)
		}
	}
}

// TestPointsInstrsCached pins that a Points stream's instruction total is
// computed once, when it is recorded, from a copy of the list.
func TestPointsInstrsCached(t *testing.T) {
	rs := []Ref{{Addr: 0, Instrs: 2}, {Addr: 64, Instrs: 3}, {Addr: 128, Instrs: 4}}
	r := record(t, NewPoints(rs, 5))
	if got := r.Instrs(); got != 14 {
		t.Fatalf("Instrs = %d, want 14", got)
	}
	rs[0].Instrs = 100
	if got := r.Instrs(); got != 14 {
		t.Fatalf("Instrs after the caller's list changed = %d, want 14", got)
	}
}

// TestInternSharesArenas pins the store's content-addressing: recordings of
// identical streams resolve to one, distinct streams do not, and the stats
// ledger counts both accurately.
func TestInternSharesArenas(t *testing.T) {
	s := NewTraceStore()
	a := s.Adopt(record(t, NewScan(1<<20, 640, 64, 2)))
	b := s.Adopt(record(t, NewScan(1<<20, 640, 64, 2)))
	if a != b {
		t.Fatalf("identical streams got distinct recordings")
	}
	c := s.Adopt(record(t, &Strided{Base: 1 << 21, StrideBytes: 128, Count: 10, InstrsPerRef: 1}))
	if c == a || &c.enc[0] == &a.enc[0] {
		t.Fatalf("distinct streams share an arena")
	}
	st := s.Stats()
	if st.Interned != 3 || st.Unique != 2 {
		t.Fatalf("stats = %+v, want Interned 3, Unique 2", st)
	}
	if want := int64(len(a.enc) + len(c.enc)); st.ArenaBytes != want {
		t.Fatalf("ArenaBytes = %d, want %d", st.ArenaBytes, want)
	}
}

// TestAdoptTakesRecordingsWithoutCopy pins Adopt: content new to the store is
// taken as the very recording offered, and identical content resolves to the
// store's existing recording.
func TestAdoptTakesRecordingsWithoutCopy(t *testing.T) {
	first := record(t, NewScan(1<<20, 640, 64, 2))
	twin := record(t, NewScan(1<<20, 640, 64, 2))
	s := NewTraceStore()
	if got := s.Adopt(first); got != first {
		t.Fatalf("new content was not adopted as is")
	}
	if got := s.Adopt(twin); got != first {
		t.Fatalf("identical content did not resolve to the adopted recording")
	}
	if st := s.Stats(); st.Interned != 2 || st.Unique != 1 || st.ArenaBytes != int64(len(first.enc)) {
		t.Fatalf("stats = %+v", st)
	}
}

// TestInternTailDistinguishes pins that two streams with equal references but
// different trailing instruction counts never share an entry.
func TestInternTailDistinguishes(t *testing.T) {
	s := NewTraceStore()
	rs := []Ref{{Addr: 64, Instrs: 1}, {Addr: 128, Write: true, Instrs: 2}}
	a := s.Adopt(record(t, NewPoints(rs, 5)))
	b := s.Adopt(record(t, NewPoints(rs, 6)))
	if a == b || a.Instrs() == b.Instrs() {
		t.Fatalf("different tails share a recording")
	}
	if st := s.Stats(); st.Unique != 2 {
		t.Fatalf("Unique = %d, want 2", st.Unique)
	}
}

// TestInternRefsDoesNotRetainInput pins that NewRecorded copies: mutating
// the caller's slice afterwards must not corrupt the arena.
func TestInternRefsDoesNotRetainInput(t *testing.T) {
	rs := []Ref{{Addr: 64, Instrs: 1}, {Addr: 128, Instrs: 2}}
	a, err := NewRecorded(rs, 0)
	if err != nil {
		t.Fatal(err)
	}
	rs[0].Addr = 0xDEAD
	if got, _ := a.Emit(nil); got[0].Addr != 64 {
		t.Fatalf("arena aliases the caller's slice: %+v", got[0])
	}
}

// TestFingerprintQuickCheck generates random short streams and checks the
// content-addressing law both ways on every pair: equal streams fingerprint
// equally (by construction), and — with the store's byte comparison —
// streams adopted into one store share a recording exactly when they are
// equal.  Near-identical streams
// (prefixes, one flipped write bit, shifted instruction counts) are included
// deliberately.
func TestFingerprintQuickCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	streams := make([][]Ref, 0, 64)
	tails := make([]int64, 0, 64)
	for i := 0; i < 64; i++ {
		n := rng.Intn(6)
		rs := make([]Ref, n)
		for j := range rs {
			rs[j] = Ref{
				Addr:   uint64(rng.Intn(4)) * 64,
				Write:  rng.Intn(2) == 0,
				Instrs: uint32(rng.Intn(3)),
			}
		}
		streams = append(streams, rs)
		tails = append(tails, int64(rng.Intn(2)))
	}
	s := NewTraceStore()
	interned := make([]*Recorded, len(streams))
	for i := range streams {
		r, err := NewRecorded(streams[i], tails[i])
		if err != nil {
			t.Fatal(err)
		}
		interned[i] = s.Adopt(r)
	}
	for i := range streams {
		for j := range streams {
			same := tails[i] == tails[j] && slices.Equal(streams[i], streams[j])
			fpEq := FingerprintRefs(streams[i], tails[i]) == FingerprintRefs(streams[j], tails[j])
			if same && !fpEq {
				t.Fatalf("identical streams %d and %d fingerprint differently", i, j)
			}
			if shared := interned[i] == interned[j]; shared != same {
				t.Fatalf("streams %d and %d: shared recording %t, identical %t", i, j, shared, same)
			}
		}
	}
}

// TestTraceStoreConcurrentIntern hammers one store from many goroutines and
// checks the ledger adds up.
func TestTraceStoreConcurrentIntern(t *testing.T) {
	s := NewTraceStore()
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// 10 distinct contents, interned over and over.
				rs, tail := NewScan(1<<20, int64(64*(1+i%10)), 64, 1).Emit(nil)
				r, err := NewRecorded(rs, tail)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if got := s.Adopt(r); got.Len() != r.Len() {
					t.Errorf("worker %d: adopted %d references, want %d", w, got.Len(), r.Len())
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Interned != workers*perWorker || st.Unique != 10 {
		t.Fatalf("stats = %+v, want Interned %d, Unique 10", st, workers*perWorker)
	}
}
