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

// intern emits g and interns the stream into s.
func intern(t *testing.T, s *TraceStore, g Gen) *Recorded {
	t.Helper()
	rs, tail := g.Emit(nil)
	r, err := s.Intern(rs, tail)
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
		r := intern(t, NewTraceStore(), g)
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
	r := intern(t, NewTraceStore(), NewPoints(rs, 5))
	if got := r.Instrs(); got != 14 {
		t.Fatalf("Instrs = %d, want 14", got)
	}
	rs[0].Instrs = 100
	if got := r.Instrs(); got != 14 {
		t.Fatalf("Instrs after the caller's list changed = %d, want 14", got)
	}
}

// TestInternSharesArenas pins the content-addressing: identical streams share
// one recording, distinct streams do not, and the stats ledger counts both
// accurately.
func TestInternSharesArenas(t *testing.T) {
	s := NewTraceStore()
	a := intern(t, s, NewScan(1<<20, 640, 64, 2))
	b := intern(t, s, NewScan(1<<20, 640, 64, 2))
	if a != b {
		t.Fatalf("identical streams got distinct recordings")
	}
	c := intern(t, s, &Strided{Base: 1 << 21, StrideBytes: 128, Count: 10, InstrsPerRef: 1})
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
	first := intern(t, NewTraceStore(), NewScan(1<<20, 640, 64, 2))
	twin := intern(t, NewTraceStore(), NewScan(1<<20, 640, 64, 2))
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
	a := intern(t, s, NewPoints(rs, 5))
	b := intern(t, s, NewPoints(rs, 6))
	if a == b || a.Instrs() == b.Instrs() {
		t.Fatalf("different tails share a recording")
	}
	if st := s.Stats(); st.Unique != 2 {
		t.Fatalf("Unique = %d, want 2", st.Unique)
	}
}

// TestInternRefsDoesNotRetainInput pins that Intern copies: mutating the
// caller's slice afterwards must not corrupt the arena.
func TestInternRefsDoesNotRetainInput(t *testing.T) {
	rs := []Ref{{Addr: 64, Instrs: 1}, {Addr: 128, Instrs: 2}}
	a, err := NewTraceStore().Intern(rs, 0)
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
// equally (by construction), and — with the store's verification — streams
// share a recording exactly when they are equal.  Near-identical streams
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
		r, err := s.Intern(streams[i], tails[i])
		if err != nil {
			t.Fatal(err)
		}
		interned[i] = r
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

// TestLookupKeySeparatesOneFieldChanges pins the store's bucket key: a
// stream that differs from another only in one reference's address,
// instruction count or write bit, at any position (so in each of the four
// lanes and in the remainder loop), only in its tail, or only in its length
// gets a different key; and an equal stream interned separately still
// shares the first one's arena.
func TestLookupKeySeparatesOneFieldChanges(t *testing.T) {
	base := make([]Ref, 11)
	for i := range base {
		base[i] = Ref{Addr: uint64(i) * 64, Instrs: uint32(i % 3), Write: i%2 == 0}
	}
	const tail = 7
	want := lookupKey(base, tail)
	mutations := map[string]func(*Ref){
		"addr+64":     func(r *Ref) { r.Addr += 64 },
		"addr-bit63":  func(r *Ref) { r.Addr ^= 1 << 63 },
		"instrs+1":    func(r *Ref) { r.Instrs++ },
		"instrs-max":  func(r *Ref) { r.Instrs = MaxInstrs },
		"write-flip":  func(r *Ref) { r.Write = !r.Write },
		"instrs+addr": func(r *Ref) { r.Instrs, r.Addr = r.Instrs+1, r.Addr+64 },
	}
	for i := range base {
		for name, mutate := range mutations {
			rs := slices.Clone(base)
			mutate(&rs[i])
			if lookupKey(rs, tail) == want {
				t.Errorf("reference %d, %s: key unchanged", i, name)
			}
		}
	}
	if lookupKey(base, tail+1) == want {
		t.Errorf("tail+1: key unchanged")
	}
	for n := range len(base) {
		if lookupKey(base[:n], tail) == want {
			t.Errorf("prefix of length %d: key unchanged", n)
		}
	}
	if lookupKey(append(slices.Clone(base), Ref{}), tail) == want {
		t.Errorf("one more zero reference: key unchanged")
	}

	s := NewTraceStore()
	a, err := s.Intern(base, tail)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Intern(slices.Clone(base), tail)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || &a.enc[0] != &b.enc[0] {
		t.Fatalf("equal streams got distinct recordings")
	}
	if st := s.Stats(); st.Interned != 2 || st.Unique != 1 {
		t.Fatalf("stats = %+v, want Interned 2, Unique 1", st)
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
				if r, err := s.Intern(rs, tail); err != nil || r.Len() == 0 {
					t.Errorf("worker %d: recording %v, error %v", w, r, err)
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
