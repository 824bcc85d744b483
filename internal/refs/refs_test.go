package refs

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"cmpsched/internal/prng"
)

// streamInstrs is the number of instructions a stream retires: its
// references' counts plus the tail.
func streamInstrs(rs []Ref, tail int64) int64 {
	for _, r := range rs {
		tail += int64(r.Instrs)
	}
	return tail
}

// fixtures holds one instance of every generator shape.
func fixtures(t *testing.T) map[string]Gen {
	t.Helper()
	rs := make([]Ref, 0, 200)
	for i := 0; i < 200; i++ {
		rs = append(rs, Ref{Addr: uint64(i * 64), Write: i%3 == 0, Instrs: uint32(i % 7)})
	}
	recorded, err := NewRecorded(rs, 9)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Gen{
		"empty":   Empty{},
		"compute": Compute{N: 10},
		"points":  NewPoints(rs, 9),
		"scan":    &Scan{Base: 1 << 20, Bytes: 4096, LineBytes: 64, InstrsPerRef: 3, Passes: 3},
		"strided": &Strided{Base: 1 << 21, StrideBytes: 192, Count: 173, InstrsPerRef: 2},
		"random":  &Random{Base: 1 << 22, Bytes: 1 << 16, LineBytes: 64, Count: 301, Seed: 7, InstrsPerRef: 4},
		"concat": NewConcat(
			NewScan(1<<20, 1000, 64, 1),
			&Strided{Base: 1 << 21, StrideBytes: 64, Count: 5, InstrsPerRef: 2},
			Empty{},
			&Random{Base: 1 << 22, Bytes: 1 << 12, LineBytes: 64, Count: 77, Seed: 3, InstrsPerRef: 1},
		),
		"interleave": NewInterleave(
			NewScan(1<<20, 900, 64, 1),
			&Strided{Base: 1 << 21, StrideBytes: 128, Count: 40, InstrsPerRef: 2},
		),
		"repeat":   NewRepeat(NewScan(1<<20, 500, 64, 2), 4),
		"withtail": NewWithTail(NewScan(1<<20, 700, 64, 1), 33),
		"recorded": recorded,
	}
}

// TestRefIs16Bytes pins the decoded layout: the blocks readers decode into
// hold 16 bytes a reference.
func TestRefIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Ref{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(Ref{}) = %d, want 16", got)
	}
}

// TestNarrowInstrsRejectsCountsThatDoNotFit pins that a per-reference count
// outside [0, MaxInstrs] fails when its stream is recorded, with
// ErrInstrsRange, instead of wrapping.
func TestNarrowInstrsRejectsCountsThatDoNotFit(t *testing.T) {
	if got := NarrowInstrs(MaxInstrs); got != MaxInstrs {
		t.Fatalf("NarrowInstrs(MaxInstrs) = %d", got)
	}
	for _, n := range []int64{-1, MaxInstrs + 1, 1 << 40} {
		rs, tail := (&Strided{StrideBytes: 64, Count: 3, InstrsPerRef: n}).Emit(nil)
		if _, err := NewRecorded(rs, tail); !errors.Is(err, ErrInstrsRange) {
			t.Errorf("InstrsPerRef %d: NewRecorded error = %v, want ErrInstrsRange", n, err)
		}
	}
}

// TestEmitAppendsAfterDst pins Emit's append contract for every generator:
// emitting after existing references leaves them in place and appends
// exactly the stream an empty destination receives (Interleave merges in
// place, so this is not automatic).
func TestEmitAppendsAfterDst(t *testing.T) {
	prefix := []Ref{{Addr: 1, Instrs: 1}, {Addr: 2, Write: true}}
	for name, g := range fixtures(t) {
		want, wantTail := g.Emit(nil)
		got, tail := g.Emit(append(make([]Ref, 0, 4096), prefix...))
		if tail != wantTail || !slices.Equal(got[:len(prefix)], prefix) || !slices.Equal(got[len(prefix):], want) {
			t.Errorf("%s: emitting after %d references changed the stream", name, len(prefix))
		}
	}
}

func TestEmpty(t *testing.T) {
	if rs, tail := (Empty{}).Emit(nil); len(rs) != 0 || tail != 0 {
		t.Fatalf("Empty emitted %d refs and tail %d", len(rs), tail)
	}
}

func TestCompute(t *testing.T) {
	if rs, tail := (Compute{N: 123}).Emit(nil); len(rs) != 0 || tail != 123 {
		t.Fatalf("Compute emitted %d refs and tail %d, want 0 and 123", len(rs), tail)
	}
}

func TestPoints(t *testing.T) {
	g := NewPoints([]Ref{{Addr: 0, Instrs: 2}, {Addr: 64, Write: true, Instrs: 3}}, 5)
	got, tail := g.Emit(nil)
	if len(got) != 2 || got[1].Addr != 64 || !got[1].Write || tail != 5 {
		t.Fatalf("unexpected stream %+v, tail %d", got, tail)
	}
	if n := streamInstrs(got, tail); n != 10 {
		t.Fatalf("instructions = %d, want 10", n)
	}
	// Emitting again replays the stream identically.
	if again, _ := g.Emit(nil); !slices.Equal(again, got) {
		t.Fatalf("replay %+v, want %+v", again, got)
	}
}

func TestScanAddressesAndCounts(t *testing.T) {
	rs, tail := (&Scan{Base: 1 << 20, Bytes: 1024, LineBytes: 128, InstrsPerRef: 4, Passes: 1}).Emit(nil)
	if len(rs) != 8 {
		t.Fatalf("emitted %d refs, want 8", len(rs))
	}
	if n := streamInstrs(rs, tail); n != 32 {
		t.Fatalf("instructions = %d, want 32", n)
	}
	for i, r := range rs {
		want := uint64(1<<20 + i*128)
		if r.Addr != want {
			t.Fatalf("ref %d addr=%d, want %d", i, r.Addr, want)
		}
		if r.Instrs != 4 {
			t.Fatalf("ref %d instrs=%d, want 4", i, r.Instrs)
		}
	}
}

func TestScanMultiplePasses(t *testing.T) {
	rs, _ := (&Scan{Base: 0, Bytes: 256, LineBytes: 64, Passes: 3}).Emit(nil)
	if len(rs) != 12 {
		t.Fatalf("emitted %d, want 12", len(rs))
	}
	// The second pass revisits the same addresses.
	if rs[0].Addr != rs[4].Addr || rs[3].Addr != rs[7].Addr {
		t.Fatalf("passes do not revisit addresses: %+v", rs)
	}
}

func TestScanRoundsUpPartialLine(t *testing.T) {
	if rs, _ := (&Scan{Base: 0, Bytes: 100, LineBytes: 64, Passes: 1}).Emit(nil); len(rs) != 2 {
		t.Fatalf("emitted %d refs, want 2 (100 bytes spans 2 lines)", len(rs))
	}
}

func TestScanZeroPassesTreatedAsOne(t *testing.T) {
	if rs, _ := (&Scan{Base: 0, Bytes: 128, LineBytes: 64}).Emit(nil); len(rs) != 2 {
		t.Fatalf("emitted %d refs, want 2", len(rs))
	}
}

func TestStrided(t *testing.T) {
	rs, tail := (&Strided{Base: 1000, StrideBytes: 256, Count: 4, InstrsPerRef: 7, Write: true}).Emit(nil)
	if len(rs) != 4 {
		t.Fatalf("emitted %d, want 4", len(rs))
	}
	for i, r := range rs {
		if r.Addr != uint64(1000+256*i) {
			t.Fatalf("ref %d addr=%d", i, r.Addr)
		}
		if !r.Write {
			t.Fatalf("ref %d should be a write", i)
		}
	}
	if n := streamInstrs(rs, tail); n != 28 {
		t.Fatalf("instructions = %d, want 28", n)
	}
}

func TestRandomDeterministicAndInRange(t *testing.T) {
	mk := func() *Random {
		return &Random{Base: 4096, Bytes: 8192, LineBytes: 64, Count: 200, Seed: 42, InstrsPerRef: 3}
	}
	a, _ := mk().Emit(nil)
	b, _ := mk().Emit(nil)
	if len(a) != 200 || len(b) != 200 {
		t.Fatalf("lengths %d, %d, want 200", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ref %d differs between identical seeds: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Addr < 4096 || a[i].Addr >= 4096+8192 {
			t.Fatalf("ref %d addr %d outside region", i, a[i].Addr)
		}
		if a[i].Addr%64 != 0 {
			t.Fatalf("ref %d addr %d not line aligned", i, a[i].Addr)
		}
	}
}

func TestRandomDifferentSeedsDiffer(t *testing.T) {
	a, _ := (&Random{Bytes: 1 << 20, LineBytes: 64, Count: 64, Seed: 1}).Emit(nil)
	b, _ := (&Random{Bytes: 1 << 20, LineBytes: 64, Count: 64, Seed: 2}).Emit(nil)
	same := 0
	for i := range a {
		if a[i].Addr == b[i].Addr {
			same++
		}
	}
	if same == len(a) {
		t.Fatalf("different seeds produced identical streams")
	}
}

// TestRandomResetReplays pins that a generator keeps no PRNG state: emitting
// it again replays the identical pseudo-random stream.
func TestRandomResetReplays(t *testing.T) {
	g := &Random{Bytes: 1 << 16, LineBytes: 64, Count: 50, Seed: 7}
	a, _ := g.Emit(nil)
	b, _ := g.Emit(nil)
	if !slices.Equal(a, b) {
		t.Fatalf("second emission differs from the first")
	}
}

func TestConcat(t *testing.T) {
	a := &Scan{Base: 0, Bytes: 128, LineBytes: 64, InstrsPerRef: 1}
	b := &Scan{Base: 1024, Bytes: 128, LineBytes: 64, InstrsPerRef: 2}
	rs, tail := NewConcat(NewWithTail(a, 5), nil, b).Emit(nil)
	if len(rs) != 4 {
		t.Fatalf("emitted %d refs, want 4", len(rs))
	}
	if rs[0].Addr != 0 || rs[2].Addr != 1024 {
		t.Fatalf("unexpected order %+v", rs)
	}
	// Every child's trailing instructions follow the last reference.
	if tail != 5 || streamInstrs(rs, tail) != 2+4+5 {
		t.Fatalf("tail %d, instructions %d; want 5 and 11", tail, streamInstrs(rs, tail))
	}
}

func TestInterleave(t *testing.T) {
	a := &Strided{Base: 0, StrideBytes: 64, Count: 3, InstrsPerRef: 1}
	b := &Strided{Base: 1 << 20, StrideBytes: 64, Count: 2, InstrsPerRef: 1}
	for _, c := range []struct {
		g        Gen
		wantHigh []bool
	}{
		{NewInterleave(a, b), []bool{false, true, false, true, false}}, // a b a b a
		{NewInterleave(b, a), []bool{true, false, true, false, false}}, // b a b a, then a
	} {
		rs, _ := c.g.Emit(nil)
		if len(rs) != len(c.wantHigh) {
			t.Fatalf("emitted %d, want %d", len(rs), len(c.wantHigh))
		}
		for i, r := range rs {
			if high := r.Addr >= 1<<20; high != c.wantHigh[i] {
				t.Fatalf("position %d from wrong stream (addr=%d)", i, r.Addr)
			}
		}
	}
}

func TestRepeat(t *testing.T) {
	inner := &Strided{Base: 0, StrideBytes: 64, Count: 3, InstrsPerRef: 2}
	rs, tail := NewRepeat(inner, 4).Emit(nil)
	if len(rs) != 12 || streamInstrs(rs, tail) != 24 {
		t.Fatalf("emitted %d refs and %d instructions, want 12 and 24", len(rs), streamInstrs(rs, tail))
	}
	if rs[0].Addr != rs[3].Addr {
		t.Fatalf("repeat rounds do not revisit addresses")
	}
	// Every round's trailing instructions follow the last reference.
	if _, tail := NewRepeat(NewWithTail(inner, 1), 4).Emit(nil); tail != 4 {
		t.Fatalf("tail = %d, want 4", tail)
	}
	if rs, tail := NewRepeat(inner, 0).Emit(nil); len(rs) != 0 || tail != 0 {
		t.Fatalf("zero rounds emitted %d refs and tail %d", len(rs), tail)
	}
}

func TestWithTail(t *testing.T) {
	rs, tail := NewWithTail(&Strided{Base: 0, StrideBytes: 64, Count: 2, InstrsPerRef: 5}, 100).Emit(nil)
	if len(rs) != 2 || tail != 100 || streamInstrs(rs, tail) != 110 {
		t.Fatalf("emitted %d refs, tail %d, %d instructions; want 2, 100, 110", len(rs), tail, streamInstrs(rs, tail))
	}
}

// Property: every generator emits exactly the references its parameters
// call for, retiring the instructions they imply.
func TestPropertyLenMatchesDrain(t *testing.T) {
	f := func(baseSeed uint64, nSmall uint8, stride uint8, passes uint8) bool {
		n := int64(nSmall%64) + 1
		st := int64(stride%8+1) * 64
		p := int64(passes%3) + 1
		all := NewConcat(
			&Scan{Base: baseSeed % (1 << 30), Bytes: n * 64, LineBytes: 64, InstrsPerRef: 2, Passes: int(p)},
			&Strided{Base: baseSeed % (1 << 30), StrideBytes: st, Count: n, InstrsPerRef: 1},
			&Random{Base: baseSeed % (1 << 30), Bytes: n * 256, LineBytes: 64, Count: n, Seed: baseSeed},
		)
		rs, tail := all.Emit(nil)
		return int64(len(rs)) == n*p+2*n && streamInstrs(rs, tail) == 2*n*p+n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: emitting a generator again replays an identical stream.
func TestPropertyResetReplay(t *testing.T) {
	f := func(seed uint64, count uint8) bool {
		g := NewConcat(
			&Random{Bytes: 1 << 18, LineBytes: 64, Count: int64(count%50) + 1, Seed: seed},
			&Scan{Base: 1 << 20, Bytes: int64(count%20+1) * 64, LineBytes: 64},
		)
		a, ta := g.Emit(nil)
		b, tb := g.Emit(nil)
		return ta == tb && slices.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMul64(t *testing.T) {
	hi, lo := mul64(1<<32, 1<<32)
	if hi != 1 || lo != 0 {
		t.Fatalf("mul64(2^32,2^32) = (%d,%d), want (1,0)", hi, lo)
	}
	hi, lo = mul64(0xffffffffffffffff, 2)
	if hi != 1 || lo != 0xfffffffffffffffe {
		t.Fatalf("mul64 overflow case wrong: (%d,%d)", hi, lo)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := &prng.SplitMix64{State: 99}
	for i := 0; i < 1000; i++ {
		v := intn(r, 17)
		if v >= 17 {
			t.Fatalf("intn(17) produced %d", v)
		}
	}
}
