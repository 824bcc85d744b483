package graph

import (
	"slices"
	"testing"

	"cmpsched/internal/refs"
)

func mustNew(t *testing.T, cfg Config) *CSR {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return g
}

// checkCSR verifies structural invariants: monotone offsets, sorted
// deduplicated self-loop-free adjacency, symmetric edges.
func checkCSR(t *testing.T, g *CSR) {
	t.Helper()
	if int64(len(g.Offsets)) != g.N+1 {
		t.Fatalf("%s: offsets len %d, want %d", g.Name, len(g.Offsets), g.N+1)
	}
	if g.Offsets[g.N] != int64(len(g.Edges)) {
		t.Fatalf("%s: offsets[N]=%d, edges=%d", g.Name, g.Offsets[g.N], len(g.Edges))
	}
	has := func(u, v int64) bool {
		for _, w := range g.Adj(u) {
			if int64(w) == v {
				return true
			}
		}
		return false
	}
	for v := int64(0); v < g.N; v++ {
		if g.Offsets[v] > g.Offsets[v+1] {
			t.Fatalf("%s: offsets not monotone at %d", g.Name, v)
		}
		adj := g.Adj(v)
		for i, w := range adj {
			if int64(w) == v {
				t.Fatalf("%s: self loop at %d", g.Name, v)
			}
			if i > 0 && adj[i-1] >= w {
				t.Fatalf("%s: adjacency of %d not sorted/deduped: %v", g.Name, v, adj)
			}
			if !has(int64(w), v) {
				t.Fatalf("%s: edge %d->%d has no reverse", g.Name, v, w)
			}
		}
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	for _, family := range Families() {
		cfg := Config{Family: family, Vertices: 1 << 10, AvgDegree: 8, Seed: 7}
		a := mustNew(t, cfg)
		b := mustNew(t, cfg)
		checkCSR(t, a)
		if a.N != b.N || len(a.Edges) != len(b.Edges) {
			t.Fatalf("%s: rebuild differs in shape", family)
		}
		for i := range a.Edges {
			if a.Edges[i] != b.Edges[i] {
				t.Fatalf("%s: rebuild differs at edge %d", family, i)
			}
		}
	}
}

func TestUniformSeedChangesEdges(t *testing.T) {
	a := mustNew(t, Config{Vertices: 1 << 10, Seed: 1})
	b := mustNew(t, Config{Vertices: 1 << 10, Seed: 2})
	same := len(a.Edges) == len(b.Edges)
	if same {
		for i := range a.Edges {
			if a.Edges[i] != b.Edges[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatalf("seeds 1 and 2 produced identical graphs")
	}
}

func TestUniformHitsTargetDegree(t *testing.T) {
	g := mustNew(t, Config{Vertices: 1 << 12, AvgDegree: 8})
	checkCSR(t, g)
	avg := float64(g.NumEdges()) / float64(g.N)
	if avg < 6 || avg > 8.1 {
		t.Fatalf("uniform avg degree = %.2f, want near 8", avg)
	}
}

func TestGridShape(t *testing.T) {
	g := mustNew(t, Config{Family: FamilyGrid, Vertices: 64})
	checkCSR(t, g)
	if g.N != 64 {
		t.Fatalf("grid N = %d, want 64", g.N)
	}
	// 2 * (2 * 8 * 7) directed edge slots in an 8x8 lattice.
	if g.NumEdges() != 224 {
		t.Fatalf("grid edges = %d, want 224", g.NumEdges())
	}
	if d := g.Degree(0); d != 2 {
		t.Fatalf("corner degree = %d, want 2", d)
	}
	if d := g.Degree(9); d != 4 { // interior vertex (row 1, col 1)
		t.Fatalf("interior degree = %d, want 4", d)
	}
	// Vertices round down to a square.
	if g2 := mustNew(t, Config{Family: FamilyGrid, Vertices: 70}); g2.N != 64 {
		t.Fatalf("grid rounds to %d, want 64", g2.N)
	}
}

func TestRMATIsSkewed(t *testing.T) {
	g := mustNew(t, Config{Family: FamilyRMAT, Vertices: 1 << 12, AvgDegree: 8})
	checkCSR(t, g)
	if g.N != 1<<12 {
		t.Fatalf("rmat N = %d, want %d", g.N, 1<<12)
	}
	avg := float64(g.NumEdges()) / float64(g.N)
	if g.MaxDegree() < int64(6*avg) {
		t.Fatalf("rmat max degree %d not skewed vs avg %.1f", g.MaxDegree(), avg)
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	if _, err := New(Config{Family: "torus"}); err == nil {
		t.Fatalf("unknown family accepted")
	}
	if _, err := New(Config{Vertices: 1}); err == nil {
		t.Fatalf("single-vertex graph accepted")
	}
	// The grid rounds down to a square, so below 2x2 it must refuse rather
	// than silently return a single-vertex lattice.
	if _, err := New(Config{Family: FamilyGrid, Vertices: 3}); err == nil {
		t.Fatalf("sub-2x2 grid accepted")
	}
	if g, err := New(Config{Family: FamilyGrid, Vertices: 4}); err != nil || g.N != 4 {
		t.Fatalf("2x2 grid: %v, %+v", err, g)
	}
	if _, err := New(Config{AvgDegree: -2}); err == nil {
		t.Fatalf("negative degree accepted")
	}
	// Vertex ids are int32: oversized counts must be rejected, not wrapped.
	if _, err := New(Config{Vertices: 1 << 32}); err == nil {
		t.Fatalf("int32-overflowing vertex count accepted")
	}
	if _, err := New(Config{Family: FamilyRMAT, Vertices: 1<<30 + 1}); err == nil {
		t.Fatalf("rmat vertex count that rounds past int32 accepted")
	}
}

func TestTraceDedupesConsecutiveLines(t *testing.T) {
	tr := newTrace(Costs{}.withDefaults())
	tr.touch(0, false, 5)
	tr.touch(64, false, 7)  // same line: collapses, instrs accumulate
	tr.touch(100, true, 1)  // same line again, upgrades to write
	tr.touch(128, false, 2) // next line
	tr.touch(0, false, 3)   // back to line 0: a new reference
	p := tr.gen(10)
	want := []refs.Ref{
		{Addr: 0, Write: true, Instrs: 5},
		{Addr: 128, Write: false, Instrs: 7 + 1 + 2},
		{Addr: 0, Write: false, Instrs: 3},
	}
	if !slices.Equal(p.Refs, want) {
		t.Fatalf("refs = %+v, want %+v", p.Refs, want)
	}
	if p.Tail != 10 {
		t.Fatalf("Tail = %d, want 10", p.Tail)
	}
}

func TestTraceSpan(t *testing.T) {
	tr := newTrace(Costs{}.withDefaults())
	tr.span(256, 300, true, 2) // lines 2, 3, 4
	got := tr.gen(0).Refs
	if len(got) != 3 || got[0].Addr != 256 || got[2].Addr != 512 {
		t.Fatalf("span refs = %+v", got)
	}
	for _, r := range got {
		if !r.Write || r.Instrs != 2 {
			t.Fatalf("span ref %+v", r)
		}
	}
}

func TestChunkRespectsBudgetAndCoverage(t *testing.T) {
	weights := []int64{5, 5, 5, 50, 1, 1, 1, 1}
	chunks := chunk(int64(len(weights)), 10, func(i int64) int64 { return weights[i] })
	var covered int64
	prevEnd := int64(0)
	for _, c := range chunks {
		if c[0] != prevEnd || c[1] <= c[0] {
			t.Fatalf("chunks not contiguous: %v", chunks)
		}
		prevEnd = c[1]
		covered += c[1] - c[0]
	}
	if covered != int64(len(weights)) || prevEnd != int64(len(weights)) {
		t.Fatalf("chunks do not cover the range: %v", chunks)
	}
	// The oversized item 3 must still land in a chunk of its own tail.
	if len(chunks) < 3 {
		t.Fatalf("expected several chunks, got %v", chunks)
	}
	// Single chunk when the budget swallows everything.
	if one := chunk(4, 1<<30, func(int64) int64 { return 1 }); len(one) != 1 {
		t.Fatalf("huge budget: %v", one)
	}
	if none := chunk(0, 10, func(int64) int64 { return 1 }); len(none) != 0 {
		t.Fatalf("empty range: %v", none)
	}
}
