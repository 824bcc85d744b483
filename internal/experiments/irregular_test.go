package experiments

import (
	"strings"
	"testing"

	"cmpsched/internal/sweep"
)

// TestIrregularComparisonStructure is the figure's golden structural
// contract: full grid coverage (kernels x families x topologies x
// schedulers), non-degenerate metrics on every row, and a rendering that
// names every panel.
func TestIrregularComparisonStructure(t *testing.T) {
	res, err := IrregularComparison(quick(8))
	if err != nil {
		t.Fatalf("IrregularComparison: %v", err)
	}
	kernels := GraphKernels()
	families := IrregularFamilies()
	topos := IrregularTopologies()
	if want := len(kernels) * len(families) * len(topos) * 2; len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	for _, kernel := range kernels {
		for _, family := range families {
			for _, topo := range topos {
				for _, sched := range []string{"pdf", "ws"} {
					row := res.Get(Point{Workload: kernel, Input: family, Cores: 8, Topology: topo.String()}, sched)
					if row == nil {
						t.Fatalf("missing row %s/%s/%s/%s", kernel, family, topo, sched)
					}
					if row.Cores != 8 {
						t.Errorf("%s/%s/%s/%s: cores = %d", kernel, family, topo, sched, row.Cores)
					}
					if row.Cycles <= 0 || row.L2MissesPerKiloInstr() <= 0 || row.MemUtilization <= 0 {
						t.Errorf("degenerate row %+v", row)
					}
				}
			}
		}
	}
	if res.Get(Point{Workload: "bfs", Input: "grid", Cores: 8, Topology: "shared"}, "nope") != nil {
		t.Errorf("Row matched an unknown scheduler")
	}
	out := res.String()
	for _, want := range []string{
		"Irregularity study: bfs", "Irregularity study: sssp",
		"Irregularity study: pagerank", "Irregularity study: triangles",
		"grid", "uniform", "rmat", "private", "PDF miss reduction %",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q", want)
		}
	}
}

// TestIrregularComparisonMetricsAreConsistent checks the derived metrics
// against their defining rows.
func TestIrregularComparisonMetricsAreConsistent(t *testing.T) {
	res, err := IrregularComparison(quick(8))
	if err != nil {
		t.Fatalf("IrregularComparison: %v", err)
	}
	shared := Point{Workload: "bfs", Input: "uniform", Cores: 8, Topology: "shared"}
	private := Point{Workload: "bfs", Input: "uniform", Cores: 8, Topology: "private"}
	pdf := res.Get(shared, "pdf")
	ws := res.Get(shared, "ws")
	wantRed := (ws.L2MissesPerKiloInstr() - pdf.L2MissesPerKiloInstr()) / ws.L2MissesPerKiloInstr() * 100
	if got := res.MissReduction(shared, "pdf", "ws"); got != wantRed {
		t.Errorf("MissReduction = %f, want %f", got, wantRed)
	}
	wantSpeed := float64(ws.Cycles) / float64(pdf.Cycles)
	if got := res.Speedup(shared, "pdf", "ws"); got != wantSpeed {
		t.Errorf("Speedup = %f, want %f", got, wantSpeed)
	}
	collapse := res.MissReduction(shared, "pdf", "ws") - res.MissReduction(private, "pdf", "ws")
	if got := res.GapCollapse(Point{Workload: "bfs", Input: "uniform", Cores: 8}); got != collapse {
		t.Errorf("GapCollapse = %f, want %f", got, collapse)
	}
	if got := res.MissReduction(Point{Workload: "bfs", Input: "nope", Cores: 8, Topology: "shared"}, "pdf", "ws"); got != 0 {
		t.Errorf("missing family should yield 0, got %f", got)
	}
}

// TestIrregularComparisonSharesSweepCache checks the figure's points are
// cache-addressable like any other sweep job.
func TestIrregularComparisonSharesSweepCache(t *testing.T) {
	opts := quick(8)
	opts.Cache = sweep.NewMemoryCache()
	if _, err := IrregularComparison(opts); err != nil {
		t.Fatalf("warm run: %v", err)
	}
	hits0, misses0 := opts.Cache.Stats()
	if hits0 != 0 || misses0 == 0 {
		t.Fatalf("warm run: hits=%d misses=%d", hits0, misses0)
	}
	if _, err := IrregularComparison(opts); err != nil {
		t.Fatalf("cached run: %v", err)
	}
	hits, misses := opts.Cache.Stats()
	if hits != misses0 || misses != misses0 {
		t.Errorf("cached run should be all hits: hits=%d misses=%d (warm misses=%d)", hits, misses, misses0)
	}
}
