package experiments

import (
	"strings"
	"testing"

	"cmpsched/internal/sweep"
)

// TestTopologyComparisonQualitative asserts the paper's central
// shared-vs-private claim on the topology comparison: PDF's L2-MPKI
// advantage over WS is substantial on the shared L2 and collapses on
// per-core private slices, for the sharing-sensitive workloads.
func TestTopologyComparisonQualitative(t *testing.T) {
	res, err := TopologyComparison(quick(8))
	if err != nil {
		t.Fatalf("TopologyComparison: %v", err)
	}
	for _, wl := range []string{"mergesort", "hashjoin"} {
		shared := res.MissReduction(Point{Workload: wl, Cores: 8, Topology: "shared"}, "pdf", "ws")
		private := res.MissReduction(Point{Workload: wl, Cores: 8, Topology: "private"}, "pdf", "ws")
		if shared < 3 {
			t.Errorf("%s: PDF should beat WS by >= 3%% L2 MPKI on the shared L2, got %.1f%%", wl, shared)
		}
		if collapse := res.GapCollapse(Point{Workload: wl, Cores: 8}); collapse < 3 {
			t.Errorf("%s: the PDF advantage should collapse on private slices (shared %.1f%%, private %.1f%%, collapse %.1f points)",
				wl, shared, private, collapse)
		}
	}
}

// TestTopologyComparisonStructure checks the grid shape, the per-row
// bookkeeping and the rendering.
func TestTopologyComparisonStructure(t *testing.T) {
	res, err := TopologyComparison(quick(8))
	if err != nil {
		t.Fatalf("TopologyComparison: %v", err)
	}
	topos := TopologyComparisonTopologies()
	// 3 workloads x 1 core count x len(topos) topologies x 2 schedulers.
	if want := 3 * len(topos) * 2; len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	for _, topo := range topos {
		row := res.Get(Point{Workload: "mergesort", Cores: 8, Topology: topo.String()}, "pdf")
		if row == nil {
			t.Fatalf("missing mergesort/8/%s/pdf row", topo)
		}
		if row.Cycles <= 0 || row.L2MissesPerKiloInstr() <= 0 {
			t.Errorf("degenerate row %+v", row)
		}
	}
	if res.Get(Point{Workload: "mergesort", Cores: 8, Topology: "shared"}, "nope") != nil {
		t.Errorf("Row returned a match for an unknown scheduler")
	}
	out := res.String()
	for _, want := range []string{"Topology comparison: mergesort", "private", "clustered:2", "PDF miss reduction %"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q", want)
		}
	}
}

// TestTopologyComparisonSharesSweepCache checks that topology points are
// cache-addressable like any other sweep job: a second run against the same
// cache is served entirely from it.
func TestTopologyComparisonSharesSweepCache(t *testing.T) {
	opts := quick(8)
	opts.Cache = sweep.NewMemoryCache()
	if _, err := TopologyComparison(opts); err != nil {
		t.Fatalf("warm run: %v", err)
	}
	hits0, misses0 := opts.Cache.Stats()
	if hits0 != 0 || misses0 == 0 {
		t.Fatalf("warm run: hits=%d misses=%d", hits0, misses0)
	}
	if _, err := TopologyComparison(opts); err != nil {
		t.Fatalf("cached run: %v", err)
	}
	hits, misses := opts.Cache.Stats()
	if hits != misses0 || misses != misses0 {
		t.Errorf("cached run should be all hits: hits=%d misses=%d (warm misses=%d)", hits, misses, misses0)
	}
}
