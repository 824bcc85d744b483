package experiments

import (
	"strings"
	"testing"
)

// TestSchedulerComparisonShape asserts the comparison's qualitative shape
// at quick scale:
//
//   - the space-bounded scheduler's seq-ordered pools must not miss more
//     than classic WS on the shared L2 for mergesort (constructive sharing:
//     the acceptance criterion of the registry PR), and
//   - ws:nearest must be cycle-identical to classic ws on the shared and
//     private topologies, where its victim order provably degenerates to
//     WS's forward scan — a free end-to-end determinism check.
func TestSchedulerComparisonShape(t *testing.T) {
	res, err := SchedulerComparison(quick(8))
	if err != nil {
		t.Fatalf("SchedulerComparison: %v", err)
	}

	shared := Point{Workload: "mergesort", Cores: 8, Topology: "shared"}
	sb := res.Get(shared, "sb")
	ws := res.Get(shared, "ws")
	if sb == nil || ws == nil {
		t.Fatalf("missing mergesort shared rows: sb=%v ws=%v", sb, ws)
	}
	if sb.L2MissesPerKiloInstr() > ws.L2MissesPerKiloInstr() {
		t.Errorf("space-bounded should not miss more than WS on the shared L2 for mergesort: sb %.3f > ws %.3f MPKI",
			sb.L2MissesPerKiloInstr(), ws.L2MissesPerKiloInstr())
	}

	for _, wl := range SchedulerComparisonWorkloads() {
		for _, topo := range []string{"shared", "private"} {
			p := Point{Workload: wl, Cores: 8, Topology: topo}
			near := res.Get(p, "ws:nearest")
			classic := res.Get(p, "ws")
			if near == nil || classic == nil {
				t.Fatalf("%s/%s: missing ws rows", wl, topo)
			}
			if near.Cycles != classic.Cycles {
				t.Errorf("%s/%s: ws:nearest (%d cycles) must equal classic ws (%d cycles) where the victim orders coincide",
					wl, topo, near.Cycles, classic.Cycles)
			}
		}
	}
}

// TestSchedulerComparisonStructure checks the grid shape, per-row
// bookkeeping and rendering.
func TestSchedulerComparisonStructure(t *testing.T) {
	res, err := SchedulerComparison(quick(8))
	if err != nil {
		t.Fatalf("SchedulerComparison: %v", err)
	}
	workloads := SchedulerComparisonWorkloads()
	topos := SchedulerComparisonTopologies()
	schedulers := SchedulerComparisonSchedulers()
	if want := len(workloads) * len(topos) * len(schedulers); len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	for _, wl := range workloads {
		for _, topo := range topos {
			p := Point{Workload: wl, Cores: 8, Topology: topo.String()}
			for _, sc := range schedulers {
				row := res.Get(p, sc)
				if row == nil {
					t.Fatalf("missing %s/8/%s/%s row", wl, topo, sc)
				}
				if row.Cycles <= 0 || row.L2MissesPerKiloInstr() < 0 {
					t.Errorf("degenerate row %+v", row)
				}
			}
			if best := res.Best(p); res.Get(p, best) == nil {
				t.Errorf("%s/%s: Best() returned unknown scheduler %q", wl, topo, best)
			}
		}
	}
	// Classic WS must record steals somewhere in the grid; sb must record
	// its pool bookkeeping fields without poisoning other schedulers'.
	var wsSteals int64
	for _, row := range res.Rows {
		if row.Scheduler == "ws" {
			wsSteals += row.SchedMetrics["steals"]
		}
		if row.Scheduler == "pdf" && (row.SchedMetrics["steals"] != 0 || row.SchedMetrics["migrations"] != 0) {
			t.Errorf("pdf row carries stealing counters: %+v", row)
		}
	}
	if wsSteals == 0 {
		t.Errorf("classic WS recorded no steals across the whole grid")
	}
	if res.Get(Point{Workload: "mergesort", Cores: 8, Topology: "shared"}, "nope") != nil {
		t.Errorf("Row returned a match for an unknown scheduler")
	}
	out := res.String()
	for _, want := range []string{"Scheduler comparison: mergesort", "ws:nearest", "sb", "clustered:4", "vs ws %"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q", want)
		}
	}
}
