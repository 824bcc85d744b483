package experiments

import (
	"fmt"
	"strings"

	"cmpsched/internal/cache"
	"cmpsched/internal/stats"
	"cmpsched/internal/sweep"
)

// TopologyResult holds every row of the topology comparison: each benchmark
// on each core count and L2 topology under PDF and WS.
type TopologyResult struct{ Table }

// TopologyComparisonTopologies lists the topologies the comparison
// evaluates, from fully shared to fully private.
func TopologyComparisonTopologies() []cache.Topology {
	return []cache.Topology{cache.Shared(), cache.Clustered(4), cache.Clustered(2), cache.Private()}
}

// TopologyComparison evaluates the paper's shared-vs-private design axis:
// PDF and WS on the same total L2 capacity organised as one shared cache
// (the paper's machine), clustered slices, and per-core private slices.
// The paper's argument (§1, §7) is that PDF's constructive cache sharing
// needs a *shared* L2: co-scheduled tasks overlap their working sets in one
// cache.  With private slices no scheduler can make tasks share capacity,
// so the PDF-over-WS L2-MPKI advantage visible on the shared topology
// collapses — which is exactly what this comparison shows.
func TopologyComparison(opts Options) (*TopologyResult, error) {
	t, err := opts.sweepTable("topology comparison", sweep.Spec{
		Workloads:  Figure2Workloads(),
		Topologies: topologyNames(TopologyComparisonTopologies()),
		Cores:      opts.coresOrDefault([]int{8}),
	}, "")
	if err != nil {
		return nil, err
	}
	return &TopologyResult{t}, nil
}

// String renders one panel per workload: topologies down, PDF and WS
// side by side.
func (r *TopologyResult) String() string {
	return r.pdfVersusWS("Topology comparison", Figure2Workloads(), "")
}

// pdfVersusWS renders a PDF-vs-WS table one panel per workload, titled
// "<title>: <workload>", with each row's Input in a first column headed
// inputColumn unless that is "".
func (t *Table) pdfVersusWS(title string, workloads []string, inputColumn string) string {
	var b strings.Builder
	for _, wl := range workloads {
		header := []string{"cores", "topology", "sched", "cycles", "L2 misses/1000 instr", "PDF miss reduction %", "PDF/WS speedup", "mem util %"}
		if inputColumn != "" {
			header = append([]string{inputColumn}, header...)
		}
		tab, rows := stats.NewTable(header...), false
		for _, row := range t.Rows {
			if row.Workload != wl {
				continue
			}
			rows = true
			reduction, rel := "", ""
			if row.Scheduler == "pdf" {
				reduction = fmt.Sprintf("%.1f", t.MissReduction(row.Point, "pdf", "ws"))
				rel = fmt.Sprintf("%.2f", t.Speedup(row.Point, "pdf", "ws"))
			}
			cells := []string{
				fmt.Sprint(row.Cores), row.Topology, row.Scheduler,
				fmt.Sprint(row.Cycles),
				fmt.Sprintf("%.3f", row.L2MissesPerKiloInstr()),
				reduction, rel,
				fmt.Sprintf("%.1f", row.MemUtilization*100),
			}
			if inputColumn != "" {
				cells = append([]string{row.Input}, cells...)
			}
			tab.AddRow(cells...)
		}
		if !rows {
			continue
		}
		fmt.Fprintf(&b, "%s: %s (default configurations, capacity scale 1/%d)\n", title, wl, t.Scale)
		b.WriteString(tab.String())
		b.WriteString("\n")
	}
	return b.String()
}
