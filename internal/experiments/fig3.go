package experiments

import (
	"fmt"
	"strings"

	"cmpsched/internal/stats"
	"cmpsched/internal/sweep"
)

// Figure3Result holds the execution-time curves of Figure 3: each benchmark
// on each 45 nm configuration under PDF and WS.
type Figure3Result struct{ Table }

// Figure3Workloads lists the benchmarks of Figure 3.
func Figure3Workloads() []string { return []string{"hashjoin", "mergesort"} }

// Figure3 reproduces Figure 3: execution time of Hash Join and Mergesort
// under PDF and WS across the 45 nm single-technology design space (Table 3),
// where adding cores shrinks the shared L2.
func Figure3(opts Options) (*Figure3Result, error) {
	t, err := opts.sweepTable("figure3", sweep.Spec{Workloads: Figure3Workloads(), Tables: []string{sweep.Table45nm}, Cores: opts.Cores}, "")
	if err != nil {
		return nil, err
	}
	return &Figure3Result{t}, nil
}

// BestCores returns the core count with the lowest execution time for the
// workload under the scheduler (the design-point discussion of §5.2).
func (r *Figure3Result) BestCores(workload, scheduler string) (cores int, cycles int64) {
	for _, row := range r.Rows {
		if row.Workload != workload || row.Scheduler != scheduler {
			continue
		}
		if cycles == 0 || row.Cycles < cycles {
			cycles = row.Cycles
			cores = row.Cores
		}
	}
	return cores, cycles
}

// DesignFreedomCores returns the core counts at which PDF performs at least
// as well as the best WS point — the paper's argument that PDF broadens the
// designer's choice of design points.
func (r *Figure3Result) DesignFreedomCores(workload string) []int {
	_, bestWS := r.BestCores(workload, "ws")
	var out []int
	for _, row := range r.Rows {
		if row.Workload == workload && row.Scheduler == "pdf" && row.Cycles <= bestWS {
			out = append(out, row.Cores)
		}
	}
	return out
}

// String renders the Figure 3 series.
func (r *Figure3Result) String() string {
	var b strings.Builder
	for _, wl := range Figure3Workloads() {
		fmt.Fprintf(&b, "Figure 3: %s execution time, 45nm single technology (capacity scale 1/%d)\n", wl, r.Scale)
		t := stats.NewTable("cores", "L2 KB", "pdf cycles", "ws cycles", "pdf/ws", "mem util pdf %")
		for _, row := range r.Rows {
			if row.Workload != wl || row.Scheduler != "pdf" {
				continue
			}
			t.AddRow(
				fmt.Sprint(row.Cores),
				fmt.Sprintf("%.0f", float64(row.Config.L2.SizeBytes)/1024),
				fmt.Sprint(row.Cycles),
				fmt.Sprint(r.Cycles(row.Point, "ws")),
				fmt.Sprintf("%.2f", r.Speedup(row.Point, "pdf", "ws")),
				fmt.Sprintf("%.1f", row.MemUtilization*100),
			)
		}
		b.WriteString(t.String())
		pdfBest, _ := r.BestCores(wl, "pdf")
		wsBest, _ := r.BestCores(wl, "ws")
		fmt.Fprintf(&b, "best design point: pdf=%d cores, ws=%d cores; pdf matches best-WS at cores %v\n\n",
			pdfBest, wsBest, r.DesignFreedomCores(wl))
	}
	return b.String()
}
