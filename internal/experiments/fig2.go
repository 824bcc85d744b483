package experiments

import (
	"fmt"
	"strings"

	"cmpsched/internal/stats"
	"cmpsched/internal/sweep"
)

// Figure2Result holds every row of Figure 2: each benchmark on each default
// configuration under the sequential baseline (sweep.Sequential), PDF and
// WS.
type Figure2Result struct{ Table }

// Figure2Workloads lists the benchmarks of Figure 2 in presentation order.
func Figure2Workloads() []string { return []string{"lu", "hashjoin", "mergesort"} }

// Figure2 reproduces Figure 2: PDF vs WS on the default (scaling-technology)
// configurations, reporting speedup over sequential and L2 misses per 1000
// instructions for LU (up to 16 cores, as in the paper), Hash Join and
// Mergesort (up to 32 cores).
func Figure2(opts Options) (*Figure2Result, error) {
	t, err := opts.sweepTable("figure2", sweep.Spec{Workloads: Figure2Workloads(), Cores: opts.Cores, Sequential: true}, "")
	if err != nil {
		return nil, err
	}
	return &Figure2Result{t}, nil
}

// String renders the six panels of Figure 2.
func (r *Figure2Result) String() string {
	var b strings.Builder
	for _, wl := range Figure2Workloads() {
		fmt.Fprintf(&b, "Figure 2: %s (default configurations, capacity scale 1/%d)\n", wl, r.Scale)
		t := stats.NewTable("cores", "sched", "speedup", "L2 misses/1000 instr", "mem util %", "PDF/WS speedup")
		for _, row := range r.Rows {
			if row.Workload != wl || row.Scheduler == sweep.Sequential {
				continue
			}
			rel := ""
			if row.Scheduler == "pdf" {
				rel = fmt.Sprintf("%.2f", r.Speedup(row.Point, "pdf", "ws"))
			}
			t.AddRow(
				fmt.Sprint(row.Cores), row.Scheduler,
				fmt.Sprintf("%.2f", r.Speedup(row.Point, row.Scheduler, sweep.Sequential)),
				fmt.Sprintf("%.3f", row.L2MissesPerKiloInstr()),
				fmt.Sprintf("%.1f", row.MemUtilization*100),
				rel,
			)
		}
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	return b.String()
}
