package experiments

import (
	"fmt"
	"strings"

	"cmpsched/internal/cache"
	"cmpsched/internal/stats"
	"cmpsched/internal/sweep"
)

// SchedulerResult holds every row of the scheduler comparison: each
// benchmark on each core count and L2 topology under every scheduler of
// SchedulerComparisonSchedulers.  A row's SchedMetrics carry the
// work-stealing variants' "steals" and the space-bounded scheduler's
// "migrations" (tasks that ran away from their pinned pool).
type SchedulerResult struct{ Table }

// SchedulerComparisonSchedulers lists the schedulers the comparison
// evaluates: the paper's pair, the locality-guided stealing variant and the
// space-bounded scheduler.
func SchedulerComparisonSchedulers() []string {
	return []string{"pdf", "ws", "ws:nearest", "sb"}
}

// SchedulerComparisonWorkloads lists the benchmarks the comparison runs:
// the paper's two regular benchmarks analysed in most detail plus one
// irregular graph kernel.
func SchedulerComparisonWorkloads() []string {
	return []string{"mergesort", "hashjoin", "bfs"}
}

// SchedulerComparisonTopologies lists the topology axis, from fully shared
// to fully private.
func SchedulerComparisonTopologies() []cache.Topology {
	return []cache.Topology{cache.Shared(), cache.Clustered(4), cache.Private()}
}

// SchedulerComparison evaluates the scheduler axis the registry opened up:
// every scheduler of SchedulerComparisonSchedulers on every topology of
// SchedulerComparisonTopologies, per benchmark.  It asks two questions the
// paper's PDF-vs-WS pair cannot: does pinning tasks to the smallest cache
// that fits their working set (sb) recover PDF-like constructive sharing on
// a shared L2 while keeping WS-like locality on sliced ones, and does
// steering steals toward the thief's own L2 slice (ws:nearest) claw back
// any of the miss penalty clustered topologies inflict on classic WS?  On
// the shared and private topologies ws:nearest's victim order provably
// degenerates to classic WS's forward scan, so its rows there double as an
// end-to-end determinism check (identical cycle counts), which the shape
// test pins.
func SchedulerComparison(opts Options) (*SchedulerResult, error) {
	t, err := opts.sweepTable("scheduler comparison", sweep.Spec{
		Workloads:  SchedulerComparisonWorkloads(),
		Schedulers: SchedulerComparisonSchedulers(),
		Topologies: topologyNames(SchedulerComparisonTopologies()),
		Cores:      opts.coresOrDefault([]int{8}),
	}, "")
	if err != nil {
		return nil, err
	}
	return &SchedulerResult{t}, nil
}

// Best returns the scheduler with the fewest L2 misses per 1000
// instructions at one grid point, or "".
func (r *SchedulerResult) Best(p Point) string {
	best, bestMPKI := "", 0.0
	for _, sc := range SchedulerComparisonSchedulers() {
		row := r.Get(p, sc)
		if row == nil {
			continue
		}
		if best == "" || row.L2MissesPerKiloInstr() < bestMPKI {
			best, bestMPKI = sc, row.L2MissesPerKiloInstr()
		}
	}
	return best
}

// String renders one panel per workload: topologies down, schedulers within
// each topology, with the per-scheduler miss reduction relative to classic
// WS.
func (r *SchedulerResult) String() string {
	var b strings.Builder
	for _, wl := range SchedulerComparisonWorkloads() {
		rows := false
		t := stats.NewTable("cores", "topology", "sched", "cycles", "L2 misses/1000 instr", "vs ws %", "steals", "migrations", "mem util %")
		for _, row := range r.Rows {
			if row.Workload != wl {
				continue
			}
			rows = true
			vsWS := ""
			if row.Scheduler != "ws" {
				vsWS = fmt.Sprintf("%.1f", r.MissReduction(row.Point, row.Scheduler, "ws"))
			}
			t.AddRow(
				fmt.Sprint(row.Cores), row.Topology, row.Scheduler,
				fmt.Sprint(row.Cycles),
				fmt.Sprintf("%.3f", row.L2MissesPerKiloInstr()),
				vsWS,
				fmt.Sprint(row.SchedMetrics["steals"]),
				fmt.Sprint(row.SchedMetrics["migrations"]),
				fmt.Sprintf("%.1f", row.MemUtilization*100),
			)
		}
		if !rows {
			continue
		}
		fmt.Fprintf(&b, "Scheduler comparison: %s (default configurations, capacity scale 1/%d)\n", wl, r.Scale)
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	return b.String()
}
