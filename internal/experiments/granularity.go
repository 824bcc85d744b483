package experiments

import (
	"fmt"
	"strings"

	"cmpsched/internal/stats"
	"cmpsched/internal/workload"
)

// GranularityResult holds the §5.4 comparison of each benchmark's original
// coarse-grained threading (Input "coarse") against the fine-grained version
// used in the paper (Input "fine"): "our fine-grained versions are up to
// 2.85X faster than the coarse-grained originals".
type GranularityResult struct{ Table }

// Granularity reproduces the §5.4 comparison on the 16-core default
// configuration: Hash Join with one thread per sub-partition (the original
// code) vs the parallelised probe, and Mergesort with a serial merge (as in
// libpmsort) vs the parallel k-way split merge.
func Granularity(opts Options) (*GranularityResult, error) {
	cfg, err := opts.scaledDefault(fixedCores)
	if err != nil {
		return nil, err
	}
	hjFine := opts.hashJoinConfig(cfg)
	hjCoarse := hjFine
	hjCoarse.CoarseGrained = true
	msFine := opts.mergesortConfig()
	msCoarse := msFine
	msCoarse.SerialMerge = true

	var g grid
	add := func(w workload.Workload, input string, params any) {
		g.add(Point{Workload: w.Name(), Input: input, Cores: cfg.Cores}, cfg, dagOf(w), fmt.Sprintf("%+v", params), "pdf", "ws")
	}
	add(workload.NewHashJoin(hjCoarse), "coarse", hjCoarse)
	add(workload.NewHashJoin(hjFine), "fine", hjFine)
	add(workload.NewMergesort(msCoarse), "coarse", msCoarse)
	add(workload.NewMergesort(msFine), "fine", msFine)
	t, err := g.run(opts)
	if err != nil {
		return nil, fmt.Errorf("granularity: %w", err)
	}
	return &GranularityResult{t}, nil
}

// FineSpeedup returns the fine-over-coarse speedup of a benchmark under a
// scheduler, or 0 if a row is missing.
func (r *GranularityResult) FineSpeedup(workload, scheduler string) float64 {
	coarse := r.Cycles(Point{Workload: workload, Input: "coarse", Cores: fixedCores}, scheduler)
	fine := r.Cycles(Point{Workload: workload, Input: "fine", Cores: fixedCores}, scheduler)
	if fine == 0 {
		return 0
	}
	return float64(coarse) / float64(fine)
}

// String renders the comparison.
func (r *GranularityResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§5.4 fine- vs coarse-grained threading on %d cores (capacity scale 1/%d)\n", fixedCores, r.Scale)
	t := stats.NewTable("workload", "sched", "coarse cycles", "fine cycles", "fine/coarse speedup")
	for _, row := range r.Rows {
		if row.Input != "coarse" {
			continue
		}
		fine := row.Point
		fine.Input = "fine"
		t.AddRow(row.Workload, row.Scheduler, fmt.Sprint(row.Cycles), fmt.Sprint(r.Cycles(fine, row.Scheduler)),
			fmt.Sprintf("%.2f", r.FineSpeedup(row.Workload, row.Scheduler)))
	}
	b.WriteString(t.String())
	b.WriteString("\n")
	return b.String()
}
