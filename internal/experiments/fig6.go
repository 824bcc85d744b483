package experiments

import (
	"fmt"
	"strings"

	"cmpsched/internal/stats"
	"cmpsched/internal/workload"
)

// Figure6Result holds the task-granularity study: Mergesort on each default
// configuration under PDF and WS, with each row's Param the target task
// working-set size in bytes (the x axis of Figure 6, already divided by the
// capacity scale factor).
type Figure6Result struct{ Table }

// Figure6Sizes returns the task working-set sizes swept, mirroring the
// paper's 8 MB ... 32 KB axis divided by the effective capacity scale.
func Figure6Sizes(opts Options) []int64 {
	paper := []int64{8 << 20, 4 << 20, 2 << 20, 1 << 20, 512 << 10, 256 << 10, 128 << 10, 64 << 10, 32 << 10}
	scale := opts.effectiveScale()
	out := make([]int64, 0, len(paper))
	for _, s := range paper {
		v := s / scale
		if v < 1<<10 {
			v = 1 << 10
		}
		// Avoid duplicates after clamping.
		if len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
	}
	return out
}

// Figure6 reproduces Figure 6: the impact of Mergesort task granularity on
// L2 misses and execution time under PDF and WS, on the 32-core and 16-core
// default configurations.  The paper's findings: WS is flat across task
// sizes, PDF improves considerably with smaller tasks, and PDF's advantage
// grows as tasks shrink (until scheduling overheads dominate).
func Figure6(opts Options) (*Figure6Result, error) {
	cfgs, err := opts.scaledDefaults([]int{32, 16})
	if err != nil {
		return nil, err
	}
	sizes := Figure6Sizes(opts)
	if opts.Quick && len(sizes) > 4 {
		sizes = sizes[len(sizes)-4:]
	}
	base := opts.mergesortConfig()
	var g grid
	for _, cfg := range cfgs {
		for _, size := range sizes {
			ms := base
			ms.TaskWorkingSetBytes = size
			g.add(Point{Workload: "mergesort", Cores: cfg.Cores, Param: size}, cfg,
				dagOf(workload.NewMergesort(ms)), fmt.Sprintf("%+v", ms), "pdf", "ws")
		}
	}
	t, err := g.run(opts)
	if err != nil {
		return nil, fmt.Errorf("figure6: %w", err)
	}
	return &Figure6Result{t}, nil
}

// Sizes returns the distinct task working-set sizes present, largest first.
func (r *Figure6Result) Sizes(cores int) []int64 {
	var out []int64
	seen := map[int64]bool{}
	for _, row := range r.Rows {
		if row.Cores == cores && !seen[row.Param] {
			seen[row.Param] = true
			out = append(out, row.Param)
		}
	}
	return out
}

// MissSpread returns max/min of the misses-per-kilo-instruction across task
// sizes for the given scheduler and core count — the paper's observation is
// that this spread is large for PDF and small (flat) for WS.
func (r *Figure6Result) MissSpread(cores int, scheduler string) float64 {
	var vals []float64
	for _, row := range r.Rows {
		if row.Cores == cores && row.Scheduler == scheduler {
			vals = append(vals, row.L2MissesPerKiloInstr())
		}
	}
	if len(vals) == 0 || stats.Min(vals) == 0 {
		return 0
	}
	return stats.Max(vals) / stats.Min(vals)
}

// BestRelativeSpeedup returns the PDF-over-WS speedup when each scheduler
// uses its own best task size (the paper reports 1.17X on 32 cores).
func (r *Figure6Result) BestRelativeSpeedup(cores int) float64 {
	best := func(sched string) int64 {
		var best int64
		for _, row := range r.Rows {
			if row.Cores == cores && row.Scheduler == sched && (best == 0 || row.Cycles < best) {
				best = row.Cycles
			}
		}
		return best
	}
	pdf, ws := best("pdf"), best("ws")
	if pdf == 0 {
		return 0
	}
	return float64(ws) / float64(pdf)
}

// String renders the three panels of Figure 6.
func (r *Figure6Result) String() string {
	var b strings.Builder
	for _, cores := range []int{32, 16} {
		sizes := r.Sizes(cores)
		if len(sizes) == 0 {
			continue
		}
		fmt.Fprintf(&b, "Figure 6: Mergesort task granularity on %d cores (capacity scale 1/%d)\n", cores, r.Scale)
		t := stats.NewTable("task ws (KB)", "pdf misses/Ki", "ws misses/Ki", "pdf cycles", "ws cycles", "ws/pdf")
		for _, size := range sizes {
			p := Point{Workload: "mergesort", Cores: cores, Param: size}
			pdf, ws := r.Get(p, "pdf"), r.Get(p, "ws")
			if pdf == nil || ws == nil {
				continue
			}
			t.AddRow(
				fmt.Sprintf("%.0f", float64(size)/1024),
				fmt.Sprintf("%.3f", pdf.L2MissesPerKiloInstr()),
				fmt.Sprintf("%.3f", ws.L2MissesPerKiloInstr()),
				fmt.Sprint(pdf.Cycles), fmt.Sprint(ws.Cycles),
				fmt.Sprintf("%.2f", r.Speedup(p, "pdf", "ws")),
			)
		}
		b.WriteString(t.String())
		fmt.Fprintf(&b, "miss spread across task sizes: pdf %.2fx, ws %.2fx; best-vs-best PDF/WS speedup %.2f\n\n",
			r.MissSpread(cores, "pdf"), r.MissSpread(cores, "ws"), r.BestRelativeSpeedup(cores))
	}
	return b.String()
}
