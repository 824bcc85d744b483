package experiments

import (
	"fmt"
	"sort"
	"strings"

	"cmpsched/internal/dag"
	"cmpsched/internal/stats"
	"cmpsched/internal/sweep"
	"cmpsched/internal/workload"
)

// Figure1Row gives the shared-L2 misses charged to the tasks of one merge
// level of Mergesort under each scheduler.
type Figure1Row struct {
	// Level is the recursion depth from the root (0 = the final merge).
	Level int
	// PDFMisses and WSMisses are the L2 misses incurred by tasks at this
	// level.
	PDFMisses int64
	WSMisses  int64
}

// Figure1Result reproduces the phenomenon pictured in Figure 1: when sorting
// an array about the size of the shared cache on P cores, PDF incurs
// (almost) no capacity misses in the top log P merge levels while WS misses
// throughout, because each WS core works on a disjoint sub-array and the
// aggregate working set (2x the array) does not fit.
type Figure1Result struct {
	Cores      int
	L2Bytes    int64
	ArrayBytes int64
	Rows       []Figure1Row
	PDFTotal   int64
	WSTotal    int64
	Scale      int64
}

// Figure1 runs Mergesort with an input sized to the shared L2 of the 8-core
// default configuration and attributes L2 misses to merge levels.
func Figure1(opts Options) (*Figure1Result, error) {
	cfg, err := opts.scaledDefault(8)
	if err != nil {
		return nil, err
	}
	elemBytes := int64(4)
	elements := cfg.L2.SizeBytes / elemBytes // input array of CP bytes
	msCfg := opts.mergesortConfig()
	msCfg.Elements = elements
	msCfg.TaskWorkingSetBytes = max(2<<10, cfg.L2.SizeBytes/64)

	res := &Figure1Result{
		Cores:      cfg.Cores,
		L2Bytes:    cfg.L2.SizeBytes,
		ArrayBytes: elements * elemBytes,
		Scale:      opts.effectiveScale(),
	}
	build := func() (*dag.DAG, error) {
		d, _, err := workload.NewMergesort(msCfg).Build()
		return d, err
	}
	params := fmt.Sprintf("%+v", msCfg)
	var jobs []sweep.Job
	for _, schedName := range []string{"pdf", "ws"} {
		jobs = append(jobs,
			sweep.NewJob("mergesort", params, schedName, cfg, build).
				WithDerive("levels", sweep.DeriveLevelMisses))
	}
	results, err := opts.run(jobs)
	if err != nil {
		return nil, fmt.Errorf("figure1: %w", err)
	}

	byLevel := map[int]*Figure1Row{}
	for i, schedName := range []string{"pdf", "ws"} {
		for level, misses := range sweep.LevelMisses(results[i].Derived) {
			row, ok := byLevel[level]
			if !ok {
				row = &Figure1Row{Level: level}
				byLevel[level] = row
			}
			if schedName == "pdf" {
				row.PDFMisses += misses
				res.PDFTotal += misses
			} else {
				row.WSMisses += misses
				res.WSTotal += misses
			}
		}
	}
	levels := make([]int, 0, len(byLevel))
	for l := range byLevel {
		levels = append(levels, l)
	}
	sort.Ints(levels)
	for _, l := range levels {
		res.Rows = append(res.Rows, *byLevel[l])
	}
	return res, nil
}

// TopLevelsReductionPercent returns the reduction in misses PDF achieves over
// WS within the top `levels` merge levels (the log P levels of Figure 1).
func (r *Figure1Result) TopLevelsReductionPercent(levels int) float64 {
	var pdf, ws int64
	for _, row := range r.Rows {
		if row.Level < levels {
			pdf += row.PDFMisses
			ws += row.WSMisses
		}
	}
	if ws == 0 {
		return 0
	}
	return float64(ws-pdf) / float64(ws) * 100
}

// String renders the per-level miss comparison.
func (r *Figure1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: Mergesort of a cache-sized array (%d KB) on %d cores, misses by merge level (capacity scale 1/%d)\n",
		r.ArrayBytes/1024, r.Cores, r.Scale)
	t := stats.NewTable("level (0 = final merge)", "pdf misses", "ws misses", "pdf/ws")
	for _, row := range r.Rows {
		ratio := 0.0
		if row.WSMisses > 0 {
			ratio = float64(row.PDFMisses) / float64(row.WSMisses)
		}
		t.AddRow(fmt.Sprint(row.Level), fmt.Sprint(row.PDFMisses), fmt.Sprint(row.WSMisses), fmt.Sprintf("%.2f", ratio))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "total misses: pdf %d, ws %d; PDF reduction in the top log2(P)=%d levels: %.1f%%\n\n",
		r.PDFTotal, r.WSTotal, logP(r.Cores), r.TopLevelsReductionPercent(logP(r.Cores)))
	return b.String()
}

func logP(p int) int {
	l := 0
	for v := 1; v < p; v <<= 1 {
		l++
	}
	return l
}
