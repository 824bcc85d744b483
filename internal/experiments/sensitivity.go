package experiments

import (
	"fmt"
	"strings"

	"cmpsched/internal/config"
	"cmpsched/internal/stats"
)

// fixedCores is the core count of the default configuration Figures 4 and
// 5 and the §5.4 comparison run on.
const fixedCores = 16

// SensitivityResult holds a parameter-sensitivity sweep on the 16-core
// default configuration: each row's Param is the swept value.
type SensitivityResult struct {
	Table
	// Name is "figure4" or "figure5".
	Name string
	// Parameter names the swept value: the L2 hit latency (Figure 4) or
	// the main-memory latency (Figure 5), in cycles.
	Parameter string
}

// Figure4 reproduces Figure 4: PDF vs WS on the 16-core default
// configuration with the L2 hit time set to 7 and 19 cycles.  The paper's
// observation: PDF on a slow monolithic shared L2 (19 cycles) still beats WS
// on a fast distributed L2 (7 cycles) because the L2 miss time dominates.
func Figure4(opts Options) (*SensitivityResult, error) {
	return sensitivity(opts, "figure4", "L2 hit cycles", config.L2HitLatencySweep(),
		func(cfg config.CMP, v int64) config.CMP { return cfg.WithL2HitLatency(v) })
}

// Figure5 reproduces Figure 5: PDF vs WS on the 16-core default
// configuration with main-memory latency varied from 100 to 1100 cycles.
func Figure5(opts Options) (*SensitivityResult, error) {
	return sensitivity(opts, "figure5", "memory latency", config.MemLatencySweep(),
		func(cfg config.CMP, v int64) config.CMP { return cfg.WithMemLatency(v) })
}

func sensitivity(opts Options, name, param string, values []int64, apply func(config.CMP, int64) config.CMP) (*SensitivityResult, error) {
	base, err := opts.scaledDefault(fixedCores)
	if err != nil {
		return nil, err
	}
	factory := opts.factory("")
	var g grid
	for _, wl := range []string{"hashjoin", "mergesort"} {
		for _, v := range values {
			cfg := apply(base, v)
			build, params, err := factory(wl, cfg)
			if err != nil {
				return nil, err
			}
			g.add(Point{Workload: wl, Cores: fixedCores, Param: v}, cfg, build, params, "pdf", "ws")
		}
	}
	t, err := g.run(opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &SensitivityResult{Table: t, Name: name, Parameter: param}, nil
}

// SlowPDFBeatsFastWS reports whether PDF at the largest swept parameter value
// still outperforms WS at the smallest — the §5.3 "slow shared cache vs fast
// distributed cache" comparison (meaningful for Figure 4).
func (r *SensitivityResult) SlowPDFBeatsFastWS(workload string) bool {
	if len(r.Rows) == 0 {
		return false
	}
	slow, fast := r.Rows[0].Point, r.Rows[0].Point
	slow.Workload, fast.Workload = workload, workload
	for _, row := range r.Rows {
		slow.Param = max(slow.Param, row.Param)
		fast.Param = min(fast.Param, row.Param)
	}
	pdfSlow, wsFast := r.Cycles(slow, "pdf"), r.Cycles(fast, "ws")
	return pdfSlow > 0 && wsFast > 0 && pdfSlow <= wsFast
}

// String renders the sweep.
func (r *SensitivityResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: varying %s on the 16-core default configuration (capacity scale 1/%d)\n", r.Name, r.Parameter, r.Scale)
	t := stats.NewTable("workload", r.Parameter, "pdf cycles", "ws cycles", "pdf/ws")
	for _, row := range r.Rows {
		if row.Scheduler != "pdf" {
			continue
		}
		t.AddRow(row.Workload, fmt.Sprint(row.Param), fmt.Sprint(row.Cycles), fmt.Sprint(r.Cycles(row.Point, "ws")),
			fmt.Sprintf("%.2f", r.Speedup(row.Point, "pdf", "ws")))
	}
	b.WriteString(t.String())
	if r.Name == "figure4" {
		for _, wl := range []string{"hashjoin", "mergesort"} {
			fmt.Fprintf(&b, "%s: PDF with slow L2 beats WS with fast L2: %v\n", wl, r.SlowPDFBeatsFastWS(wl))
		}
	}
	b.WriteString("\n")
	return b.String()
}
