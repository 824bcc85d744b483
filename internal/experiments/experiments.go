// Package experiments regenerates every table and figure of the paper's
// evaluation (§5 and §6): the PDF-vs-WS comparison on the default
// configurations (Figure 2), the 45 nm single-technology design space
// (Figure 3), the L2-hit-time and memory-latency sensitivity studies
// (Figures 4 and 5), the task-granularity study (Figure 6), the Mergesort
// miss-per-level picture (Figure 1), the fine- vs coarse-grained comparison
// (§5.4), the LruTree-vs-SetAssoc profiler timing (§6.1) and the automatic
// task-coarsening evaluation (Figure 8).
//
// Each experiment returns a typed result with a String method that prints
// the same rows or series the paper reports; Studies lists them for
// cmd/experiments, and the benchmarks in the repository root drive them too.
// Absolute numbers differ from the paper (the substrate is a scaled
// event-driven model, not the authors' testbed); the shapes — who wins, by
// what factor, where the crossovers fall — are what the harness reproduces
// (see EXPERIMENTS.md).
//
// The simulation studies share one result type, a Table of Rows, each row a
// Point (workload, input variant, cores, topology, swept parameter) under
// one scheduler with its simulator result; a study adds only its own
// helpers and rendering.  Figures 2 and 3 and the topology, irregularity
// and scheduler studies are sweep.Spec grids expanded with the harness's
// workload factory; Figures 4 to 6 and the §5.4 comparison list their
// points explicitly.  Every study runs its jobs in one run of the parallel
// sweep engine (internal/sweep), so it uses all cores of the host and
// repeated runs are served from the engine's result cache when one is
// configured (see Options.Workers and Options.Cache).
package experiments

import (
	"fmt"
	"math"

	"cmpsched/internal/config"
	"cmpsched/internal/dag"
	"cmpsched/internal/sweep"
	"cmpsched/internal/workload"
)

// Options control experiment scale and execution.
type Options struct {
	// Scale is the capacity scale factor applied to the configuration
	// tables. Zero means config.DefaultScale (32).
	Scale int64
	// Quick shrinks workload inputs (and scales caches down further to
	// preserve ratios) so that a full experiment finishes in a couple of
	// seconds; used by tests. Full runs (Quick=false) take minutes.
	Quick bool
	// Cores optionally replaces a study's default core counts.  It filters
	// the study's configuration table the way sweep.Spec.Cores does: a
	// core count the table lacks is skipped, and only a list matching none
	// of the table's configurations is an error.  The studies run on fixed
	// configurations (Figures 1, 4 and 5 and the §5.4 comparison) ignore it.
	Cores []int
	// Workers bounds the number of concurrent simulations when a figure's
	// jobs run on the sweep engine. Zero means one worker per host CPU; 1
	// forces serial execution.
	Workers int
	// Cache, when non-nil, memoises simulation runs across figures (and,
	// with a disk-backed cache, across processes). Repeated runs of the
	// same figure at the same options are then near-instant.
	Cache sweep.Cache
}

// effectiveScale returns the configuration scale factor for the options,
// by the rule sweep specifications follow.  It divides the harness's inputs
// too (see DESIGN.md, "The scale-factor convention").
func (o Options) effectiveScale() int64 {
	return sweep.Spec{Scale: o.Scale, Quick: o.Quick}.EffectiveScale()
}

func (o Options) coresOrDefault(def []int) []int {
	if len(o.Cores) > 0 {
		return o.Cores
	}
	return def
}

// scaledDefault returns the Table 2 configuration for the core count,
// scaled.  A negative scale is an error, as it is for sweep.Spec: it would
// leave the caches unscaled and the inputs negative.
func (o Options) scaledDefault(cores int) (config.CMP, error) {
	if o.Scale < 0 {
		return config.CMP{}, fmt.Errorf("experiments: negative scale %d", o.Scale)
	}
	c, err := config.Default(cores)
	if err != nil {
		return config.CMP{}, err
	}
	return c.Scaled(o.effectiveScale()), nil
}

// scaledDefaults returns the scaled Table 2 configurations for the study's
// core counts (Options.Cores, or def), in that order, skipping a count the
// table lacks; only a list matching nothing is an error.
func (o Options) scaledDefaults(def []int) ([]config.CMP, error) {
	var out []config.CMP
	for _, cores := range o.coresOrDefault(def) {
		if _, err := config.Default(cores); err != nil {
			continue
		}
		c, err := o.scaledDefault(cores)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: no default configuration matches cores %v", o.Cores)
	}
	return out, nil
}

// mergesortConfig returns the Mergesort input used by the experiments:
// 2^25 elements in tasks of 512 KiB working set at capacity scale 1, both
// divided by the effective scale (the task working set no smaller than
// 2 KiB).
func (o Options) mergesortConfig() workload.MergesortConfig {
	scale := o.effectiveScale()
	return workload.MergesortConfig{
		Elements:            (1 << 25) / scale,
		TaskWorkingSetBytes: max(2<<10, (512<<10)/scale),
	}
}

// hashJoinConfig returns the Hash Join input used by the experiments: the
// paper's 1 GiB buffer of build and probe partitions divided by the
// effective scale, with sub-partitions sized for the given configuration's
// L2 as a database system would size them.
func (o Options) hashJoinConfig(cfg config.CMP) workload.HashJoinConfig {
	hj := workload.HashJoinConfigForL2(cfg.L2.SizeBytes)
	hj.PartitionBytes = (1 << 30) / o.effectiveScale()
	return hj
}

// luConfig returns the LU input used by the experiments: an N x N matrix
// of N^2 = 512^2 * 32 elements at capacity scale 1, divided by the effective
// scale and rounded down to whole 32-element blocks (at least one).
func (o Options) luConfig() workload.LUConfig {
	const block = 32
	n := int64(math.Sqrt(float64(512*512*32) / float64(o.effectiveScale())))
	return workload.LUConfig{N: max(block, n-n%block), BlockElems: block}
}

// graphShape returns the graph input used by the experiments for a kernel
// and generator family: 2^20 vertices at capacity scale 1 (PageRank 2^18,
// triangle counting 2^19), divided by the effective scale and no fewer
// than 2^11.
func (o Options) graphShape(kernel, family string) workload.GraphShape {
	verts := int64(1 << 20)
	switch kernel {
	case "pagerank":
		verts = 1 << 18
	case "triangles":
		verts = 1 << 19
	}
	shape := workload.GraphShape{
		Family:   family,
		Vertices: max(1<<11, verts/o.effectiveScale()),
	}
	if o.Quick {
		// Keep several tasks per frontier on the shrunken graphs so the
		// schedulers still have co-scheduling decisions to make.
		shape.EdgesPerTask = 512
	}
	return shape
}

// GraphKernels lists the irregular graph workloads, in the order the
// irregularity figure reports them.
func GraphKernels() []string {
	return []string{"bfs", "sssp", "pagerank", "triangles", "connectivity", "kcore", "mis", "matching"}
}

// factory returns the harness's workload factory, with the graph kernels
// on the given generator family ("" means each kernel's default, uniform).
// One switch decides both the inputs a benchmark is built with and their
// canonical fingerprint — the default-filled configuration — so a sweep
// cache key always covers exactly what the build uses (a drift between the
// two would silently serve wrong cached results).
func (o Options) factory(family string) sweep.WorkloadFactory {
	return func(name string, cfg config.CMP) (sweep.BuildFunc, string, error) {
		var w workload.Workload
		var params any
		shape := o.graphShape(name, family)
		switch name {
		case "mergesort":
			c := o.mergesortConfig()
			w, params = workload.NewMergesort(c), c
		case "hashjoin":
			c := o.hashJoinConfig(cfg)
			w, params = workload.NewHashJoin(c), c
		case "lu":
			c := o.luConfig()
			w, params = workload.NewLU(c), c
		case "bfs":
			k := workload.NewBFS(workload.BFSConfig{Shape: shape})
			w, params = k, k.Config()
		case "sssp":
			k := workload.NewSSSP(workload.SSSPConfig{Shape: shape})
			w, params = k, k.Config()
		case "pagerank":
			k := workload.NewPageRank(workload.PageRankConfig{Shape: shape})
			w, params = k, k.Config()
		case "triangles":
			k := workload.NewTriangles(workload.TrianglesConfig{Shape: shape})
			w, params = k, k.Config()
		case "connectivity":
			k := workload.NewConnectivity(workload.ConnectivityConfig{Shape: shape})
			w, params = k, k.Config()
		case "kcore":
			k := workload.NewKCore(workload.KCoreConfig{Shape: shape})
			w, params = k, k.Config()
		case "mis":
			k := workload.NewMIS(workload.MISConfig{Shape: shape})
			w, params = k, k.Config()
		case "matching":
			k := workload.NewMatching(workload.MatchingConfig{Shape: shape})
			w, params = k, k.Config()
		default:
			// The remaining benchmarks take no Options-dependent inputs.
			var err error
			if w, err = workload.New(name); err != nil {
				return nil, "", err
			}
			params = "default"
		}
		return dagOf(w), fmt.Sprintf("%+v", params), nil
	}
}

// dagOf adapts a workload to the sweep engine's build function, dropping the
// group tree the engine does not use.
func dagOf(w workload.Workload) sweep.BuildFunc {
	return func() (*dag.DAG, error) {
		d, _, err := w.Build()
		return d, err
	}
}

// run executes the jobs on the sweep engine configured by the options and
// returns the results in job order.
func (o Options) run(jobs []sweep.Job) ([]sweep.Result, error) {
	return sweep.NewEngine(sweep.EngineOptions{Workers: o.Workers, Cache: o.Cache}).Run(jobs)
}

// WorkloadFactory adapts the harness's standard inputs (paper-sized,
// quick-scaled) to sweep.Spec, so cmd/sweep grids use the same workload
// parameterisation as the figures.
func (o Options) WorkloadFactory() sweep.WorkloadFactory {
	return o.factory("")
}

// Study couples a study's command-line name with its runner.
type Study struct {
	// Name is the study's name on cmd/experiments' -experiment flag.
	Name string
	// Run executes the study; its String method prints the study's tables.
	Run func(Options) (fmt.Stringer, error)
}

// Studies lists every study in the order cmd/experiments runs them: the
// paper's figures and tables, then the topology, irregular and scheduler
// studies that widen its axes.
func Studies() []Study {
	return []Study{
		{"fig1", func(o Options) (fmt.Stringer, error) { return Figure1(o) }},
		{"fig2", func(o Options) (fmt.Stringer, error) { return Figure2(o) }},
		{"fig3", func(o Options) (fmt.Stringer, error) { return Figure3(o) }},
		{"fig4", func(o Options) (fmt.Stringer, error) { return Figure4(o) }},
		{"fig5", func(o Options) (fmt.Stringer, error) { return Figure5(o) }},
		{"fig6", func(o Options) (fmt.Stringer, error) { return Figure6(o) }},
		{"fig8", func(o Options) (fmt.Stringer, error) { return Figure8(o) }},
		{"grain", func(o Options) (fmt.Stringer, error) { return Granularity(o) }},
		{"profiler", func(o Options) (fmt.Stringer, error) { return ProfilerComparison(o) }},
		{"topology", func(o Options) (fmt.Stringer, error) { return TopologyComparison(o) }},
		{"irregular", func(o Options) (fmt.Stringer, error) { return IrregularComparison(o) }},
		{"scheduler", func(o Options) (fmt.Stringer, error) { return SchedulerComparison(o) }},
	}
}
