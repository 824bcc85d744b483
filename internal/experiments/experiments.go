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
// the same rows or series the paper reports; cmd/experiments and the
// benchmarks in the repository root drive these functions.  Absolute numbers
// differ from the paper (the substrate is a scaled event-driven model, not
// the authors' testbed); the shapes — who wins, by what factor, where the
// crossovers fall — are what the harness reproduces (see EXPERIMENTS.md).
//
// Every figure expands into a list of simulation jobs executed by the
// parallel sweep engine (internal/sweep), so figures use all cores of the
// host and repeated runs are served from the engine's result cache when one
// is configured (see Options.Workers and Options.Cache).
package experiments

import (
	"fmt"

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
	// Cores optionally restricts the core counts evaluated (when nil the
	// experiment's default list is used).
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
// by the rule sweep specifications follow.
func (o Options) effectiveScale() int64 {
	return sweep.Spec{Scale: o.Scale, Quick: o.Quick}.EffectiveScale()
}

// quickDiv returns the factor by which workload inputs shrink in quick mode.
func (o Options) quickDiv() int64 {
	if o.Quick {
		return 16
	}
	return 1
}

func (o Options) coresOrDefault(def []int) []int {
	if len(o.Cores) > 0 {
		return o.Cores
	}
	return def
}

// scaledDefault returns the Table 2 configuration for the core count, scaled.
func (o Options) scaledDefault(cores int) (config.CMP, error) {
	c, err := config.Default(cores)
	if err != nil {
		return config.CMP{}, err
	}
	return c.Scaled(o.effectiveScale()), nil
}

// scaled45nm returns the Table 3 configuration for the core count, scaled.
func (o Options) scaled45nm(cores int) (config.CMP, error) {
	c, err := config.SingleTech45(cores)
	if err != nil {
		return config.CMP{}, err
	}
	return c.Scaled(o.effectiveScale()), nil
}

// mergesortConfig returns the Mergesort input used by the experiments.
func (o Options) mergesortConfig() workload.MergesortConfig {
	return workload.MergesortConfig{
		Elements:            (1 << 20) / o.quickDiv(),
		TaskWorkingSetBytes: max(2<<10, (16<<10)/o.quickDiv()),
	}
}

// hashJoinConfig returns the Hash Join input used by the experiments, with
// sub-partitions sized for the given configuration's L2 as a database system
// would size them.
func (o Options) hashJoinConfig(cfg config.CMP) workload.HashJoinConfig {
	hj := workload.HashJoinConfigForL2(cfg.L2.SizeBytes)
	hj.PartitionBytes = (32 << 20) / o.quickDiv()
	return hj
}

// luConfig returns the LU input used by the experiments.
func (o Options) luConfig() workload.LUConfig {
	n := int64(512)
	if o.Quick {
		n = 128
	}
	return workload.LUConfig{N: n, BlockElems: 32}
}

// graphShape returns the graph input used by the experiments for a kernel
// and generator family, shrunk in quick mode like every other input.
func (o Options) graphShape(kernel, family string) workload.GraphShape {
	verts := int64(1 << 15)
	switch kernel {
	case "pagerank":
		verts = 1 << 13
	case "triangles":
		verts = 1 << 14
	}
	shape := workload.GraphShape{
		Family:   family,
		Vertices: max(1<<11, verts/o.quickDiv()),
	}
	if o.Quick {
		// Keep several tasks per frontier on the shrunken graphs so the
		// schedulers still have co-scheduling decisions to make.
		shape.EdgesPerTask = 512
	}
	return shape
}

// graphWorkload builds a graph kernel workload on the experiments' inputs
// and returns the canonical fingerprint of its default-filled configuration,
// from the same switch, so the two can never drift apart.
func (o Options) graphWorkload(kernel, family string) (workload.Workload, string, error) {
	shape := o.graphShape(kernel, family)
	switch kernel {
	case "bfs":
		w := workload.NewBFS(workload.BFSConfig{Shape: shape})
		return w, fmt.Sprintf("%+v", w.Config()), nil
	case "sssp":
		w := workload.NewSSSP(workload.SSSPConfig{Shape: shape})
		return w, fmt.Sprintf("%+v", w.Config()), nil
	case "pagerank":
		w := workload.NewPageRank(workload.PageRankConfig{Shape: shape})
		return w, fmt.Sprintf("%+v", w.Config()), nil
	case "triangles":
		w := workload.NewTriangles(workload.TrianglesConfig{Shape: shape})
		return w, fmt.Sprintf("%+v", w.Config()), nil
	case "connectivity":
		w := workload.NewConnectivity(workload.ConnectivityConfig{Shape: shape})
		return w, fmt.Sprintf("%+v", w.Config()), nil
	case "kcore":
		w := workload.NewKCore(workload.KCoreConfig{Shape: shape})
		return w, fmt.Sprintf("%+v", w.Config()), nil
	case "mis":
		w := workload.NewMIS(workload.MISConfig{Shape: shape})
		return w, fmt.Sprintf("%+v", w.Config()), nil
	case "matching":
		w := workload.NewMatching(workload.MatchingConfig{Shape: shape})
		return w, fmt.Sprintf("%+v", w.Config()), nil
	default:
		return nil, "", fmt.Errorf("experiments: unknown graph kernel %q", kernel)
	}
}

// GraphKernels lists the irregular graph workloads, in the order the
// irregularity figure reports them.
func GraphKernels() []string {
	return []string{"bfs", "sssp", "pagerank", "triangles", "connectivity", "kcore", "mis", "matching"}
}

// workloadSpec is the single point deciding both the inputs a named
// benchmark is built with and the canonical fingerprint of those inputs —
// one switch, so a sweep cache key always covers exactly what the build
// uses (a drift between the two would silently serve wrong cached results).
func (o Options) workloadSpec(name string, cfg config.CMP) (build sweep.BuildFunc, params string, err error) {
	switch name {
	case "mergesort":
		c := o.mergesortConfig()
		return dagOf(workload.NewMergesort(c)), fmt.Sprintf("%+v", c), nil
	case "hashjoin":
		c := o.hashJoinConfig(cfg)
		return dagOf(workload.NewHashJoin(c)), fmt.Sprintf("%+v", c), nil
	case "lu":
		c := o.luConfig()
		return dagOf(workload.NewLU(c)), fmt.Sprintf("%+v", c), nil
	case "bfs", "sssp", "pagerank", "triangles", "connectivity", "kcore", "mis", "matching":
		return o.graphSpec(name, "")
	default:
		// The remaining benchmarks take no Options-dependent inputs.
		w, err := workload.New(name)
		if err != nil {
			return nil, "", err
		}
		return dagOf(w), "default", nil
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

// graphSpec returns the build function and canonical fingerprint for a graph
// kernel on the given generator family ("" means the kernel's default,
// uniform).  The fingerprint is the default-filled kernel configuration, so
// it covers the family, the graph shape and the task grain.
func (o Options) graphSpec(kernel, family string) (sweep.BuildFunc, string, error) {
	w, params, err := o.graphWorkload(kernel, family)
	if err != nil {
		return nil, "", err
	}
	return dagOf(w), params, nil
}

// graphSchedulerJobs returns the (pdf, ws) jobs for one graph kernel on one
// family and configuration — the fixed order the irregularity figure's
// decoder relies on.
func (o Options) graphSchedulerJobs(kernel, family string, cfg config.CMP) ([]sweep.Job, error) {
	build, params, err := o.graphSpec(kernel, family)
	if err != nil {
		return nil, err
	}
	return []sweep.Job{
		sweep.NewJob(kernel, params, "pdf", cfg, build),
		sweep.NewJob(kernel, params, "ws", cfg, build),
	}, nil
}

// run executes the jobs on the sweep engine configured by the options and
// returns the results in job order.
func (o Options) run(jobs []sweep.Job) ([]sweep.Result, error) {
	return sweep.NewEngine(sweep.EngineOptions{Workers: o.Workers, Cache: o.Cache}).Run(jobs)
}

// grid pairs each experiment grid point's payload with its group of sweep
// jobs, so the two can never drift out of alignment the way parallel
// points/jobs slices could.  runGrid flattens every group into one engine
// run (maximising parallelism across the whole figure) and hands each
// payload its own results back.
type grid[P any] struct {
	points []P
	groups [][]sweep.Job
}

// add appends one grid point and the jobs that evaluate it.
func (g *grid[P]) add(p P, jobs ...sweep.Job) {
	g.points = append(g.points, p)
	g.groups = append(g.groups, jobs)
}

// runGrid executes the grid's jobs through the sweep engine and calls visit
// once per point, in add order, with the point's results in job order.
func runGrid[P any](o Options, g *grid[P], visit func(p P, rs []sweep.Result)) error {
	var jobs []sweep.Job
	for _, group := range g.groups {
		jobs = append(jobs, group...)
	}
	results, err := o.run(jobs)
	if err != nil {
		return err
	}
	for i, p := range g.points {
		n := len(g.groups[i])
		visit(p, results[:n:n])
		results = results[n:]
	}
	return nil
}

// jobsFor returns one job per named scheduler for the workload on cfg, in
// scheduler order.  Scheduler names are any the registry accepts, plus the
// sweep.Sequential pseudo-scheduler.
func (o Options) jobsFor(name string, cfg config.CMP, schedulers []string) ([]sweep.Job, error) {
	build, params, err := o.workloadSpec(name, cfg)
	if err != nil {
		return nil, err
	}
	jobs := make([]sweep.Job, 0, len(schedulers))
	for _, sc := range schedulers {
		jobs = append(jobs, sweep.NewJob(name, params, sc, cfg, build))
	}
	return jobs, nil
}

// schedulerJobs returns the jobs simulating the named workload on cfg —
// optionally led by the sequential baseline, then PDF, then WS — the fixed
// (seq, pdf, ws) order the figure decoders rely on.
func (o Options) schedulerJobs(name string, cfg config.CMP, withSeq bool) ([]sweep.Job, error) {
	schedulers := []string{"pdf", "ws"}
	if withSeq {
		schedulers = append([]string{sweep.Sequential}, schedulers...)
	}
	return o.jobsFor(name, cfg, schedulers)
}

// WorkloadFactory adapts the harness's standard inputs (paper-sized,
// quick-scaled) to sweep.Spec, so cmd/sweep grids use the same workload
// parameterisation as the figures.
func (o Options) WorkloadFactory() sweep.WorkloadFactory {
	return o.workloadSpec
}
