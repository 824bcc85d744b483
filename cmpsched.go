// Package cmpsched reproduces "Scheduling Threads for Constructive Cache
// Sharing on CMPs" (Chen et al., SPAA 2007) as a Go library.
//
// The package is a thin public facade over the internal packages:
//
//   - computation DAGs and memory-reference streams (internal/dag,
//     internal/refs),
//   - the schedulers, constructed by name through a run-time registry
//     (RegisterScheduler / NewScheduler / SchedulerNames): the paper's
//     Parallel Depth First (PDF) and Work Stealing (WS) pair, a FIFO
//     ablation baseline, a space-bounded scheduler that pins tasks to the
//     smallest cache level or L2 slice fitting their working set,
//     and locality-guided work-stealing variants (internal/sched),
//   - an event-driven CMP simulator with private L1s, a pluggable L2
//     topology (shared, per-core private or clustered slices) and a
//     bandwidth-limited memory system every slice arbitrates for
//     (internal/cmpsim, internal/cache, internal/memsys),
//   - the paper's CMP configuration tables (internal/config),
//   - the benchmark workloads: Mergesort, Hash Join, LU, Matrix Multiply,
//     Quicksort and a Heat stencil (internal/workload), plus the irregular
//     graph kernels BFS, SSSP, PageRank, triangle counting, LDD
//     connectivity, k-core peeling, maximal independent set and maximal
//     matching over generated uniform/grid/RMAT graphs in CSR form
//     (internal/graph),
//   - the LruTree one-pass working-set profiler, the SetAssoc baseline and
//     the automatic task-coarsening pass (internal/profile,
//     internal/coarsen),
//   - the zero-cost-when-off observability layer: a task-lifecycle tracer
//     with Chrome trace-event export, a metrics registry and a live
//     progress reporter (internal/obs),
//   - the design-space sweep engine — content-addressed result caching over
//     a bounded worker pool — and the sweep service that shares one engine
//     between concurrent HTTP clients with single-flight deduplication and
//     streaming delivery (internal/sweep, internal/sweepsvc, cmd/sweepd,
//     cmd/sweepctl),
//   - and the experiment harness that regenerates every table and figure of
//     the paper's evaluation (internal/experiments).
//
// # Quick start
//
//	d, _, err := cmpsched.BuildWorkload("mergesort")
//	if err != nil { ... }
//	cfg := cmpsched.DefaultConfig(8).Scaled(cmpsched.DefaultScale)
//	seq, _ := cmpsched.RunSequential(d, cfg)
//	pdf, _ := cmpsched.Run(d, cmpsched.NewPDF(), cfg)
//	fmt.Printf("speedup %.2f, %.3f L2 misses per 1000 instructions\n",
//		pdf.Speedup(seq), pdf.L2MissesPerKiloInstr())
//
// See the examples/ directory and cmd/experiments for complete programs.
package cmpsched

import (
	"io"

	"cmpsched/internal/cache"
	"cmpsched/internal/cmpsim"
	"cmpsched/internal/coarsen"
	"cmpsched/internal/config"
	"cmpsched/internal/dag"
	"cmpsched/internal/experiments"
	"cmpsched/internal/obs"
	"cmpsched/internal/profile"
	"cmpsched/internal/sched"
	"cmpsched/internal/sweep"
	"cmpsched/internal/sweepsvc"
	"cmpsched/internal/taskgroup"
	"cmpsched/internal/workload"
)

// Re-exported core types.
type (
	// DAG is a computation DAG of tasks with dependence edges and
	// per-task memory-reference streams.
	DAG = dag.DAG
	// Task is one node of a computation DAG.
	Task = dag.Task
	// TaskID identifies a task within a DAG.
	TaskID = dag.TaskID
	// GroupTree is the hierarchical task-group tree used by the profiler
	// and the coarsening pass.
	GroupTree = taskgroup.Tree
	// GroupNode is one task group.
	GroupNode = taskgroup.Node

	// Scheduler decides which ready task each idle core runs next.
	Scheduler = sched.Scheduler
	// SchedulerFactory constructs a fresh scheduler instance; it is what
	// RegisterScheduler records in the scheduler registry.
	SchedulerFactory = sched.Factory
	// SchedMachine describes the cache machine a scheduler is placing
	// tasks onto (core count, L1 and L2-slice capacities, core-to-slice
	// map); the simulator hands it to schedulers implementing
	// SchedMachineAware before each run.  Its core-to-slice map is the
	// simulated hierarchy's own and must not be modified.
	SchedMachine = sched.Machine
	// SchedMachineAware is implemented by schedulers whose placement
	// decisions depend on the cache machine, e.g. the space-bounded
	// scheduler.
	SchedMachineAware = sched.MachineAware
	// StealPolicy selects how an idle locality-guided WS core picks its
	// steal victim (StealNearest, StealOldest).
	StealPolicy = sched.StealPolicy

	// CMPConfig is a machine configuration (cores, caches, memory).
	CMPConfig = config.CMP
	// CacheTopology describes how the L2 capacity is organised: one shared
	// cache (the paper's machine), per-core private slices, or clustered
	// slices of k cores each.  See SharedTopology, PrivateTopology,
	// ClusteredTopology and CMPConfig.WithTopology.
	CacheTopology = cache.Topology
	// SimResult summarises one simulation run.
	SimResult = cmpsim.Result
	// SimOptions controls a simulation run.
	SimOptions = cmpsim.Options

	// Workload builds a benchmark's DAG and group tree.
	Workload = workload.Workload
	// MergesortConfig parameterises the Mergesort benchmark.
	MergesortConfig = workload.MergesortConfig
	// HashJoinConfig parameterises the Hash Join benchmark.
	HashJoinConfig = workload.HashJoinConfig
	// LUConfig parameterises the LU-factorisation benchmark.
	LUConfig = workload.LUConfig
	// MatMulConfig parameterises the blocked matrix-multiply benchmark.
	MatMulConfig = workload.MatMulConfig
	// CholeskyConfig parameterises the blocked Cholesky benchmark.
	CholeskyConfig = workload.CholeskyConfig
	// QuicksortConfig parameterises the parallel quicksort benchmark.
	QuicksortConfig = workload.QuicksortConfig
	// HeatConfig parameterises the Jacobi-stencil benchmark.
	HeatConfig = workload.HeatConfig

	// GraphShape selects the input graph (family, size, degree, seed) and
	// task grain shared by the irregular graph kernels.
	GraphShape = workload.GraphShape
	// BFSConfig parameterises the level-synchronous BFS kernel.
	BFSConfig = workload.BFSConfig
	// SSSPConfig parameterises the Bellman-Ford shortest-paths kernel.
	SSSPConfig = workload.SSSPConfig
	// PageRankConfig parameterises the PageRank power-iteration kernel.
	PageRankConfig = workload.PageRankConfig
	// TrianglesConfig parameterises the triangle-counting kernel.
	TrianglesConfig = workload.TrianglesConfig
	// ConnectivityConfig parameterises the low-diameter-decomposition
	// connected-components kernel.
	ConnectivityConfig = workload.ConnectivityConfig
	// KCoreConfig parameterises the bucketed-peeling k-core kernel.
	KCoreConfig = workload.KCoreConfig
	// MISConfig parameterises the maximal-independent-set kernel.
	MISConfig = workload.MISConfig
	// MatchingConfig parameterises the maximal-matching kernel.
	MatchingConfig = workload.MatchingConfig

	// ProfileConfig configures a working-set profiling pass.
	ProfileConfig = profile.Config
	// Profile is the result of an LruTree profiling pass.
	Profile = profile.Profile
	// GroupStats summarises one task group's cache behaviour.
	GroupStats = profile.GroupStats

	// CoarsenParams identifies the CMP configuration an automatic
	// task-coarsening decision targets.
	CoarsenParams = coarsen.Params
	// CoarsenSelection is the outcome of a coarsening pass: the groups to
	// run sequentially and the parallelization-table thresholds.
	CoarsenSelection = coarsen.Selection

	// ExperimentOptions controls the experiment harness.
	ExperimentOptions = experiments.Options
	// ExperimentPoint names one cell of a study's table (workload, input
	// variant, cores, topology, swept parameter); a study's Get, Cycles,
	// Speedup and MissReduction take one with a scheduler name.
	ExperimentPoint = experiments.Point

	// SweepSpec declares a design-space sweep: the cross product of
	// workloads, schedulers and CMP configurations (see internal/sweep).
	// It is the one expander of that grid, for the CLI and the wire alike.
	SweepSpec = sweep.Spec
	// SweepJob is one simulation of a sweep.
	SweepJob = sweep.Job
	// SweepKey is the content address of one simulation run.
	SweepKey = sweep.Key
	// SweepResult is the outcome of one sweep job.
	SweepResult = sweep.Result
	// SweepEngine runs job lists on one bounded worker pool, shared by
	// every run on the engine, with deterministic result ordering.
	SweepEngine = sweep.Engine
	// SweepEngineOptions configure a SweepEngine.
	SweepEngineOptions = sweep.EngineOptions
	// SweepCache memoises finished runs by content address.
	SweepCache = sweep.Cache
	// SweepSummaryRow aggregates one (workload, scheduler) series.
	SweepSummaryRow = sweep.SummaryRow
	// SweepWorkloadFactory builds workloads for sweep specifications; see
	// ExperimentOptions.WorkloadFactory for the paper-sized inputs.
	SweepWorkloadFactory = sweep.WorkloadFactory
	// SweepLeaseOptions name the metrics registry and logger of the
	// crash-safe flight leases that make a disk cache directory shareable
	// between processes (see NewSweepSharedDiskCache).
	SweepLeaseOptions = sweep.LeaseOptions

	// SweepService shares one sweep engine, and its one worker pool,
	// between concurrent clients with cross-client single-flight
	// deduplication, admission control and streaming per-job delivery (the
	// core of cmd/sweepd; see internal/sweepsvc).
	SweepService = sweepsvc.Service
	// SweepServiceOptions configure a SweepService (worker count, queue and
	// sweep bounds, cache, metrics).
	SweepServiceOptions = sweepsvc.Options
	// SweepHandler is the HTTP/JSON binding of a SweepService: submission
	// with NDJSON/SSE result streaming, status, cancellation, metrics and
	// health endpoints.
	SweepHandler = sweepsvc.Handler
	// SweepRequest is the strict wire encoding of one sweep submission — a
	// declarative grid or an explicit point list — expanding through a
	// SweepSpec to the same cache keys the CLI produces.
	SweepRequest = sweepsvc.Request
	// SweepPoint is one explicit design-space point: one job of a
	// SweepSpec's expansion, and the element of a SweepRequest's point list.
	SweepPoint = sweep.Point
	// SweepEvent is one message of a sweep's result stream (accepted,
	// result, done, cancelled).
	SweepEvent = sweepsvc.Event

	// Tracer records task-lifecycle events (spawn, ready, run, steal,
	// migrate, pin, finish) stamped with simulated cycles; attach one via
	// SimOptions.Tracer.  A nil *Tracer is a valid no-op sink: every method
	// is nil-receiver-safe, so instrumented code never branches on "is
	// tracing on".
	Tracer = obs.Tracer
	// TraceEvent is one recorded lifecycle event.
	TraceEvent = obs.Event
	// TraceEventKind discriminates lifecycle events (spawn, ready, run,
	// steal, migrate, pin, finish).
	TraceEventKind = obs.EventKind
	// ChromeTraceConfig controls Chrome trace-event JSON export
	// (Tracer.WriteChromeTrace): core count and an optional task-name
	// resolver for human-readable duration rows.
	ChromeTraceConfig = obs.ChromeTraceConfig
	// MetricsRegistry is a named collection of counters, gauges and
	// histograms with snapshot-on-demand export; attach one via
	// SimOptions.Metrics or SweepEngineOptions.Metrics.  A nil *Registry
	// hands out nil instruments whose methods are no-ops.
	MetricsRegistry = obs.Registry
	// MetricSample is one name/value pair of a MetricsRegistry snapshot.
	MetricSample = obs.Sample
	// SweepProgress is a live line-oriented progress reporter for sweep
	// runs (the -progress flag of cmd/sweep).
	SweepProgress = obs.Progress
)

// DefaultScale is the factor by which cache capacities and workload inputs
// are divided in the repository's default experiment runs (see DESIGN.md).
const DefaultScale = config.DefaultScale

// StealNearest and StealOldest are the steal policies NewLocalityWS
// accepts: nearest-slice-first stealing and globally-oldest-task stealing.
// Work stealing is one scheduler type whose victim order is the only
// difference between "ws" (NewWS: a forward scan from the thief),
// "ws:nearest" and "ws:oldest".
const (
	StealNearest = sched.StealNearest
	StealOldest  = sched.StealOldest
)

// NewPDF returns a Parallel Depth First scheduler.
func NewPDF() Scheduler { return sched.NewPDF() }

// NewWS returns the paper's Work Stealing scheduler ("ws"): an idle core
// steals from the first non-empty deque scanning forward from itself.
func NewWS() Scheduler { return sched.NewWS() }

// NewSpaceBounded returns the space-bounded scheduler ("sb"): tasks are
// annotated with their working sets (the distinct cache lines of their
// recorded streams) and pinned to the smallest cache level or L2 slice
// whose capacity fits them.
func NewSpaceBounded() Scheduler { return sched.NewSpaceBounded() }

// NewLocalityWS returns a Work Stealing scheduler with a locality-guided
// steal policy ("ws:nearest", "ws:oldest"); out-of-range policies fall back
// to StealNearest.
func NewLocalityWS(policy StealPolicy) Scheduler { return sched.NewLocalityWS(policy) }

// NewScheduler constructs a registered scheduler by canonical name ("pdf",
// "ws", "fifo", "sb", "ws:nearest", "ws:oldest", or any name added through
// RegisterScheduler); see SchedulerNames.
func NewScheduler(name string) (Scheduler, error) { return sched.New(name) }

// SchedulerNames lists the registered schedulers in sorted order.
func SchedulerNames() []string { return sched.Names() }

// RegisterScheduler adds a named scheduler factory to the registry
// NewScheduler and sweep specifications resolve names against.  Names are
// canonical lower-case spellings as they appear in sweep content-address
// keys; duplicates panic.
func RegisterScheduler(name string, f SchedulerFactory) { sched.Register(name, f) }

// SharedTopology returns the shared-L2 topology (the paper's machine, and
// the default for every configuration).
func SharedTopology() CacheTopology { return cache.Shared() }

// PrivateTopology returns the private-L2-per-core topology: the total L2
// capacity split into one slice per core.
func PrivateTopology() CacheTopology { return cache.Private() }

// ClusteredTopology returns the topology with k cores sharing each L2
// slice; k=1 degenerates to private and k>=P to shared.
func ClusteredTopology(k int) CacheTopology { return cache.Clustered(k) }

// ParseTopology decodes the canonical topology encodings "shared",
// "private" and "clustered:<k>" (the forms accepted by the -topology flags
// of cmd/cmpsim and cmd/sweep).
func ParseTopology(s string) (CacheTopology, error) { return cache.ParseTopology(s) }

// DefaultConfig returns the Table 2 (scaling-technology) configuration with
// the given core count (1, 2, 4, 8, 16 or 32). It panics on unknown counts;
// use config.Default via the internal package for error handling.
func DefaultConfig(cores int) CMPConfig { return config.MustDefault(cores) }

// SingleTech45Config returns the Table 3 (45 nm single-technology)
// configuration with the given core count.
func SingleTech45Config(cores int) CMPConfig { return config.MustSingleTech45(cores) }

// DefaultConfigs returns every Table 2 configuration.
func DefaultConfigs() []CMPConfig { return config.Defaults() }

// SingleTech45Configs returns every Table 3 configuration.
func SingleTech45Configs() []CMPConfig { return config.SingleTech45All() }

// Run simulates the DAG on the configuration under the scheduler.
func Run(d *DAG, s Scheduler, cfg CMPConfig) (*SimResult, error) {
	return cmpsim.Run(d, s, cfg)
}

// RunWithOptions simulates with explicit options.
func RunWithOptions(d *DAG, s Scheduler, cfg CMPConfig, opts SimOptions) (*SimResult, error) {
	return cmpsim.RunWithOptions(d, s, cfg, opts)
}

// RunSequential simulates the sequential execution of the DAG on one core of
// the configuration — the baseline the paper's speedups are measured
// against.
func RunSequential(d *DAG, cfg CMPConfig) (*SimResult, error) {
	return cmpsim.RunSequential(d, cfg)
}

// BuildWorkload builds a benchmark by name with its default (scaled)
// parameters; see WorkloadNames for the registered names (the regular suite
// plus the eight graph kernels: "bfs", "sssp", "pagerank", "triangles",
// "connectivity", "kcore", "mis" and "matching").
func BuildWorkload(name string) (*DAG, *GroupTree, error) {
	w, err := workload.New(name)
	if err != nil {
		return nil, nil, err
	}
	return w.Build()
}

// NewMergesort, NewHashJoin, NewLU, NewMatMul, NewCholesky, NewQuicksort
// and NewHeat construct benchmarks with explicit parameters (zero fields
// take defaults).
func NewMergesort(cfg MergesortConfig) Workload { return workload.NewMergesort(cfg) }

// NewHashJoin constructs the hash-join benchmark.
func NewHashJoin(cfg HashJoinConfig) Workload { return workload.NewHashJoin(cfg) }

// HashJoinConfigForL2 sizes hash-join sub-partitions for a given shared-L2
// capacity, the way a database system would.
func HashJoinConfigForL2(l2Bytes int64) HashJoinConfig {
	return workload.HashJoinConfigForL2(l2Bytes)
}

// NewLU constructs the LU-factorisation benchmark.
func NewLU(cfg LUConfig) Workload { return workload.NewLU(cfg) }

// NewMatMul constructs the blocked matrix-multiply benchmark.
func NewMatMul(cfg MatMulConfig) Workload { return workload.NewMatMul(cfg) }

// NewCholesky constructs the blocked Cholesky-factorisation benchmark.
func NewCholesky(cfg CholeskyConfig) Workload { return workload.NewCholesky(cfg) }

// NewQuicksort constructs the parallel quicksort benchmark.
func NewQuicksort(cfg QuicksortConfig) Workload { return workload.NewQuicksort(cfg) }

// NewHeat constructs the Jacobi-stencil benchmark.
func NewHeat(cfg HeatConfig) Workload { return workload.NewHeat(cfg) }

// NewBFS constructs the level-synchronous breadth-first-search benchmark on
// a generated graph (zero fields take defaults: a uniform random graph of
// 2^15 vertices, average degree 8).
func NewBFS(cfg BFSConfig) Workload { return workload.NewBFS(cfg) }

// NewSSSP constructs the round-based Bellman-Ford shortest-paths benchmark.
func NewSSSP(cfg SSSPConfig) Workload { return workload.NewSSSP(cfg) }

// NewPageRank constructs the PageRank power-iteration benchmark.
func NewPageRank(cfg PageRankConfig) Workload { return workload.NewPageRank(cfg) }

// NewTriangles constructs the triangle-counting benchmark.
func NewTriangles(cfg TrianglesConfig) Workload { return workload.NewTriangles(cfg) }

// NewConnectivity constructs the low-diameter-decomposition
// connected-components benchmark.
func NewConnectivity(cfg ConnectivityConfig) Workload { return workload.NewConnectivity(cfg) }

// NewKCore constructs the bucketed-peeling k-core benchmark.
func NewKCore(cfg KCoreConfig) Workload { return workload.NewKCore(cfg) }

// NewMIS constructs the random-priority maximal-independent-set benchmark.
func NewMIS(cfg MISConfig) Workload { return workload.NewMIS(cfg) }

// NewMatching constructs the random-priority maximal-matching benchmark.
func NewMatching(cfg MatchingConfig) Workload { return workload.NewMatching(cfg) }

// WorkloadNames lists the available benchmarks.
func WorkloadNames() []string { return workload.Names() }

// RegisterWorkload adds a named workload factory to the registry BuildWorkload
// and sweep specifications resolve names against.
func RegisterWorkload(name string, f func() Workload) { workload.Register(name, f) }

// ProfileWorkingSets runs the one-pass LruTree profiler over the DAG's
// sequential trace.
func ProfileWorkingSets(d *DAG, cfg ProfileConfig) (*Profile, error) {
	return profile.NewLruTree(cfg).ProfileDAG(d)
}

// DefaultProfileCacheSizes returns a convenient ladder of cache sizes for
// profiling scaled configurations.
func DefaultProfileCacheSizes() []int64 { return profile.DefaultCacheSizes() }

// CoarsenTasks applies the paper's stop criterion (W ≤ K·C/(2P)) to a
// profiled task-group tree, returning the groups to run sequentially and the
// parallelization-table thresholds for the configuration.
func CoarsenTasks(p *Profile, tree *GroupTree, params CoarsenParams) (*CoarsenSelection, error) {
	return coarsen.Coarsen(p, tree, params)
}

// CollapseDAG applies a coarsening selection to a DAG, merging each selected
// group into a single sequential task.
func CollapseDAG(d *DAG, tree *GroupTree, sel *CoarsenSelection) (*DAG, error) {
	return coarsen.CollapseDAG(d, tree, sel)
}

// NewTracer returns an empty task-lifecycle tracer.
func NewTracer() *Tracer { return obs.NewTracer() }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewSweepProgress returns a progress reporter writing to w, labelled label,
// expecting total steps.
func NewSweepProgress(w io.Writer, label string, total int) *SweepProgress {
	return obs.NewProgress(w, label, total)
}

// ValidateChromeTrace structurally checks an exported Chrome trace-event
// document: well-formed JSON, matched begin/end nesting per thread row, and
// the presence of every required lifecycle stage (cmd/tracecheck wraps it).
func ValidateChromeTrace(data []byte, required []string) error {
	return obs.ValidateChromeTrace(data, required)
}

// NewSweepEngine returns a parallel sweep engine (see internal/sweep).
func NewSweepEngine(opts SweepEngineOptions) *SweepEngine { return sweep.NewEngine(opts) }

// NewSweepMemoryCache returns an in-memory sweep result cache.
func NewSweepMemoryCache() SweepCache { return sweep.NewMemoryCache() }

// NewSweepDiskCache returns a sweep result cache persisted under dir, so
// repeated sweeps across processes are near-instant.
func NewSweepDiskCache(dir string) (SweepCache, error) { return sweep.NewDiskCache(dir) }

// NewSweepSharedDiskCache returns a disk-backed sweep cache that is safe to
// share between concurrent processes (a sweepd fleet, or programs that open
// the directory through this constructor): per-key flight leases, each an
// exclusive flock(2) on a lease file, make each distinct simulation run at
// most once across every such process on the directory.  A lease dies with
// its holder's process, so a crashed holder's keys pass to the others at
// once.  Where the platform has no flock(2) the cache simulates
// uncoordinated.
func NewSweepSharedDiskCache(dir string, opts SweepLeaseOptions) (SweepCache, error) {
	dc, err := sweep.NewDiskCache(dir)
	if err != nil {
		return nil, err
	}
	return sweep.NewLeasedCache(dc, opts), nil
}

// RunSweep expands the spec and executes it with the given engine options.
func RunSweep(spec SweepSpec, opts SweepEngineOptions) ([]SweepResult, error) {
	return spec.Run(opts)
}

// NewSweepService returns a sweep service sharing one engine between
// concurrent clients (see SweepService); drain it with its Drain method
// before discarding it.
func NewSweepService(opts SweepServiceOptions) *SweepService { return sweepsvc.NewService(opts) }

// NewSweepHandler binds a sweep service to its HTTP/JSON surface (the
// handler cmd/sweepd serves).
func NewSweepHandler(svc *SweepService) *SweepHandler { return sweepsvc.NewHandler(svc) }

// WriteSweepCSV, WriteSweepJSON and ReadSweepJSON export and import sweep
// results (JSON round-trips losslessly).
var (
	WriteSweepCSV  = sweep.WriteCSV
	WriteSweepJSON = sweep.WriteJSON
	ReadSweepJSON  = sweep.ReadJSON
)

// Experiment runners: each regenerates one of the paper's tables or figures
// and returns a result whose String method prints the corresponding rows.
var (
	Figure1            = experiments.Figure1
	Figure2            = experiments.Figure2
	Figure3            = experiments.Figure3
	Figure4            = experiments.Figure4
	Figure5            = experiments.Figure5
	Figure6            = experiments.Figure6
	Figure8            = experiments.Figure8
	GranularityStudy   = experiments.Granularity
	ProfilerComparison = experiments.ProfilerComparison
	// TopologyComparison evaluates the paper's shared-vs-private premise:
	// PDF vs WS with the L2 organised as shared, clustered and per-core
	// private slices (not a paper figure; see EXPERIMENTS.md).
	TopologyComparison = experiments.TopologyComparison
	// SchedulerComparison widens the scheduler axis itself: every
	// registered comparison scheduler (pdf, ws, ws:nearest, sb) across
	// shared, clustered and private topologies on mergesort, hashjoin and
	// BFS (not a paper figure; see EXPERIMENTS.md).
	SchedulerComparison = experiments.SchedulerComparison
)
