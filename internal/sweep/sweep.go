// Package sweep is the parallel design-space sweep engine.
//
// The paper's evaluation is a grid of (workload x scheduler x CMP
// configuration) simulation runs; every figure is one slice of that grid.
// This package turns such grids into explicit Job lists, runs them on a
// bounded worker pool with deterministic result ordering, memoises finished
// runs in a content-addressed cache (in memory, optionally mirrored to
// disk), and streams results to aggregators and CSV/JSON exporters.
//
// The experiment harness (internal/experiments) expresses every figure as a
// job list executed here, cmd/sweep exposes arbitrary sweeps on the command
// line, and tests exploit the determinism guarantee: the results of a sweep
// are identical regardless of the worker count, because a DAG never changes
// after its build — concurrent jobs share one and only read it — and the
// simulator itself is deterministic.
//
// Jobs that share a (workload, parameters) pair — the common shape: one job
// per scheduler and machine configuration over the same build — share one
// memoised DAG recorded into a content-addressed trace store; see memo.go.
// Sharing is driven entirely by job keys, so it needs no opt-in and cannot
// change results: the shared DAG simulates bit-identically to a fresh
// build.
package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"cmpsched/internal/cmpsim"
	"cmpsched/internal/config"
	"cmpsched/internal/dag"
	"cmpsched/internal/obs"
	"cmpsched/internal/refs"
	"cmpsched/internal/sched"
)

// Sequential is the pseudo-scheduler name selecting the one-core sequential
// baseline run (the denominator of the paper's speedups).
const Sequential = "seq"

// Key is the content address of one simulation run: every input that can
// change the result is folded into it.  Two jobs with equal keys are
// guaranteed to produce equal results, which is what makes the cache sound.
type Key struct {
	// Workload names the benchmark (or benchmark variant, e.g.
	// "mergesort/coarsened").
	Workload string `json:"workload"`
	// Params is a canonical fingerprint of the workload's build
	// parameters (typically fmt.Sprintf("%+v", cfgStruct)).
	Params string `json:"params"`
	// Scheduler is a canonical scheduler-registry name ("pdf", "ws",
	// "fifo", "sb", "ws:nearest", ...) or Sequential.  Parameterised
	// spellings are part of the name, so scheduler variants never share
	// cache entries.
	Scheduler string `json:"scheduler"`
	// Config is a canonical fingerprint of the CMP configuration.
	Config string `json:"config"`
	// Options is a canonical fingerprint of the simulator options.
	Options string `json:"options"`
}

// Hash returns the hex SHA-256 of the key, used as the cache address.
func (k Key) Hash() string {
	h := sha256.New()
	// A length-prefixed encoding keeps field boundaries unambiguous.
	for _, f := range []string{k.Workload, k.Params, k.Scheduler, k.Config, k.Options} {
		fmt.Fprintf(h, "%d:%s|", len(f), f)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// String renders a short human-readable form for logs and errors.
func (k Key) String() string {
	return fmt.Sprintf("%s/%s", k.Workload, k.Scheduler)
}

// BuildFunc constructs the DAG for a job.  It may be called from any worker,
// so it must be safe to call concurrently with other jobs' builds, and it
// must return a DAG of its own: the engine records the DAG into its trace
// store (dag.Record).
//
// Builds must be pure functions of the job key's Workload and Params
// fields: the engine builds each (Workload, Params) pair once and hands that
// one DAG to every job of the pair, whatever its machine configuration (see
// memo.go).  Two jobs with equal pairs MUST build equivalent DAGs, and at
// most one of their Build functions will actually run per sweep engine.  A
// build that reads the machine configuration (cache-sized inputs, say) must
// fold what it reads into Params; NewJob callers fingerprinting their
// default-filled workload config structs into Params satisfy this by
// construction.
type BuildFunc func() (*dag.DAG, error)

// DeriveFunc computes named scalar metrics from a finished run while the
// DAG is still available (e.g. per-level miss aggregation).  Derived values
// are stored in the cache next to the simulator result, so cache hits carry
// them without rebuilding the DAG.
type DeriveFunc func(d *dag.DAG, r *cmpsim.Result) (map[string]int64, error)

// Job is one simulation to run.
type Job struct {
	// Key identifies the job for caching, ordering and reporting.
	Key Key
	// Config is the machine configuration to simulate.
	Config config.CMP
	// Scheduler is the scheduler name ("pdf", "ws", "fifo" or Sequential).
	Scheduler string
	// Build constructs the job's DAG.
	Build BuildFunc
	// Options, when non-nil, overrides cmpsim.DefaultOptions.
	Options *cmpsim.Options
	// Derive, when non-nil, computes extra metrics from the finished run.
	Derive DeriveFunc
	// KeepTaskStats retains the per-task stats on the result.  They are
	// dropped by default: they are positional to the job's DAG
	// (useless to callers that may be served from the cache) and dominate
	// the result's memory and disk footprint.  Jobs that keep task stats
	// bypass the cache entirely — a cached entry could not honour them.
	KeepTaskStats bool
}

// NewJob builds a Job whose key is derived canonically from the inputs.
// params is the canonical fingerprint of the workload's build parameters —
// conventionally fmt.Sprintf("%+v", cfgStruct) over a pointer-free config
// struct, so equal parameters always produce equal fingerprints.
func NewJob(workload, params, scheduler string, cfg config.CMP, build BuildFunc) Job {
	return Job{
		Key: Key{
			Workload:  workload,
			Params:    params,
			Scheduler: scheduler,
			Config:    fmt.Sprintf("%+v", cfg),
			Options:   "",
		},
		Config:    cfg,
		Scheduler: scheduler,
		Build:     build,
	}
}

// WithDerive attaches a derive function, folding its identity tag into the
// key (different derivations must not share cache entries).
func (j Job) WithDerive(tag string, fn DeriveFunc) Job {
	j.Derive = fn
	j.Key.Options += "|derive=" + tag
	return j
}

// WithOptions attaches simulator options, folding their semantic fingerprint
// into the key.  Options.Fingerprint covers exactly the fields that can
// change simulation results; instrumentation sinks (Tracer, Metrics) are
// excluded, so observed and unobserved runs of the same job share one cache
// entry — and the fingerprint stays free of pointer values that would break
// key determinism.
func (j Job) WithOptions(opts cmpsim.Options) Job {
	j.Options = &opts
	j.Key.Options += "|opts=" + opts.Fingerprint()
	return j
}

// Result is the outcome of one job.
type Result struct {
	// Key echoes the job's key.
	Key Key `json:"key"`
	// Sim is the simulator result (TaskStats dropped unless the job set
	// KeepTaskStats).
	Sim *cmpsim.Result `json:"sim"`
	// Derived holds the job's derived metrics, if any.
	Derived map[string]int64 `json:"derived,omitempty"`
	// Cached reports whether the result was served from the cache.
	Cached bool `json:"cached"`
	// Elapsed is the wall-clock time the job took in this process
	// (near zero on a cache hit).
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Engine runs job lists on a bounded worker pool.
type Engine struct {
	workers    int
	cache      Cache
	jobTimeout time.Duration
	em         engineMetrics

	// templates memoises one recorded DAG per (workload, params);
	// their streams live in traces, one store shared by the whole engine.
	// See memo.go.
	templMu   sync.Mutex
	templates map[string]*templateEntry
	traces    *refs.TraceStore
}

// EngineOptions configure an Engine.
type EngineOptions struct {
	// Workers is the maximum number of concurrent simulations.  Zero (or
	// negative) means runtime.NumCPU(); 1 forces serial execution.
	Workers int
	// Cache, when non-nil, is consulted before each run and updated after.
	Cache Cache
	// Metrics, when non-nil, receives per-sweep aggregates (job counts,
	// cache hit counts, simulated cycles, cache statistics) as the stream
	// runs.  The totals are sums, independent of worker count and
	// completion order, so the published view is deterministic.
	Metrics *obs.Registry
	// JobTimeout, when positive, bounds each job's simulation wall-clock
	// time: a run that exceeds it is cancelled (cmpsim.ErrCancelled) and the
	// job fails with a timeout error, instead of a runaway simulation
	// wedging a worker forever.  The timeout covers only the simulation —
	// cache hits and adopted flights are exempt — and is private to the job:
	// engine-level cancellation (RunContext) still takes effect only between
	// jobs, so every non-timed-out Result stays complete and cacheable.
	// Jobs that carry their own Options.Cancel keep it unless a timeout is
	// configured.
	JobTimeout time.Duration
}

// engineMetrics holds the engine's pre-resolved counter handles.  Each is
// bumped a few times per job, so workers share them without contention
// worth sharding.  With a nil registry every handle is nil and each Add is
// a no-op, so the disabled state costs nothing per job.
type engineMetrics struct {
	jobs, cached                       *obs.Counter
	simCycles, simTasks                *obs.Counter
	l1Hits, l1Misses, l2Hits, l2Misses *obs.Counter
	memFetches                         *obs.Counter
	// dagBuilds counts DAG templates actually built; dagShared counts jobs
	// served from a memoised template instead (see memo.go).  Both are
	// incremented once-per-key-event under the snapshot lock's ordering, so
	// their totals are worker-count independent like everything else here.
	dagBuilds, dagShared *obs.Counter
	// Trace-interning totals of the engine's shared store, set when a
	// stream finishes.
	traceUnique, traceInterned, traceArena *obs.Gauge
}

func newEngineMetrics(reg *obs.Registry) engineMetrics {
	return engineMetrics{
		jobs:          reg.Counter("sweep.jobs"),
		cached:        reg.Counter("sweep.jobs_cached"),
		simCycles:     reg.Counter("sweep.sim_cycles"),
		simTasks:      reg.Counter("sweep.sim_tasks"),
		l1Hits:        reg.Counter("sweep.cache.l1_hits"),
		l1Misses:      reg.Counter("sweep.cache.l1_misses"),
		l2Hits:        reg.Counter("sweep.cache.l2_hits"),
		l2Misses:      reg.Counter("sweep.cache.l2_misses"),
		memFetches:    reg.Counter("sweep.mem_fetches"),
		dagBuilds:     reg.Counter("sweep.dag_builds"),
		dagShared:     reg.Counter("sweep.dag_rebuilds_avoided"),
		traceUnique:   reg.Gauge("sweep.trace.unique"),
		traceInterned: reg.Gauge("sweep.trace.interned"),
		traceArena:    reg.Gauge("sweep.trace.arena_bytes"),
	}
}

// publish folds one finished job into the counters.
func (em *engineMetrics) publish(r Result) {
	em.jobs.Add(1)
	if r.Cached {
		em.cached.Add(1)
	}
	if r.Sim == nil {
		return
	}
	em.simCycles.Add(r.Sim.Cycles)
	em.simTasks.Add(int64(r.Sim.TasksExecuted))
	em.l1Hits.Add(r.Sim.L1.Hits)
	em.l1Misses.Add(r.Sim.L1.Misses)
	em.l2Hits.Add(r.Sim.L2.Hits)
	em.l2Misses.Add(r.Sim.L2.Misses)
	em.memFetches.Add(r.Sim.Mem.Fetches)
}

// NewEngine constructs an engine.
func NewEngine(opts EngineOptions) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	return &Engine{
		workers:    w,
		cache:      opts.Cache,
		jobTimeout: opts.JobTimeout,
		em:         newEngineMetrics(opts.Metrics),
		templates:  make(map[string]*templateEntry),
		traces:     refs.NewTraceStore(),
	}
}

// Workers returns the engine's concurrency bound.
func (e *Engine) Workers() int { return e.workers }

// Run executes the jobs and returns their results in job order, regardless
// of the completion order of the workers.  On failure it returns the partial
// results together with the error of the lowest-indexed failing job, so the
// reported error is deterministic too.
func (e *Engine) Run(jobs []Job) ([]Result, error) {
	return e.RunStreamContext(context.Background(), jobs, nil)
}

// RunContext is Run with cancellation: when ctx is cancelled the engine
// stops starting new jobs, lets in-flight jobs finish, and returns the
// partial results (completed entries filled, the rest zero) together with
// the context's error.  Cancellation is checked between jobs, never inside a
// simulation, so every returned Result is complete and cacheable.
func (e *Engine) RunContext(ctx context.Context, jobs []Job) ([]Result, error) {
	return e.RunStreamContext(ctx, jobs, nil)
}

// RunStream is Run with a streaming callback: onResult is invoked once per
// finished job, in completion order (not job order), serialised by the
// engine so the callback needs no locking.  The returned slice is still in
// job order.
func (e *Engine) RunStream(jobs []Job, onResult func(index int, r Result)) ([]Result, error) {
	return e.RunStreamContext(context.Background(), jobs, onResult)
}

// RunStreamContext is RunStream with cancellation, combining the contracts
// of RunContext and RunStream: results stream in completion order until ctx
// is cancelled, at which point no new jobs start and the partial job-ordered
// slice is returned with the context's error.  Job errors take precedence
// over cancellation in the returned error, keeping failure reporting
// deterministic.
func (e *Engine) RunStreamContext(ctx context.Context, jobs []Job, onResult func(index int, r Result)) ([]Result, error) {
	defer e.publishTraceStats()
	results := make([]Result, len(jobs))
	errs := make([]error, len(jobs))

	workers := e.workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		// Serial fast path: stop at the first error, like a plain loop.
		for i := range jobs {
			if err := ctx.Err(); err != nil {
				return results, fmt.Errorf("sweep: %w", err)
			}
			r, err := e.runJob(ctx, jobs[i])
			if err != nil {
				return results, fmt.Errorf("sweep: job %d (%s): %w", i, jobs[i].Key, err)
			}
			results[i] = r
			e.em.publish(r)
			if onResult != nil {
				onResult(i, r)
			}
		}
		return results, nil
	}

	indexes := make(chan int)
	abort := make(chan struct{})
	var abortOnce sync.Once
	var cbMu sync.Mutex
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indexes {
				r, err := e.runJob(ctx, jobs[i])
				if err != nil {
					errs[i] = err
					// Stop feeding new jobs; in-flight ones finish.
					abortOnce.Do(func() { close(abort) })
					continue
				}
				results[i] = r
				e.em.publish(r)
				if onResult != nil {
					cbMu.Lock()
					onResult(i, r)
					cbMu.Unlock()
				}
			}
		}()
	}
feed:
	for i := range jobs {
		// With a worker waiting, the send below is ready too, and select
		// picks among ready cases at random: check for a stop first, so a
		// cancelled or failed run starts no further job.
		select {
		case <-abort:
			break feed
		case <-ctx.Done():
			break feed
		default:
		}
		select {
		case indexes <- i:
		case <-abort:
			break feed
		case <-ctx.Done():
			break feed
		}
	}
	close(indexes)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("sweep: job %d (%s): %w", i, jobs[i].Key, err)
		}
	}
	if err := ctx.Err(); err != nil {
		return results, fmt.Errorf("sweep: %w", err)
	}
	return results, nil
}

// runJob executes (or recalls) a single job.
//
// A panic anywhere in the job — a buggy workload builder, a scheduler edge
// case, a derivation indexing past its stats — is recovered into the job's
// error, so one bad job fails one row instead of killing the process (and,
// under sweepsvc, the whole daemon).  ctx feeds only cross-process flight
// coordination (FlightCache.Acquire waits); simulation cancellation is
// governed by EngineOptions.JobTimeout alone, preserving the documented
// between-jobs cancellation contract.
func (e *Engine) runJob(ctx context.Context, j Job) (res Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("job panicked: %v\n%s", p, debug.Stack())
		}
	}()
	start := time.Now()
	if e.cache != nil && !j.KeepTaskStats {
		if ent, ok := e.cache.Get(j.Key); ok {
			return Result{Key: j.Key, Sim: ent.Sim, Derived: ent.Derived, Cached: true, Elapsed: time.Since(start)}, nil
		}
		if fc, ok := e.cache.(FlightCache); ok {
			// Cross-process single-flight: adopt the entry if another
			// instance lands it first, otherwise hold the flight's lease for
			// the duration of the simulation.  The lease is released after
			// the Put below (deferred, so also on failure — a waiter then
			// re-claims and re-simulates); a nil lease with a nil error means
			// coordination is degraded and we simulate uncoordinated.
			ent, adopted, lease, aerr := fc.Acquire(ctx, j.Key)
			if aerr != nil {
				return Result{}, aerr
			}
			if adopted {
				return Result{Key: j.Key, Sim: ent.Sim, Derived: ent.Derived, Cached: true, Elapsed: time.Since(start)}, nil
			}
			if lease != nil {
				defer lease.Release()
			}
		}
	}
	if j.Build == nil {
		return Result{}, fmt.Errorf("job has no build function")
	}
	d, err := e.template(j)
	if err != nil {
		return Result{}, err
	}

	opts := cmpsim.DefaultOptions()
	if j.Options != nil {
		opts = *j.Options
	} else {
		// Per-task stats cost per-task accounting on every simulated
		// task; record them only when the job will actually consume them.
		opts.RecordTaskStats = j.KeepTaskStats
	}
	if j.Derive != nil {
		// Derivations read per-task stats.
		opts.RecordTaskStats = true
	}
	if e.jobTimeout > 0 {
		// The timeout context is rooted at Background, not ctx: engine-level
		// cancellation must keep taking effect only between jobs.
		tctx, cancel := context.WithTimeout(context.Background(), e.jobTimeout)
		defer cancel()
		opts.Cancel = tctx.Done()
	}
	var r *cmpsim.Result
	if j.Scheduler == Sequential {
		r, err = cmpsim.RunSequentialWithOptions(d, j.Config, opts)
	} else {
		var s sched.Scheduler
		if s, err = sched.New(j.Scheduler); err != nil {
			return Result{}, err
		}
		r, err = cmpsim.RunWithOptions(d, s, j.Config, opts)
	}
	if err != nil {
		if e.jobTimeout > 0 && errors.Is(err, cmpsim.ErrCancelled) {
			return Result{}, fmt.Errorf("job exceeded timeout %v: %w", e.jobTimeout, err)
		}
		return Result{}, err
	}

	var derived map[string]int64
	if j.Derive != nil {
		if derived, err = j.Derive(d, r); err != nil {
			return Result{}, fmt.Errorf("derive: %w", err)
		}
	}
	if !j.KeepTaskStats {
		r.TaskStats = nil
		if e.cache != nil {
			// Cache errors are deliberately non-fatal: a failed disk
			// write only costs a future recomputation.
			_ = e.cache.Put(Entry{Key: j.Key, Sim: r, Derived: derived})
		}
	}
	return Result{Key: j.Key, Sim: r, Derived: derived, Elapsed: time.Since(start)}, nil
}

// DeriveLevelMisses aggregates shared-L2 misses by task level under keys
// "level:<n>" — the per-merge-level picture of Figure 1.
func DeriveLevelMisses(d *dag.DAG, r *cmpsim.Result) (map[string]int64, error) {
	out := make(map[string]int64)
	for level, misses := range r.L2MissesByLevel(d) {
		out[fmt.Sprintf("level:%d", level)] = misses
	}
	return out, nil
}

// LevelMisses decodes the "level:<n>" keys written by DeriveLevelMisses.
func LevelMisses(derived map[string]int64) map[int]int64 {
	out := make(map[int]int64)
	for k, v := range derived {
		var level int
		if _, err := fmt.Sscanf(k, "level:%d", &level); err == nil {
			out[level] = v
		}
	}
	return out
}

// SummaryRow aggregates the results of one (workload, scheduler) series.
type SummaryRow struct {
	Workload    string
	Scheduler   string
	Runs        int
	CacheHits   int
	TotalCycles int64
	// BestCycles/BestConfig identify the fastest point of the series (the
	// design-point question of §5.2).
	BestCycles  int64
	BestConfig  string
	MeanMemUtil float64
}

// Aggregator accumulates results into per-(workload, scheduler) summaries.
// Add may be called from RunStream's callback; Rows returns a
// deterministically sorted snapshot.
type Aggregator struct {
	mu   sync.Mutex
	rows map[string]*SummaryRow
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{rows: make(map[string]*SummaryRow)}
}

// Add folds one result into the aggregate.
func (a *Aggregator) Add(r Result) {
	a.mu.Lock()
	defer a.mu.Unlock()
	k := r.Key.Workload + "\x00" + r.Key.Scheduler
	row, ok := a.rows[k]
	if !ok {
		row = &SummaryRow{Workload: r.Key.Workload, Scheduler: r.Key.Scheduler}
		a.rows[k] = row
	}
	row.Runs++
	if r.Cached {
		row.CacheHits++
	}
	if r.Sim != nil {
		row.TotalCycles += r.Sim.Cycles
		if row.BestCycles == 0 || r.Sim.Cycles < row.BestCycles {
			row.BestCycles = r.Sim.Cycles
			row.BestConfig = r.Sim.Config.Name
		}
		// Incremental mean keeps Add O(1).
		row.MeanMemUtil += (r.Sim.MemUtilization - row.MeanMemUtil) / float64(row.Runs)
	}
}

// Rows returns the summaries sorted by workload then scheduler.
func (a *Aggregator) Rows() []SummaryRow {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]SummaryRow, 0, len(a.rows))
	for _, r := range a.rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		return out[i].Scheduler < out[j].Scheduler
	})
	return out
}
