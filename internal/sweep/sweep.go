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
// memoised DAG while any of them is queued or running; see memo.go.
// Sharing is driven entirely by job keys, so it needs no opt-in and cannot
// change results: the shared DAG simulates bit-identically to a fresh
// build.  The engine's one worker pool hands a free worker the first queued
// job whose template no other worker is building, so a job waiting on a
// build never blocks a worker.
package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"time"

	"cmpsched/internal/cmpsim"
	"cmpsched/internal/config"
	"cmpsched/internal/dag"
	"cmpsched/internal/obs"
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
// must return a DAG of its own: the engine shares it, read-only, among the
// jobs of its template.
//
// Builds must be pure functions of the job key's Workload and Params
// fields: the engine builds each (Workload, Params) pair once and hands that
// one DAG to every job of the pair, whatever its machine configuration (see
// memo.go).  Two jobs with equal pairs MUST build equivalent DAGs, and at
// most one of their Build functions runs while jobs of the pair are queued
// or running on an engine.  A build that reads the machine configuration
// (cache-sized inputs, say) must fold what it reads into Params; NewJob
// callers fingerprinting their default-filled workload config structs into
// Params satisfy this by construction.
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

// Engine runs jobs on a bounded worker pool.  It keeps one queue, fed by
// RunStreamContext and Go, and starts workers on demand, up to its Workers
// bound; a worker exits when no queued job can start.  So concurrent runs on
// one engine share the bound, and a job of any caller can be dispatched
// around the template builds of another's.
type Engine struct {
	workers    int
	cache      Cache
	jobTimeout time.Duration
	em         engineMetrics

	// mu guards the queue, the live worker count and the templates, which
	// memoise one recorded DAG per (workload, params) together with its
	// dispatch state.  A template is kept only while queued or running jobs
	// refer to it.
	mu        sync.Mutex
	queue     []*task
	running   int
	templates map[string]*templateEntry
}

// task is one queued job with the hooks of the caller that queued it.
type task struct {
	ctx   context.Context
	job   Job
	ent   *templateEntry
	start func() bool
	done  func(Result, error)
	// held is set when the job missed the result cache while another job
	// built its template, and went back to the queue (errBuildInFlight).
	// Picked again, it is not started twice, does not repeat its lookup, and
	// still holds the flight lease its lookup took.
	held  bool
	lease *Lease
}

// errBuildInFlight is runJob's signal that the job missed the result cache
// while another job builds its template: the worker puts it back in the
// queue instead of waiting for the build.
var errBuildInFlight = errors.New("template build in flight")

// EngineOptions configure an Engine.
type EngineOptions struct {
	// Workers is the maximum number of concurrent jobs, across every run
	// on the engine.  Zero (or negative) means runtime.NumCPU(); 1 forces
	// serial execution.
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
	// a run's cancellation (RunStreamContext) still takes effect only between
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
}

func newEngineMetrics(reg *obs.Registry) engineMetrics {
	return engineMetrics{
		jobs:       reg.Counter("sweep.jobs"),
		cached:     reg.Counter("sweep.jobs_cached"),
		simCycles:  reg.Counter("sweep.sim_cycles"),
		simTasks:   reg.Counter("sweep.sim_tasks"),
		l1Hits:     reg.Counter("sweep.cache.l1_hits"),
		l1Misses:   reg.Counter("sweep.cache.l1_misses"),
		l2Hits:     reg.Counter("sweep.cache.l2_hits"),
		l2Misses:   reg.Counter("sweep.cache.l2_misses"),
		memFetches: reg.Counter("sweep.mem_fetches"),
		dagBuilds:  reg.Counter("sweep.dag_builds"),
		dagShared:  reg.Counter("sweep.dag_rebuilds_avoided"),
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
	}
}

// Workers returns the engine's concurrency bound.
func (e *Engine) Workers() int { return e.workers }

// Run is RunStreamContext with no cancellation and no callback.
func (e *Engine) Run(jobs []Job) ([]Result, error) {
	return e.RunStreamContext(context.Background(), jobs, nil)
}

// RunStreamContext executes the jobs on the engine's pool and returns their
// results in job order, regardless of the completion order of the workers.
// onResult, when non-nil, is invoked once per finished job, in completion
// order, serialised by the engine so the callback needs no locking.
//
// On failure it returns the partial results together with the error of the
// lowest-indexed failing job: after a job fails only lower-index jobs still
// start, so the reported error is deterministic too.  When ctx is cancelled
// no new job starts, jobs in flight finish, and the partial results
// (completed entries filled, the rest zero) are returned with the context's
// error.  Cancellation is checked between jobs, never inside a simulation,
// so every returned Result is complete and cacheable.  Job errors take
// precedence over cancellation.
func (e *Engine) RunStreamContext(ctx context.Context, jobs []Job, onResult func(index int, r Result)) ([]Result, error) {
	results := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	var (
		mu   sync.Mutex
		stop = len(jobs)    // only jobs below stop may start
		wg   sync.WaitGroup // one count per job, done when it finishes or is dropped
	)
	wg.Add(len(jobs))
	tasks := make([]*task, len(jobs))
	for i := range jobs {
		start := func() bool {
			mu.Lock()
			defer mu.Unlock()
			if i < stop && ctx.Err() == nil {
				return true
			}
			wg.Done()
			return false
		}
		done := func(r Result, err error) {
			defer wg.Done()
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs[i] = err
				stop = min(stop, i)
				return
			}
			results[i] = r
			if onResult != nil {
				onResult(i, r)
			}
		}
		tasks[i] = &task{ctx: ctx, job: jobs[i], start: start, done: done}
	}
	e.enqueue(tasks...)
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

// Go queues one job on the engine's pool and returns at once.  When a
// worker first picks the job it calls start, and returning false drops the
// job; otherwise the job runs and done receives its outcome.  start and done
// run on the worker, outside the engine's locks.  ctx feeds only the job's
// cross-process flight coordination (FlightCache.Acquire), as in
// RunStreamContext.
func (e *Engine) Go(ctx context.Context, j Job, start func() bool, done func(Result, error)) {
	e.enqueue(&task{ctx: ctx, job: j, start: start, done: done})
}

// enqueue appends tasks to the queue, with their template entries, and
// starts workers for them.
func (e *Engine) enqueue(ts ...*task) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, t := range ts {
		key := templateKey(t.job.Key)
		if t.ent = e.templates[key]; t.ent == nil {
			t.ent = &templateEntry{}
			e.templates[key] = t.ent
		}
		t.ent.refs++
	}
	e.queue = append(e.queue, ts...)
	e.spawnLocked()
}

// spawnLocked starts workers, up to the bound, for the queued tasks; the
// caller holds e.mu.  A worker started for a task another worker takes, or
// one that waits on a build, finds nothing to start and exits.
func (e *Engine) spawnLocked() {
	for n := len(e.queue); n > 0 && e.running < e.workers; n-- {
		e.running++
		go e.work()
	}
}

// work is one pool worker: it runs queued tasks until none can start, then
// exits.
func (e *Engine) work() {
	e.mu.Lock()
	for {
		t := e.next()
		if t == nil {
			e.running--
			e.mu.Unlock()
			return
		}
		e.mu.Unlock()
		var (
			r   Result
			err error
		)
		run := t.held || t.start()
		if run {
			r, err = e.runJob(t)
		}
		e.mu.Lock()
		if err == errBuildInFlight {
			// The build's end starts a worker for it (markBuilt); this one
			// looks for other work meanwhile.
			t.held = true
			e.queue = slices.Insert(e.queue, 0, t)
			continue
		}
		// The job leaves the pool before done reports it, so a finished
		// run leaves no template behind that only its jobs referred to.
		e.release(t)
		if run {
			e.mu.Unlock()
			if err == nil {
				e.em.publish(r)
			}
			t.done(r, err)
			e.mu.Lock()
		}
	}
}

// runJob executes (or recalls) a single task's job.
//
// A panic anywhere in the job — a buggy workload builder, a scheduler edge
// case, a derivation indexing past its stats — is recovered into the job's
// error, so one bad job fails one row instead of killing the process (and,
// under sweepsvc, the whole daemon).  The task's ctx feeds only cross-process
// flight coordination (FlightCache.Acquire waits); simulation cancellation
// is governed by EngineOptions.JobTimeout alone, preserving the documented
// between-jobs cancellation contract.
func (e *Engine) runJob(t *task) (res Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("job panicked: %v\n%s", p, debug.Stack())
		}
	}()
	j := t.job
	start := time.Now()
	if !t.held && e.cache != nil && !j.KeepTaskStats {
		if ent, ok := e.cache.Get(j.Key); ok {
			return Result{Key: j.Key, Sim: ent.Sim, Derived: ent.Derived, Cached: true, Elapsed: time.Since(start)}, nil
		}
		if fc, ok := e.cache.(FlightCache); ok {
			// Cross-process single-flight: adopt the entry if another
			// instance lands it first, otherwise hold the flight's lease
			// until the job ends, also while it waits in the queue for its
			// template's build.  The lease is released after the Put below
			// (deferred, so also on failure — a waiter then re-claims and
			// re-simulates); a nil lease with a nil error means coordination
			// is degraded and we simulate uncoordinated.
			ent, adopted, lease, aerr := fc.Acquire(t.ctx, j.Key)
			if aerr != nil {
				return Result{}, aerr
			}
			if adopted {
				return Result{Key: j.Key, Sim: ent.Sim, Derived: ent.Derived, Cached: true, Elapsed: time.Since(start)}, nil
			}
			t.lease = lease
		}
	}
	defer func() {
		if t.lease != nil && err != errBuildInFlight {
			t.lease.Release()
		}
	}()
	if j.Build == nil {
		return Result{}, fmt.Errorf("job has no build function")
	}
	if !e.claim(t.ent) {
		return Result{}, errBuildInFlight
	}
	d, err := e.template(t.ent, j.Build)
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
// Add may be called from RunStreamContext's callback; Rows returns a
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
