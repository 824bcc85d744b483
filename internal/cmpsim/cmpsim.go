// Package cmpsim is a discrete-event simulator of a chip multiprocessor
// executing a computation DAG under a greedy scheduler.
//
// The machine model follows the paper's methodology (§4.1): P in-order,
// scalar cores (1 instruction per cycle when not stalled), per-core private
// L1 caches, an L2 organised by a pluggable topology (one shared cache — the
// paper's machine — per-core private slices, or clustered slices; see
// cache.Topology) with a configuration-dependent hit latency per slice, and
// an off-chip memory with a 300-cycle latency and a bandwidth-limiting
// service interval of 30 cycles per line transfer that every L2 slice
// arbitrates for.
//
// Execution is event driven: each event is a core becoming ready to issue
// its next memory reference (or to complete its current task).  Events are
// processed in global time order, so accesses from different cores interleave
// in the shared L2 and compete for off-chip bandwidth in simulated-time
// order, which is what produces the constructive (or destructive) cache
// sharing behaviour the schedulers are being compared on.
//
// The engine is built for throughput (see DESIGN.md, "Event engine"):
// because a core has at most one pending event, the event queue is a binary
// min-heap of packed time<<6|core integer keys, sized to the core count,
// whose comparisons are single integer compares and whose pushes and pops
// never allocate; a same-core lookahead keeps executing a core's references
// inline while their completion times precede every other core's pending
// event (so L1-hit bursts never touch the heap); and each core decodes its
// task's bit-packed recording (dag.Task.Refs) through its own cursor, a
// block of references at a time.  All are pure reorderings of identical
// work: event processing order, and therefore every cycle count and cache
// statistic, is bit-identical to the straightforward heap-per-event engine
// (pinned by TestGoldenEngineEquivalence).
//
// A run only reads its DAG, so any number of runs may simulate one DAG at
// the same time.
package cmpsim

import (
	"errors"
	"fmt"

	"cmpsched/internal/cache"
	"cmpsched/internal/config"
	"cmpsched/internal/dag"
	"cmpsched/internal/memsys"
	"cmpsched/internal/obs"
	"cmpsched/internal/refs"
	"cmpsched/internal/sched"
)

// Options control a simulation run.
type Options struct {
	// MaxCycles aborts the run when simulated time exceeds it. Zero means
	// the default bound of 1e15 cycles; RunWithOptions rejects a bound
	// above 2^57 cycles, past which the event queue cannot order times.
	MaxCycles int64
	// RecordTaskStats enables per-task start/end/core/miss accounting
	// (needed by schedule visualisations and per-level analyses).
	RecordTaskStats bool
	// ValidateDAG runs dag.Validate before simulating. It is enabled by
	// default in Run; disable for repeated runs of an already-validated
	// DAG.
	ValidateDAG bool

	// Cancel, when non-nil, aborts the run with ErrCancelled once the
	// channel is closed.  The event loop polls it every few thousand
	// references (allocation-free, a countdown and a non-blocking select),
	// so a runaway simulation stops within microseconds of cancellation
	// while an uncancelled run pays essentially nothing.  Like Tracer and
	// Metrics it cannot change a completed run's results and is excluded
	// from Fingerprint.
	Cancel <-chan struct{}

	// Tracer, when non-nil, records the task-lifecycle event stream
	// (spawn/ready/run/finish, plus steal/migrate/pin from trace-aware
	// schedulers).  Tracing observes only per-task scheduling points — never
	// the per-reference hot loop — and a nil tracer is a guaranteed no-op,
	// so disabled runs are cycle- and allocation-identical to uninstrumented
	// ones.
	Tracer *obs.Tracer
	// Metrics, when non-nil, receives end-of-run counters and histograms
	// (cycles, cache stats, off-chip queueing, scheduler metrics, workload
	// annotations).  Publishing happens once after the run completes; a nil
	// registry costs nothing.
	Metrics *obs.Registry
}

// Fingerprint renders the semantically significant options — the ones that
// can change simulation results — in a stable format.  Instrumentation sinks
// (Tracer, Metrics) are deliberately excluded: they observe a run without
// affecting it, and including their pointer values would make content-derived
// cache keys (sweep.Job.WithOptions) nondeterministic.  The format matches
// the historical fmt %+v rendering of the pre-instrumentation struct, so
// existing pinned sweep keys are preserved byte for byte.
func (o Options) Fingerprint() string {
	return fmt.Sprintf("{MaxCycles:%d RecordTaskStats:%t ValidateDAG:%t}",
		o.MaxCycles, o.RecordTaskStats, o.ValidateDAG)
}

// DefaultOptions returns the options used by Run.
func DefaultOptions() Options {
	return Options{RecordTaskStats: true, ValidateDAG: true}
}

// TaskStat records how one task was executed.
type TaskStat struct {
	// Core is the core that executed the task.
	Core int
	// Start and End are the simulated cycles at which the task started
	// and completed.
	Start, End int64
	// L2Misses is the number of shared-L2 misses the task incurred.
	L2Misses int64
	// Refs is the number of memory references the task issued.
	Refs int64
}

// Result summarises a simulation run.
type Result struct {
	// Config is the machine configuration simulated.
	Config config.CMP
	// Scheduler is the name of the scheduler used.
	Scheduler string
	// Cycles is the total execution time.
	Cycles int64
	// Instructions is the total number of instructions retired.
	Instructions int64
	// Refs is the total number of memory references issued.
	Refs int64
	// L1 aggregates the private L1 statistics across cores.
	L1 cache.Stats
	// L2 aggregates the L2 statistics across every slice of the topology;
	// with the shared topology it is the single shared L2's statistics,
	// exactly as before the topology layer existed.
	L2 cache.Stats
	// L2Slices holds the per-slice L2 statistics, indexed by slice (one
	// entry for the shared topology, one per core for private, one per
	// cluster for clustered).
	L2Slices []cache.Stats
	// Mem is the chip-level off-chip memory statistics.
	Mem memsys.Stats
	// MemPorts holds the per-slice off-chip port statistics, indexed like
	// L2Slices; QueueCycles attributes channel contention to the slice that
	// suffered it.
	MemPorts []memsys.Stats
	// MemUtilization is the fraction of cycles the off-chip channel was
	// busy (the paper's "memory bandwidth utilization").
	MemUtilization float64
	// CoreBusyCycles is the number of non-idle cycles per core.
	CoreBusyCycles []int64
	// TasksExecuted is the number of tasks run (equals the DAG size on a
	// successful run).
	TasksExecuted int
	// SchedMetrics carries scheduler-specific counters (e.g. "steals").
	SchedMetrics map[string]int64
	// TaskStats, when recorded, is indexed by task ID.
	TaskStats []TaskStat
}

// L2MissesPerKiloInstr returns the paper's primary cache metric: shared-L2
// misses per 1000 instructions.
func (r *Result) L2MissesPerKiloInstr() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.L2.Misses) * 1000 / float64(r.Instructions)
}

// AvgCoreUtilization returns the mean fraction of time cores were busy.
func (r *Result) AvgCoreUtilization() float64 {
	if r.Cycles == 0 || len(r.CoreBusyCycles) == 0 {
		return 0
	}
	var busy int64
	for _, b := range r.CoreBusyCycles {
		busy += b
	}
	return float64(busy) / float64(r.Cycles) / float64(len(r.CoreBusyCycles))
}

// Speedup returns base.Cycles / r.Cycles: the speedup of this run relative
// to a baseline run (typically the sequential execution on the same
// configuration).
func (r *Result) Speedup(base *Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(r.Cycles)
}

// L2MissesByLevel aggregates per-task L2 misses by the tasks' Level field.
// It requires TaskStats to have been recorded.
func (r *Result) L2MissesByLevel(d *dag.DAG) map[int]int64 {
	out := make(map[int]int64)
	if r.TaskStats == nil {
		return out
	}
	for _, t := range d.Tasks() {
		out[t.Level] += r.TaskStats[t.ID].L2Misses
	}
	return out
}

// ErrCancelled is returned by RunWithOptions when Options.Cancel closes
// before the simulation completes.  It marks the abort as external — the
// run's inputs are fine, it was just not allowed to finish — so callers
// (the sweep engine's job timeouts) can distinguish it from simulation
// failures.
var ErrCancelled = errors.New("cmpsim: run cancelled")

// cancelCheckInterval is how many event-loop iterations pass between polls
// of Options.Cancel.  Each iteration is one historical event (a memory
// access, a tail charge, or a task completion), so at simulator throughput
// this bounds the cancellation latency to well under a millisecond while
// amortising the poll to nothing.
const cancelCheckInterval = 4096

// Run simulates d on cfg under scheduler s with default options.
func Run(d *dag.DAG, s sched.Scheduler, cfg config.CMP) (*Result, error) {
	return RunWithOptions(d, s, cfg, DefaultOptions())
}

// SequentialConfig returns the one-core baseline configuration (same caches
// and memory) that sequential runs are simulated on.
func SequentialConfig(cfg config.CMP) config.CMP {
	cfg.Cores = 1
	cfg.Name += "/sequential"
	return cfg
}

// RunSequential simulates the sequential execution of d on a single core of
// the given configuration (same caches and memory), which is the baseline
// the paper's speedups are reported against.
func RunSequential(d *dag.DAG, cfg config.CMP) (*Result, error) {
	return RunSequentialWithOptions(d, cfg, DefaultOptions())
}

// RunSequentialWithOptions is RunSequential with explicit options.
func RunSequentialWithOptions(d *dag.DAG, cfg config.CMP, opts Options) (*Result, error) {
	return RunWithOptions(d, sched.NewPDF(), SequentialConfig(cfg), opts)
}

// An event is a pending simulator event: a core ready to proceed at a time.
// The queue holds each event as one integer key, time<<coreBits | core
// (eventKey), so integer order on keys is (time, core) order on events.
//
// A core has at most one pending event (it is pushed when the core starts a
// task or finishes a memory access, and consumed before the next is pushed),
// so (time, core) is already a strict total order and no FIFO sequence
// number is needed: the pop order is identical to the historical
// (time, core, push-sequence) order.  The one-event-per-core invariant also
// bounds the queue at the core count, so its backing array is allocated
// once and never grows.
const (
	// coreBits holds a core index: the cache hierarchy caps cores at 64.
	coreBits = 6
	coreMask = 1<<coreBits - 1
	// maxEventTime is the largest time a key holds; later times saturate
	// to it.  maxCyclesLimit keeps every saturated time past MaxCycles,
	// so a saturated event fails the bound when popped and never needs
	// its true time.
	maxEventTime   = 1<<(64-coreBits) - 1
	maxCyclesLimit = 1 << 57
)

// eventKey packs an event into its queue key.
func eventKey(time int64, core int) uint64 {
	return uint64(min(time, maxEventTime))<<coreBits | uint64(core)
}

// eventQueue is a binary min-heap of event keys.  It is concrete rather
// than generic so that every comparison is an inlined integer compare.
type eventQueue []uint64

// push adds key k.
func (q *eventQueue) push(k uint64) {
	h := append(*q, k)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= k {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = k
	*q = h
}

// pop removes and returns the smallest key.  Valid only when the queue is
// non-empty.
func (q *eventQueue) pop() uint64 {
	h := *q
	top := h[0]
	last := len(h) - 1
	k := h[last]
	h = h[:last]
	*q = h
	if last == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= last {
			break
		}
		if r := child + 1; r < last && h[r] < h[child] {
			child = r
		}
		if k <= h[child] {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = k
	return top
}

// coreState tracks what a core is doing.  The task pointer, a decode cursor
// over its recording and the core's L2 slice are set at assignment so the
// per-reference loop never re-resolves them; the cursor is the core's own,
// so the shared recording is only ever read.
type coreState struct {
	busy      bool
	finishing bool // refs exhausted, waiting for trailing instructions
	task      *dag.Task
	cursor    refs.Reader // decodes the task's references not yet in blk
	next, end int         // the decoded block's unissued references: blk[next:end]
	start     int64       // cycle the current task started
	l2Misses  int64
	slice     int // the L2 slice serving the core
}

// blockRefs is the number of references a core decodes at a time.
const blockRefs = 32

// core is a core's state and its decode block.  The per-reference loop
// reads the block and refills it with one tight decode loop when it runs
// out.  Assigning and completing a task reset the state alone: a block is
// only read below end, which the next decode sets.
type core struct {
	coreState
	blk [blockRefs]refs.Ref
}

// RunWithOptions simulates d on cfg under scheduler s.
func RunWithOptions(d *dag.DAG, s sched.Scheduler, cfg config.CMP, opts Options) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.ValidateDAG {
		if err := d.Validate(); err != nil {
			return nil, err
		}
	}
	if d.NumTasks() == 0 {
		return nil, fmt.Errorf("cmpsim: empty DAG %q", d.Name)
	}
	maxCycles := opts.MaxCycles
	if maxCycles > maxCyclesLimit {
		return nil, fmt.Errorf("cmpsim: MaxCycles=%d exceeds the event queue's limit of 2^57", maxCycles)
	}
	if maxCycles <= 0 {
		maxCycles = int64(1e15)
	}
	// Cancellation countdown: with no Cancel channel the interval is set so
	// far out the poll never fires, keeping the uncancelled hot loop free of
	// even the non-blocking select.
	cancelEvery := int64(1) << 62
	if opts.Cancel != nil {
		cancelEvery = cancelCheckInterval
	}
	cancelIn := cancelEvery

	hier, err := cache.NewHierarchy(cfg.HierarchyConfig())
	if err != nil {
		return nil, err
	}
	// Every L2 slice is a port on the one off-chip channel (pins are a
	// chip-level resource); the ports attribute queueing per slice.
	mem, err := memsys.New(cfg.Memory, hier.NumSlices())
	if err != nil {
		return nil, err
	}

	n := d.NumTasks()
	p := cfg.Cores
	// Trace-aware schedulers emit steal/migrate/pin events through the same
	// tracer the simulator stamps lifecycle events into.  The tracer is set
	// unconditionally (nil clears any sink from a previous run), and a nil
	// tracer makes every emission a no-op, so untraced runs behave exactly
	// as before.
	if ta, ok := s.(sched.TraceAware); ok {
		ta.SetTracer(opts.Tracer)
	}
	// Capacity- and topology-aware schedulers (sched.MachineAware) are told
	// what machine they are placing tasks onto before Reset.  Its
	// core-to-slice map is the hierarchy's own, so describing the machine
	// allocates nothing.
	if ma, ok := s.(sched.MachineAware); ok {
		ma.SetMachine(sched.Machine{
			Cores:        p,
			LineBytes:    cfg.L2.LineBytes,
			L1Bytes:      cfg.L1.SizeBytes,
			L2SliceBytes: hier.SliceConfig().SizeBytes,
			Slices:       hier.NumSlices(),
			SliceOfCore:  hier.SliceMap(),
		})
	}
	s.Reset(d, p)

	indeg := make([]int, n)
	for _, t := range d.Tasks() {
		indeg[t.ID] = len(t.Preds)
	}

	cores := make([]core, p)
	busyCycles := make([]int64, p)
	var taskStats []TaskStat
	if opts.RecordTaskStats {
		taskStats = make([]TaskStat, n)
	}

	events := make(eventQueue, 0, p)

	completed := 0
	l1Lat := cfg.L1.HitLatency
	// The topology scales per-slice capacity and hit latency together; with
	// the shared topology the slice latency is exactly cfg.L2.HitLatency.
	l2Lat := hier.SliceConfig().HitLatency

	tr := opts.Tracer
	// The queue-depth histogram is the only in-run metric; its handle is
	// resolved once here and the observation below is gated on it, so a
	// disabled registry adds no work to the completion path.
	var qdepth *obs.Histogram
	if opts.Metrics != nil {
		qdepth = opts.Metrics.Histogram("sched.queue_depth", obs.ExpBuckets(1, 2, 14))
	}

	// assign hands ready tasks to idle cores at time now, trying prefer
	// first (the core that just completed a task), then the others in
	// index order.
	assign := func(now int64, prefer int) {
		tryCore := func(c int) {
			if cores[c].busy {
				return
			}
			id, ok := s.Next(c)
			if !ok {
				return
			}
			tr.Run(int32(id), int32(c))
			t := d.Task(id)
			cores[c].coreState = coreState{busy: true, task: t, cursor: t.Refs.Reader(), start: now, slice: hier.SliceOf(c)}
			events.push(eventKey(now, c))
		}
		if prefer >= 0 && prefer < p {
			tryCore(prefer)
		}
		for c := 0; c < p; c++ {
			if s.Pending() == 0 {
				break
			}
			tryCore(c)
		}
	}

	roots := d.Roots()
	if len(roots) == 0 {
		return nil, fmt.Errorf("cmpsim: DAG %q has no root tasks", d.Name)
	}
	// Roots spawn before any core runs (core -1, time 0) — the sequential
	// program point at which the parallel computation begins.
	tr.SetTime(0)
	for _, id := range roots {
		tr.Spawn(int32(id), -1)
		tr.Ready(int32(id), -1)
	}
	s.MakeReady(-1, roots)

	// ready is reused across completions; its capacity is the DAG's largest
	// fan-out, so the steady-state loop never regrows it.
	maxOut := 0
	for _, t := range d.Tasks() {
		if len(t.Succs) > maxOut {
			maxOut = len(t.Succs)
		}
	}
	ready := make([]dag.TaskID, 0, maxOut)

	assign(0, -1)

	var now int64
	for len(events) > 0 {
		ev := events.pop()
		now = int64(ev >> coreBits)
		c := int(ev & coreMask)
		st := &cores[c]

		// Process core c inline for as long as it remains the earliest
		// event.  Each iteration is exactly one historical event (a memory
		// access completing, the trailing instructions completing, or the
		// task completing); the loop continues without heap traffic when
		// the step's completion time still precedes every other core's
		// pending event under the (time, core) order — the same-core
		// lookahead that keeps L1-hit bursts out of the heap.
		for {
			if now > maxCycles {
				return nil, fmt.Errorf("cmpsim: exceeded MaxCycles=%d (deadlock or runaway workload?)", maxCycles)
			}
			if cancelIn--; cancelIn <= 0 {
				cancelIn = cancelEvery
				select {
				case <-opts.Cancel:
					return nil, fmt.Errorf("%w after %d cycles", ErrCancelled, now)
				default:
				}
			}
			if !st.busy {
				// Stale event (should not happen); ignore defensively.
				break
			}

			if !st.finishing {
				if st.next == st.end && st.cursor.Len() > 0 {
					st.end = st.cursor.Read(st.blk[:])
					st.next = 0
				}
				if st.next < st.end {
					ref := st.blk[st.next]
					st.next++
					issue := now + int64(ref.Instrs)
					acc := hier.Access(c, ref.Addr, ref.Write)
					var done int64
					switch acc.Level {
					case cache.LevelL1:
						done = issue + l1Lat
					case cache.LevelL2:
						done = issue + l1Lat + l2Lat
					case cache.LevelMemory:
						st.l2Misses++
						for i := 1; i < acc.OffChipTransfers; i++ {
							mem.Writeback(st.slice, issue)
						}
						done = mem.Fetch(st.slice, issue+l1Lat+l2Lat)
					}
					busyCycles[c] += done - now
					k := eventKey(done, c)
					if len(events) == 0 || k < events[0] {
						now = done
						continue
					}
					events.push(k)
					break
				}
				// References exhausted: charge the trailing instructions.
				tail := max(st.task.Refs.Tail(), 0)
				st.finishing = true
				busyCycles[c] += tail
				done := now + tail
				k := eventKey(done, c)
				if len(events) == 0 || k < events[0] {
					now = done
					continue
				}
				events.push(k)
				break
			}

			// Task completion.
			task := st.task
			if taskStats != nil {
				taskStats[task.ID] = TaskStat{
					Core:     c,
					Start:    st.start,
					End:      now,
					L2Misses: st.l2Misses,
					Refs:     task.Refs.Len(),
				}
			}
			completed++
			tr.SetTime(now)
			tr.Finish(int32(task.ID), int32(c))
			ready = ready[:0]
			for _, succ := range task.Succs {
				indeg[succ]--
				if indeg[succ] == 0 {
					tr.Spawn(int32(succ), int32(c))
					tr.Ready(int32(succ), int32(c))
					ready = append(ready, succ)
				}
			}
			st.coreState = coreState{}
			if len(ready) > 0 {
				s.MakeReady(c, ready)
			}
			if qdepth != nil {
				qdepth.Observe(int64(s.Pending()))
			}
			assign(now, c)
			break
		}
	}

	if completed != n {
		return nil, fmt.Errorf("cmpsim: deadlock: executed %d of %d tasks (cyclic or disconnected dependences?)", completed, n)
	}

	res := &Result{
		Config:         cfg,
		Scheduler:      s.Name(),
		Cycles:         now,
		Instructions:   d.TotalInstrs(),
		Refs:           d.TotalRefs(),
		L1:             hier.L1Stats(),
		L2:             hier.L2Stats(),
		L2Slices:       hier.L2SliceStats(),
		Mem:            mem.Stats(),
		MemPorts:       mem.PortStats(),
		MemUtilization: mem.Utilization(now),
		CoreBusyCycles: busyCycles,
		TasksExecuted:  completed,
		SchedMetrics:   s.Metrics(),
		TaskStats:      taskStats,
	}
	if opts.Metrics != nil {
		publish(opts.Metrics, res, d)
	}
	return res, nil
}

// publish folds one run's results into the registry: totals as counters (so
// repeated runs — a sweep's jobs — accumulate), workload annotations as
// gauges, and per-task distributions as histograms.  The registry sorts its
// snapshot and every value here derives from deterministic simulation state,
// so the published view is reproducible run over run.
func publish(reg *obs.Registry, res *Result, d *dag.DAG) {
	reg.Counter("sim.runs").Add(1)
	reg.Counter("sim.cycles").Add(res.Cycles)
	reg.Counter("sim.instructions").Add(res.Instructions)
	reg.Counter("sim.refs").Add(res.Refs)
	reg.Counter("sim.tasks").Add(int64(res.TasksExecuted))
	res.L1.Publish(reg, "cache.l1")
	res.L2.Publish(reg, "cache.l2")
	res.Mem.Publish(reg, "mem")
	for name, v := range res.SchedMetrics {
		reg.Counter("sched." + name).Add(v)
	}
	for name, v := range d.Metrics() {
		reg.Gauge("dag." + name).Set(v)
	}
	if res.TaskStats != nil {
		cyc := reg.Histogram("task.cycles", obs.ExpBuckets(64, 4, 10))
		miss := reg.Histogram("task.l2_misses", obs.ExpBuckets(1, 4, 8))
		for _, ts := range res.TaskStats {
			cyc.Observe(ts.End - ts.Start)
			miss.Observe(ts.L2Misses)
		}
	}
}
