package sweep

import (
	"fmt"
	"sync"

	"cmpsched/internal/dag"
)

// A sweep's job list is typically a grid: the same (workload, parameters)
// pair appears once per scheduler and once per machine configuration, and
// building the DAG — emitting every task's reference stream — dominated the
// cost of the uncached jobs.  The engine therefore memoises DAGs as
// templates: the first job to need a pair builds it once and records it into
// the engine's shared content-addressed trace store (dag.Record), and every
// job — the first included — simulates that one DAG.  A DAG never changes
// after its build and a simulation only reads it, so results are
// byte-identical to per-job rebuilding at any worker count.
//
// Memoisation is keyed by the job Key's Workload and Params fields — exactly
// the inputs BuildFunc is required to be a pure function of.  The machine
// configuration is not part of the key: a builder that shapes its DAG to the
// machine (e.g. Hash Join's L2-sized partitions, cache-size-driven
// coarsening) folds what it reads from the configuration into Params.
//
// A grid lists each template's jobs back to back, so handing jobs out in
// index order would send a free worker straight to the job after a
// template's first one, to wait while another worker builds the DAG.  The
// pool's dispatcher hands out jobs around such builds instead: a waiting job
// no longer blocks a worker while any other job can start (see dispatcher).

// templateEntry is one memoised DAG.  The sync.Once gives the entry
// single-flight semantics: under the parallel engine, concurrent jobs that
// need the same template block on the first builder instead of building
// redundantly.
type templateEntry struct {
	once sync.Once
	d    *dag.DAG
	err  error
}

// templateKey is the content address of a job's DAG template.
func templateKey(k Key) string {
	return k.Workload + "\x00" + k.Params
}

// template returns the job's DAG, building and recording it on first need.
// A build error is memoised too, so every job sharing the template reports
// the same deterministic error.  So is a panic in the build: sync.Once
// counts a panicking call as done, and without the recover every later job
// of the template would find neither a DAG nor an error.
func (e *Engine) template(j Job) (*dag.DAG, error) {
	key := templateKey(j.Key)
	e.templMu.Lock()
	ent, ok := e.templates[key]
	if !ok {
		ent = &templateEntry{}
		e.templates[key] = ent
	}
	e.templMu.Unlock()
	ent.once.Do(func() {
		defer func() {
			if p := recover(); p != nil {
				ent.err = fmt.Errorf("build panicked: %v", p)
			}
		}()
		d, err := j.Build()
		if err != nil {
			ent.err = err
			return
		}
		// Template builds are once-per-key, so the counters are independent
		// of worker count and completion order; the counter is atomic, so
		// concurrent first-builders of different keys never race.
		e.em.dagBuilds.Add(1)
		dag.Record(d, e.traces)
		ent.d = d
	})
	if ent.err != nil {
		return nil, fmt.Errorf("build: %w", ent.err)
	}
	// Not necessarily the builder (another job may have interleaved), but
	// exactly one job observes the map miss per key, which is what makes
	// jobs - builds a deterministic rebuild-avoided count.
	if ok {
		e.em.dagShared.Add(1)
	}
	return ent.d, nil
}

// dispatcher hands the jobs of one pooled run to its workers.  A free worker
// takes the lowest-index job whose template no other worker is building.  A
// template is in flight from the moment its first job is handed out until
// its build finishes or that job returns, so a cache hit releases it too.
// Only when every remaining job waits on a build does a worker take the
// lowest of them, and wait in the template's once as it would in index
// order.  Results are stored by index, so the dispatch order changes no
// output.
//
// After a job fails only lower-index jobs still start, which keeps the
// reported error that of the lowest-indexed failing job at any worker
// count.
type dispatcher struct {
	tmpl []int // template number of each job

	mu      sync.Mutex
	started []bool
	low     int   // every job below low has started
	stop    int   // only jobs below stop may start
	state   []int // per template: the job that may be building it, templIdle or templBuilt
}

// Template states in dispatcher.state other than a job index.
const (
	templIdle  = -1 // no job is building the template
	templBuilt = -2 // its build finished during this run
)

func newDispatcher(jobs []Job) *dispatcher {
	ids := make(map[string]int)
	tmpl := make([]int, len(jobs))
	for i := range jobs {
		key := templateKey(jobs[i].Key)
		id, ok := ids[key]
		if !ok {
			id = len(ids)
			ids[key] = id
		}
		tmpl[i] = id
	}
	state := make([]int, len(ids))
	for t := range state {
		state[t] = templIdle
	}
	return &dispatcher{tmpl: tmpl, started: make([]bool, len(jobs)), stop: len(jobs), state: state}
}

// next returns the job the calling worker runs next, or false when no job
// may start.
func (d *dispatcher) next() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.low < d.stop && d.started[d.low] {
		d.low++
	}
	if d.low >= d.stop {
		return 0, false
	}
	i := d.low
	for k := d.low; k < d.stop; k++ {
		if !d.started[k] && d.state[d.tmpl[k]] < 0 {
			i = k
			break
		}
	}
	d.started[i] = true
	if t := d.tmpl[i]; d.state[t] == templIdle {
		d.state[t] = i
	}
	return i, true
}

// ready records that job i's template is built: its build has finished,
// with or without an error, in this job or in another.
func (d *dispatcher) ready(i int) {
	d.mu.Lock()
	d.state[d.tmpl[i]] = templBuilt
	d.mu.Unlock()
}

// done records that job i has returned.
func (d *dispatcher) done(i int, failed bool) {
	d.mu.Lock()
	if t := d.tmpl[i]; d.state[t] == i {
		d.state[t] = templIdle
	}
	if failed && i < d.stop {
		d.stop = i
	}
	d.mu.Unlock()
}

// publishTraceStats exposes the shared trace store's interning counters as
// gauges.  Called when a stream finishes; the values are cumulative over the
// engine's lifetime and deterministic for a given job list.
func (e *Engine) publishTraceStats() {
	st := e.traces.Stats()
	e.em.traceUnique.Set(st.Unique)
	e.em.traceInterned.Set(st.Interned)
	e.em.traceArena.Set(st.ArenaBytes)
}
