package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cmpsched/internal/cmpsim"
	"cmpsched/internal/dag"
	"cmpsched/internal/obs"
	"cmpsched/internal/refs"
	"cmpsched/internal/sched"
	"cmpsched/internal/sweep"
)

// gridSetup is the set-up phase of a grid workload: expand the grid, then
// build and record every distinct DAG template once, serially.
func gridSetup(w workloadDef, seed uint64, quick bool) ([]sweep.Job, time.Duration, error) {
	start := time.Now()
	jobs, err := w.jobs(seed, quick)
	if err != nil {
		return nil, 0, err
	}
	store := refs.NewTraceStore()
	seen := map[string]bool{}
	for _, j := range jobs {
		k := templateKey(j.Key)
		if seen[k] {
			continue
		}
		seen[k] = true
		d, err := j.Build()
		if err != nil {
			return nil, 0, fmt.Errorf("build %s: %w", j.Key, err)
		}
		dag.Record(d, store)
	}
	return jobs, time.Since(start), nil
}

// engineRep runs the jobs on a fresh engine over a fresh disk cache in dir
// and returns the results and the wall time of Run.
func engineRep(jobs []sweep.Job, dir string) ([]sweep.Result, time.Duration, error) {
	dc, err := sweep.NewDiskCache(dir)
	if err != nil {
		return nil, 0, err
	}
	e := sweep.NewEngine(sweep.EngineOptions{Workers: workers, Cache: dc})
	start := time.Now()
	results, err := e.Run(jobs)
	return results, time.Since(start), err
}

// entryKB returns the mean size of the cache entries in dir, in KiB.
func entryKB(dir string) (float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) == 0 {
		return 0, fmt.Errorf("no cache entries in %s", dir)
	}
	var total int64
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil {
			return 0, err
		}
		total += st.Size()
	}
	return float64(total) / float64(len(files)) / 1024, nil
}

// stagedRep replays a job list through the public stages Engine.runJob
// uses, in the same order, on the same number of workers and with the same
// simulator options, recording a span around each call:
//
//	Cache.Get, Job.Build (memoised by template key), dag.Record,
//	(*dag.Snapshot).Instantiate, scheduler Reset, cmpsim.RunWithOptions,
//	Cache.Put
//
// so that its rows must equal the engine's.  It returns the results in job
// order, the wall time and the trace store's interning statistics.
func stagedRep(jobs []sweep.Job, dc *sweep.DiskCache, tr *tracer) ([]sweep.Result, time.Duration, refs.TraceStoreStats, error) {
	s := &staged{tr: tr, cache: dc, store: refs.NewTraceStore(), templates: map[string]*template{}}
	results := make([]sweep.Result, len(jobs))
	errs := make([]error, len(jobs))
	indexes := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := range indexes {
				results[i], errs[i] = s.job(i, jobs[i], lane)
			}
		}(w)
	}
	for i := range jobs {
		indexes <- i
	}
	close(indexes)
	wg.Wait()
	wall := time.Since(start)
	for i, err := range errs {
		if err != nil {
			return results, wall, s.store.Stats(), fmt.Errorf("job %d (%s): %w", i, jobs[i].Key, err)
		}
	}
	return results, wall, s.store.Stats(), nil
}

type staged struct {
	tr    *tracer
	cache *sweep.DiskCache
	store *refs.TraceStore

	mu        sync.Mutex
	templates map[string]*template
}

// template is one memoised DAG recording; once gives it the engine's
// single-flight semantics, so a job needing a template another worker is
// building waits for it.
type template struct {
	once sync.Once
	snap *dag.Snapshot
	err  error
}

func (s *staged) job(i int, j sweep.Job, lane int) (sweep.Result, error) {
	id := fmt.Sprintf("j%03d %s", i, j.Key)
	root := s.tr.begin("sweep.job", id, -1, lane)
	defer s.tr.end(root)
	start := time.Now()

	sp := s.tr.begin("sweep.cache_get", id, root, lane)
	ent, ok := s.cache.Get(j.Key)
	s.tr.end(sp)
	if ok {
		return sweep.Result{Key: j.Key, Sim: ent.Sim, Derived: ent.Derived, Cached: true, Elapsed: time.Since(start)}, nil
	}

	sp = s.tr.begin("sweep.template", id, root, lane)
	t := s.template(j.Key)
	t.once.Do(func() {
		b := s.tr.begin("workload.build", id, sp, lane)
		d, err := j.Build()
		s.tr.end(b)
		if err != nil {
			t.err = err
			return
		}
		r := s.tr.begin("dag.record", id, sp, lane)
		t.snap = dag.Record(d, s.store)
		s.tr.end(r)
	})
	s.tr.end(sp)
	if t.err != nil {
		return sweep.Result{}, fmt.Errorf("build: %w", t.err)
	}
	sp = s.tr.begin("dag.instantiate", id, root, lane)
	d := t.snap.Instantiate()
	s.tr.end(sp)

	// The engine's options for a job without Options, Derive or
	// KeepTaskStats; the sequential baseline is PDF on one core
	// (cmpsim.RunSequentialWithOptions).
	opts := cmpsim.DefaultOptions()
	opts.RecordTaskStats = false
	name, cfg := j.Scheduler, j.Config
	if name == sweep.Sequential {
		name, cfg = "pdf", cmpsim.SequentialConfig(cfg)
	}
	inner, err := sched.New(name)
	if err != nil {
		return sweep.Result{}, err
	}
	run := s.tr.begin("cmpsim.run", id, root, lane)
	r, err := cmpsim.RunWithOptions(d, &timedSched{Scheduler: inner, tr: s.tr, id: id, parent: run, lane: lane}, cfg, opts)
	s.tr.end(run)
	if err != nil {
		return sweep.Result{}, err
	}
	r.TaskStats = nil

	sp = s.tr.begin("sweep.cache_put", id, root, lane)
	err = s.cache.Put(sweep.Entry{Key: j.Key, Sim: r})
	s.tr.end(sp)
	if err != nil {
		return sweep.Result{}, err
	}
	return sweep.Result{Key: j.Key, Sim: r, Elapsed: time.Since(start)}, nil
}

func (s *staged) template(k sweep.Key) *template {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := templateKey(k)
	t, ok := s.templates[key]
	if !ok {
		t = &template{}
		s.templates[key] = t
	}
	return t
}

// timedSched wraps a scheduler to time Reset, the scheduler's set-up pass,
// and forwards the optional machine and tracer hooks the simulator looks
// for, so the wrapped scheduler sees exactly the calls it would unwrapped.
type timedSched struct {
	sched.Scheduler
	tr     *tracer
	id     string
	parent int
	lane   int
}

func (s *timedSched) Reset(d *dag.DAG, p int) {
	sp := s.tr.begin("sched.reset", s.id, s.parent, s.lane)
	s.Scheduler.Reset(d, p)
	s.tr.end(sp)
}

func (s *timedSched) SetMachine(m sched.Machine) {
	if ma, ok := s.Scheduler.(sched.MachineAware); ok {
		ma.SetMachine(m)
	}
}

func (s *timedSched) SetTracer(t *obs.Tracer) {
	if ta, ok := s.Scheduler.(sched.TraceAware); ok {
		ta.SetTracer(t)
	}
}
