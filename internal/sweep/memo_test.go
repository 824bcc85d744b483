package sweep

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"cmpsched/internal/cmpsim"
	"cmpsched/internal/config"
	"cmpsched/internal/dag"
	"cmpsched/internal/obs"
	"cmpsched/internal/sched"
)

// runDirect simulates one job without any sweep machinery — a fresh DAG
// build per run, no memoised templates — producing the result exactly as
// Engine.runJob would (task stats dropped).
func runDirect(t *testing.T, j Job) *cmpsim.Result {
	t.Helper()
	d, err := j.Build()
	if err != nil {
		t.Fatalf("%s: build: %v", j.Key, err)
	}
	opts := cmpsim.DefaultOptions()
	opts.RecordTaskStats = false
	var r *cmpsim.Result
	if j.Scheduler == Sequential {
		r, err = cmpsim.RunSequentialWithOptions(d, j.Config, opts)
	} else {
		s, err2 := sched.New(j.Scheduler)
		if err2 != nil {
			t.Fatalf("%s: %v", j.Key, err2)
		}
		r, err = cmpsim.RunWithOptions(d, s, j.Config, opts)
	}
	if err != nil {
		t.Fatalf("%s: run: %v", j.Key, err)
	}
	r.TaskStats = nil
	return r
}

// TestSharedTraceStoreByteIdentical pins the memoisation soundness claim: a
// sweep whose jobs share memoised DAG templates, and so their recorded
// streams, produces byte-identical simulator results to rebuilding every
// DAG from scratch, at any worker count.  Run under -race this also
// exercises concurrent simulations of one shared DAG.
func TestSharedTraceStoreByteIdentical(t *testing.T) {
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	// The grid shape guarantees sharing: every (workload, params) pair
	// appears once per scheduler (plus the sequential baseline) and once
	// per topology, and Mergesort's pair spans both core counts too.
	want := make([]*cmpsim.Result, len(jobs))
	for i := range jobs {
		want[i] = runDirect(t, jobs[i])
	}

	for _, workers := range []int{1, 4, 8} {
		reg := obs.NewRegistry()
		e := NewEngine(EngineOptions{Workers: workers, Metrics: reg})
		results, err := e.Run(jobs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, r := range results {
			if !reflect.DeepEqual(r.Sim, want[i]) {
				t.Fatalf("workers=%d: job %d (%s) differs from unshared rebuild:\nshared:   %+v\nrebuilt: %+v",
					workers, i, jobs[i].Key, r.Sim, want[i])
			}
		}
		// The grid has len(jobs) jobs over fewer distinct templates; the
		// difference must show up as avoided rebuilds.
		builds := reg.Counter("sweep.dag_builds").Value()
		avoided := reg.Counter("sweep.dag_rebuilds_avoided").Value()
		if builds == 0 || avoided == 0 || builds+avoided != int64(len(jobs)) {
			t.Fatalf("workers=%d: builds=%d avoided=%d, want both positive summing to %d",
				workers, builds, avoided, len(jobs))
		}
	}
}

// TestMemoizedBuildRunsOncePerTemplate pins the single-flight contract: the
// engine calls Build once per (workload, params) pair no matter how many
// schedulers and configurations fan out from it or how many workers race.
func TestMemoizedBuildRunsOncePerTemplate(t *testing.T) {
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	templates := make(map[string]bool)
	for i := range jobs {
		templates[templateKey(jobs[i].Key)] = true
	}
	reg := obs.NewRegistry()
	e := NewEngine(EngineOptions{Workers: 8, Metrics: reg})
	if _, err := e.Run(jobs); err != nil {
		t.Fatal(err)
	}
	if builds := reg.Counter("sweep.dag_builds").Value(); builds != int64(len(templates)) {
		t.Fatalf("builds = %d, want one per template = %d", builds, len(templates))
	}
}

// TestEngineSharesOneDAGPerTemplate pins the sharing contract: every job of a
// (workload, params) template simulates the one DAG the engine recorded for
// it, whatever machine configuration the job simulates.
func TestEngineSharesOneDAGPerTemplate(t *testing.T) {
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	configs := make(map[string]map[string]bool)
	for _, j := range jobs {
		key := templateKey(j.Key)
		if configs[key] == nil {
			configs[key] = make(map[string]bool)
		}
		configs[key][j.Key.Config] = true
	}
	spanning := 0
	for _, cs := range configs {
		if len(cs) > 1 {
			spanning++
		}
	}
	if spanning == 0 {
		t.Fatal("no template spans more than one configuration")
	}
	var mu sync.Mutex
	seen := make(map[string]map[*dag.DAG]bool)
	for i := range jobs {
		key := templateKey(jobs[i].Key)
		jobs[i] = jobs[i].WithDerive("dag-identity", func(d *dag.DAG, _ *cmpsim.Result) (map[string]int64, error) {
			mu.Lock()
			defer mu.Unlock()
			if seen[key] == nil {
				seen[key] = make(map[*dag.DAG]bool)
			}
			seen[key][d] = true
			return nil, nil
		})
	}
	if _, err := NewEngine(EngineOptions{Workers: 4}).Run(jobs); err != nil {
		t.Fatal(err)
	}
	for key, ds := range seen {
		if len(ds) != 1 {
			t.Errorf("template %q: jobs simulated %d distinct DAGs, want 1", key, len(ds))
		}
	}
}

// TestDispatchDoesNotParkWorker pins the dispatcher's contract: while one
// worker builds template a, a free worker takes the next job of another
// template instead of waiting on a's build.  a's build waits until b's has
// started, so a worker parked on a's second job would time the build out.
func TestDispatchDoesNotParkWorker(t *testing.T) {
	cfg := config.MustDefault(2).Scaled(512)
	build, _, err := testFactory("mergesort", cfg)
	if err != nil {
		t.Fatal(err)
	}
	bStarted := make(chan struct{})
	buildA := func() (*dag.DAG, error) {
		select {
		case <-bStarted:
			return build()
		case <-time.After(2 * time.Second):
			return nil, errors.New("b's build never started: a worker waited on a's")
		}
	}
	buildB := func() (*dag.DAG, error) {
		close(bStarted)
		return build()
	}
	jobs := []Job{
		NewJob("a", "p", "pdf", cfg, buildA),
		NewJob("a", "p", "ws", cfg, buildA),
		NewJob("b", "p", "pdf", cfg, buildB),
	}
	results, err := NewEngine(EngineOptions{Workers: 2}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Sim == nil || r.Key != jobs[i].Key {
			t.Fatalf("result %d is %+v, want job %s's", i, r, jobs[i].Key)
		}
	}
}

// TestCacheLookupsOfOneTemplateOverlap pins that a job claims its
// template's build only after missing the result cache: on a warm cache the
// lookups of one template's jobs run side by side.  Each Get waits for
// another to overlap it, so lookups run one at a time time out at a peak of
// 1.
func TestCacheLookupsOfOneTemplateOverlap(t *testing.T) {
	cfg := config.MustDefault(2).Scaled(512)
	build, _, err := testFactory("mergesort", cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{NewJob("a", "p", "pdf", cfg, build), NewJob("a", "p", "ws", cfg, build)}
	warm := NewMemoryCache()
	if _, err := NewEngine(EngineOptions{Workers: 1, Cache: warm}).Run(jobs); err != nil {
		t.Fatal(err)
	}
	oc := &overlapCache{Cache: warm, overlap: make(chan struct{})}
	results, err := NewEngine(EngineOptions{Workers: 2, Cache: oc}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.Cached {
			t.Errorf("job %d was not served from the warm cache", i)
		}
	}
	if oc.peak != 2 {
		t.Fatalf("peak concurrent cache lookups = %d on a two-worker engine, want 2", oc.peak)
	}
}

// TestWarmEngineForgetsUnbuiltTemplates pins that a template entry no job
// claimed does not outlive its jobs: an engine that serves a whole grid
// from a warm cache builds nothing and ends holding no entries.
func TestWarmEngineForgetsUnbuiltTemplates(t *testing.T) {
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	warm := NewMemoryCache()
	if _, err := NewEngine(EngineOptions{Workers: 2, Cache: warm}).Run(jobs); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(EngineOptions{Workers: 2, Cache: warm})
	results, err := e.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.Cached {
			t.Fatalf("job %d was not served from the warm cache", i)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := len(e.templates); n != 0 {
		t.Fatalf("engine holds %d template entries after a warm run, want 0", n)
	}
}

// TestColdEngineForgetsBuiltTemplates pins that the template memo holds a
// DAG only while its jobs need it: a cold run builds each template once and
// ends holding no entries, so running the grid again on the same engine
// builds every template again.
func TestColdEngineForgetsBuiltTemplates(t *testing.T) {
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	templates := make(map[string]bool)
	for i := range jobs {
		templates[templateKey(jobs[i].Key)] = true
	}
	reg := obs.NewRegistry()
	e := NewEngine(EngineOptions{Workers: 2, Metrics: reg})
	for run := 1; run <= 2; run++ {
		if _, err := e.Run(jobs); err != nil {
			t.Fatal(err)
		}
		if builds := reg.Counter("sweep.dag_builds").Value(); builds != int64(run*len(templates)) {
			t.Fatalf("run %d: builds = %d, want %d per run", run, builds, len(templates))
		}
		e.mu.Lock()
		n := len(e.templates)
		e.mu.Unlock()
		if n != 0 {
			t.Fatalf("run %d: engine holds %d template entries after a cold run, want 0", run, n)
		}
	}
}

// TestHeldJobKeepsItsLease: a job that misses a leased cache while another
// job builds its template goes back to the queue still holding its flight
// lease, skips its lookup when picked again, and releases the lease once,
// after its simulation.  The two a jobs' lookups wait for each other, so
// both miss before either claims a's build, and a's build waits for b's to
// start.
func TestHeldJobKeepsItsLease(t *testing.T) {
	cfg := config.MustDefault(2).Scaled(512)
	build, _, err := testFactory("mergesort", cfg)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	lc := NewLeasedCache(dc, testLeaseOptions())
	jobs := []Job{NewJob("a", "p", "pdf", cfg, nil), NewJob("a", "p", "ws", cfg, nil), NewJob("b", "p", "pdf", cfg, nil)}
	bStarted := make(chan struct{})
	leasesDuringBuild := 0
	jobs[0].Build = func() (*dag.DAG, error) {
		select {
		case <-bStarted:
		case <-time.After(2 * time.Second):
			return nil, errors.New("b's build never started: a worker waited on a's")
		}
		for _, j := range jobs[:2] {
			if _, err := os.Stat(lc.leasePath(j.Key)); err == nil {
				leasesDuringBuild++
			}
		}
		return build()
	}
	jobs[1].Build = jobs[0].Build
	jobs[2].Build = func() (*dag.DAG, error) {
		close(bStarted)
		return build()
	}
	oc := &overlapCache{Cache: lc, overlap: make(chan struct{})}
	results, err := NewEngine(EngineOptions{Workers: 2, Cache: overlapFlightCache{oc, lc}}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Sim == nil || r.Cached {
			t.Fatalf("result %d is %+v, want a simulation", i, r)
		}
	}
	if leasesDuringBuild != 2 {
		t.Errorf("a's jobs held %d leases during a's build, want 2", leasesDuringBuild)
	}
	if acq, rel := lc.lm.acquired.Value(), lc.lm.released.Value(); acq != 3 || rel != 3 {
		t.Errorf("leases acquired %d, released %d; want one each per job (3)", acq, rel)
	}
}

// overlapFlightCache is an overlapCache over a LeasedCache that keeps the
// lease protocol.
type overlapFlightCache struct {
	*overlapCache
	fc FlightCache
}

func (c overlapFlightCache) Acquire(ctx context.Context, k Key) (Entry, bool, *Lease, error) {
	return c.fc.Acquire(ctx, k)
}

// overlapCache records how many Gets run at once; each waits up to 2 s for a
// second to join it.
type overlapCache struct {
	Cache
	mu           sync.Mutex
	active, peak int
	overlap      chan struct{}
}

func (c *overlapCache) Get(k Key) (Entry, bool) {
	c.mu.Lock()
	if c.active++; c.active > c.peak {
		if c.peak = c.active; c.peak == 2 {
			close(c.overlap)
		}
	}
	c.mu.Unlock()
	select {
	case <-c.overlap:
	case <-time.After(2 * time.Second):
	}
	c.mu.Lock()
	c.active--
	c.mu.Unlock()
	return c.Cache.Get(k)
}

// TestEngineBoundsConcurrentRuns pins that Workers bounds the engine, not
// each run: two runs on one one-worker engine never build at the same time.
// Each build waits briefly for another to overlap it, so a second pool
// shows up as a peak of 2.
func TestEngineBoundsConcurrentRuns(t *testing.T) {
	cfg := config.MustDefault(2).Scaled(512)
	build, _, err := testFactory("mergesort", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	active, peak := 0, 0
	overlap := make(chan struct{})
	counted := func() (*dag.DAG, error) {
		mu.Lock()
		if active++; active > peak {
			if peak = active; peak == 2 {
				close(overlap)
			}
		}
		mu.Unlock()
		defer func() {
			mu.Lock()
			active--
			mu.Unlock()
		}()
		select {
		case <-overlap:
		case <-time.After(100 * time.Millisecond):
		}
		return build()
	}
	e := NewEngine(EngineOptions{Workers: 1})
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[r] = e.Run([]Job{
				NewJob(fmt.Sprintf("run%d-a", r), "p", "pdf", cfg, counted),
				NewJob(fmt.Sprintf("run%d-b", r), "p", "pdf", cfg, counted),
			})
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", r, err)
		}
	}
	if peak != 1 {
		t.Fatalf("peak concurrent builds = %d on a one-worker engine, want 1", peak)
	}
}
