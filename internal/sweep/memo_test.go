package sweep

import (
	"reflect"
	"sync"
	"testing"

	"cmpsched/internal/cmpsim"
	"cmpsched/internal/dag"
	"cmpsched/internal/obs"
	"cmpsched/internal/sched"
)

// runDirect simulates one job without any sweep machinery — a fresh DAG
// build per run, no memoised templates, no shared trace store — producing
// the result exactly as Engine.runJob would (task stats dropped).
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
// sweep whose jobs share memoised DAG templates (and, concurrently, one
// trace store) produces byte-identical simulator results to rebuilding every
// DAG from scratch, at any worker count.  Run under -race this also
// exercises concurrent simulations of one shared DAG.
func TestSharedTraceStoreByteIdentical(t *testing.T) {
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	// The grid shape guarantees sharing: every (workload, cores) pair
	// appears once per scheduler (plus the sequential baseline).
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
		// difference must show up as avoided rebuilds, and the shared store
		// must have interned every recorded task exactly once per template.
		builds := reg.ShardedCounter("sweep.dag_builds", 1).Value()
		avoided := reg.ShardedCounter("sweep.dag_rebuilds_avoided", 1).Value()
		if builds == 0 || avoided == 0 || builds+avoided != int64(len(jobs)) {
			t.Fatalf("workers=%d: builds=%d avoided=%d, want both positive summing to %d",
				workers, builds, avoided, len(jobs))
		}
		if interned := reg.Gauge("sweep.trace.interned").Value(); interned == 0 {
			t.Fatalf("workers=%d: no traces interned", workers)
		}
		if arena := reg.Gauge("sweep.trace.arena_bytes").Value(); arena <= 0 {
			t.Fatalf("workers=%d: arena bytes = %d", workers, arena)
		}
	}
}

// TestMemoizedBuildRunsOncePerTemplate pins the single-flight contract: the
// engine calls Build once per (workload, params, config) triple no matter
// how many schedulers fan out from it or how many workers race.
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
	if builds := reg.ShardedCounter("sweep.dag_builds", 1).Value(); builds != int64(len(templates)) {
		t.Fatalf("builds = %d, want one per template = %d", builds, len(templates))
	}
}

// TestEngineSharesOneDAGPerTemplate pins the sharing contract: every job of a
// (workload, params, config) template simulates the one DAG the engine
// recorded for it.
func TestEngineSharesOneDAGPerTemplate(t *testing.T) {
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatal(err)
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
