package sweepsvc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cmpsched/internal/config"
	"cmpsched/internal/dag"
	"cmpsched/internal/sweep"
	"cmpsched/internal/workload"
)

// testCfg returns a small simulatable configuration (quick-scale capacity).
func testCfg(t *testing.T) config.CMP {
	t.Helper()
	for _, c := range config.Defaults() {
		if c.Cores == 2 {
			return c.Scaled(config.DefaultScale * 16)
		}
	}
	t.Fatal("no 2-core default configuration")
	return config.CMP{}
}

// buildTinyDAG builds a milliseconds-scale mergesort DAG.
func buildTinyDAG() (*dag.DAG, error) {
	d, _, err := workload.NewMergesort(workload.MergesortConfig{Elements: 1 << 10, TaskWorkingSetBytes: 1 << 10}).Build()
	return d, err
}

// jobMaker hands out jobs with per-name build counting and optional
// started/gate channels for deterministic scheduling control.  Job keys are
// distinguished by name (folded into Params), so two jobs of the same name
// are duplicates by sweep.Key.
type jobMaker struct {
	mu     sync.Mutex
	builds map[string]int
}

func newJobMaker() *jobMaker {
	return &jobMaker{builds: make(map[string]int)}
}

func (m *jobMaker) buildCount(name string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.builds[name]
}

// job returns a job named name.  When started is non-nil it receives (non-
// blocking) as soon as a runner begins the build; when gate is non-nil the
// build blocks until the gate is closed.
func (m *jobMaker) job(t *testing.T, name string, started chan<- struct{}, gate <-chan struct{}) sweep.Job {
	cfg := testCfg(t)
	build := func() (*dag.DAG, error) {
		m.mu.Lock()
		m.builds[name]++
		m.mu.Unlock()
		if started != nil {
			select {
			case started <- struct{}{}:
			default:
			}
		}
		if gate != nil {
			<-gate
		}
		return buildTinyDAG()
	}
	return sweep.NewJob("svc-test", name, "pdf", cfg, build)
}

// countingCache wraps a cache and counts Put calls per key hash — one Put
// per actual simulation, which is what the single-flight tests assert on.
type countingCache struct {
	inner *sweep.MemoryCache
	mu    sync.Mutex
	puts  map[string]int
}

func newCountingCache() *countingCache {
	return &countingCache{inner: sweep.NewMemoryCache(), puts: make(map[string]int)}
}

func (c *countingCache) Get(k sweep.Key) (sweep.Entry, bool) { return c.inner.Get(k) }

func (c *countingCache) Put(e sweep.Entry) error {
	c.mu.Lock()
	c.puts[e.Key.Hash()]++
	c.mu.Unlock()
	return c.inner.Put(e)
}

func (c *countingCache) Stats() (hits, misses int64) { return c.inner.Stats() }

func (c *countingCache) putCounts() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int, len(c.puts))
	for k, v := range c.puts {
		out[k] = v
	}
	return out
}

// collect drains a sweep's stream, separating result events from the
// terminal event.
func collect(t *testing.T, sw *Sweep) (results []Event, terminal Event) {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case ev, ok := <-sw.Events():
			if !ok {
				if terminal.Type == "" {
					t.Fatalf("stream closed without a terminal event")
				}
				return results, terminal
			}
			switch ev.Type {
			case EventAccepted:
			case EventResult:
				results = append(results, ev)
			case EventDone, EventCancelled:
				terminal = ev
			}
		case <-deadline:
			t.Fatalf("timed out draining sweep %s", sw.ID())
		}
	}
}

// TestSingleFlightAcrossClients pins the cross-client dedup contract with
// deterministic overlap: client B submits while A's duplicated jobs are
// still queued or running, each duplicated key simulates exactly once, and
// both clients receive its row.
func TestSingleFlightAcrossClients(t *testing.T) {
	mk := newJobMaker()
	cc := newCountingCache()
	svc := NewService(Options{Workers: 1, Cache: cc})
	defer svc.Drain(context.Background())

	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	// A: j0 blocks on the gate, j1 and j2 queue behind it.
	a, err := svc.Submit([]sweep.Job{
		mk.job(t, "j0", started, gate),
		mk.job(t, "j1", nil, nil),
		mk.job(t, "j2", nil, nil),
	})
	if err != nil {
		t.Fatalf("submit A: %v", err)
	}
	<-started // j0 is on the runner; j1, j2 are queued.

	// B overlaps A on j1 and j2 while they are provably unstarted.
	b, err := svc.Submit([]sweep.Job{
		mk.job(t, "j1", nil, nil),
		mk.job(t, "j3", nil, nil),
		mk.job(t, "j2", nil, nil),
	})
	if err != nil {
		t.Fatalf("submit B: %v", err)
	}
	close(gate)

	aResults, aTerm := collect(t, a)
	bResults, bTerm := collect(t, b)
	if len(aResults) != 3 || len(bResults) != 3 {
		t.Fatalf("rows: A=%d B=%d, want 3 and 3", len(aResults), len(bResults))
	}
	if aTerm.Type != EventDone || bTerm.Type != EventDone {
		t.Fatalf("terminals: A=%s B=%s", aTerm.Type, bTerm.Type)
	}
	if bTerm.Summary.DedupHits != 2 {
		t.Errorf("B dedup hits = %d, want 2 (j1 and j2)", bTerm.Summary.DedupHits)
	}
	// Every key simulated exactly once (one cache Put per key) even though
	// j1 and j2 were wanted by both clients.
	for key, n := range cc.putCounts() {
		if n != 1 {
			t.Errorf("key %s simulated %d times, want 1", key, n)
		}
	}
	for _, name := range []string{"j0", "j1", "j2", "j3"} {
		if n := mk.buildCount(name); n != 1 {
			t.Errorf("job %s built %d times, want 1", name, n)
		}
	}
	// Both clients hold the duplicated rows, and they are the same rows.
	rowCycles := func(evs []Event, idx int) int64 {
		for _, ev := range evs {
			if ev.Index == idx {
				return ev.Result.Sim.Cycles
			}
		}
		t.Fatalf("missing row %d", idx)
		return 0
	}
	if a1, b0 := rowCycles(aResults, 1), rowCycles(bResults, 0); a1 != b0 {
		t.Errorf("duplicated j1 rows differ: %d vs %d", a1, b0)
	}
	if a2, b2 := rowCycles(aResults, 2), rowCycles(bResults, 2); a2 != b2 {
		t.Errorf("duplicated j2 rows differ: %d vs %d", a2, b2)
	}
}

// TestServiceDispatchesAroundBuilds: the service's jobs run on the engine's
// pool, which hands a free worker a job whose template nobody is building
// rather than one that would wait on a build.  Template a's build waits
// until b's has started, so a worker parked on a/ws would time the build out
// and fail both a rows.
func TestServiceDispatchesAroundBuilds(t *testing.T) {
	svc := NewService(Options{Workers: 2})
	defer svc.Drain(context.Background())

	bStarted := make(chan struct{})
	buildA := func() (*dag.DAG, error) {
		select {
		case <-bStarted:
			return buildTinyDAG()
		case <-time.After(2 * time.Second):
			return nil, errors.New("b's build never started: a worker waited on a's")
		}
	}
	buildB := func() (*dag.DAG, error) {
		close(bStarted)
		return buildTinyDAG()
	}
	cfg := testCfg(t)
	sw, err := svc.Submit([]sweep.Job{
		sweep.NewJob("a", "p", "pdf", cfg, buildA),
		sweep.NewJob("a", "p", "ws", cfg, buildA),
		sweep.NewJob("b", "p", "pdf", cfg, buildB),
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	results, term := collect(t, sw)
	if term.Type != EventDone || len(results) != 3 {
		t.Fatalf("terminal %s after %d rows, want done after 3", term.Type, len(results))
	}
	for _, ev := range results {
		if ev.Err != "" {
			t.Errorf("row %d failed: %s", ev.Index, ev.Err)
		}
	}
}

// TestConcurrentGridSubmissions is the ISSUE's satellite shape: two
// goroutines submit overlapping wire grids concurrently; every duplicated
// key must simulate exactly once (served by single-flight or by the result
// cache) and both clients must receive a full, identical row set.
func TestConcurrentGridSubmissions(t *testing.T) {
	cc := newCountingCache()
	svc := NewService(Options{Workers: 2, Cache: cc})
	defer svc.Drain(context.Background())

	req := &Request{Workloads: []string{"mergesort"}, Schedulers: []string{"pdf", "ws"}, Cores: []int{2, 8}, Quick: true}
	jobs, err := req.Jobs()
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}

	type stream struct {
		results []Event
		term    Event
	}
	streams := make([]stream, 2)
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each client expands its own copy of the grid (fresh builders,
			// same keys), as two real clients would.
			jobs, err := req.Jobs()
			if err != nil {
				t.Errorf("client %d: Jobs: %v", i, err)
				return
			}
			sw, err := svc.Submit(jobs)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			streams[i].results, streams[i].term = collect(t, sw)
		}(i)
	}
	wg.Wait()

	for key, n := range cc.putCounts() {
		if n != 1 {
			t.Errorf("key %s simulated %d times, want 1", key, n)
		}
	}
	if got := len(cc.putCounts()); got != len(jobs) {
		t.Errorf("distinct keys simulated = %d, want %d", got, len(jobs))
	}
	for i, st := range streams {
		if len(st.results) != len(jobs) {
			t.Fatalf("client %d received %d rows, want %d", i, len(st.results), len(jobs))
		}
	}
	// The overlap was served by the cache or by single-flight; either way
	// both clients' rows must agree point for point.
	byIndex := func(st stream) map[int]int64 {
		out := make(map[int]int64)
		for _, ev := range st.results {
			out[ev.Index] = ev.Result.Sim.Cycles
		}
		return out
	}
	c0, c1 := byIndex(streams[0]), byIndex(streams[1])
	for i := range jobs {
		if c0[i] != c1[i] {
			t.Errorf("row %d differs between clients: %d vs %d cycles", i, c0[i], c1[i])
		}
	}
}

// TestAdmissionSaturation pins the bounded-queue contract: with the queue
// bound at N, the submission that would make N+1 pending jobs is rejected
// with a SaturatedError carrying the retry hint, while admitted sweeps keep
// streaming to completion.
func TestAdmissionSaturation(t *testing.T) {
	mk := newJobMaker()
	svc := NewService(Options{Workers: 1, MaxQueue: 2, RetryAfter: 7 * time.Second})
	defer svc.Drain(context.Background())

	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	a, err := svc.Submit([]sweep.Job{mk.job(t, "a0", started, gate)})
	if err != nil {
		t.Fatalf("submit A: %v", err)
	}
	<-started // a0 runs; the queue is empty.

	b, err := svc.Submit([]sweep.Job{mk.job(t, "b0", nil, nil), mk.job(t, "b1", nil, nil)})
	if err != nil {
		t.Fatalf("submit B (fills the queue): %v", err)
	}

	_, err = svc.Submit([]sweep.Job{mk.job(t, "c0", nil, nil)})
	var sat *SaturatedError
	if !errors.As(err, &sat) {
		t.Fatalf("overflow submission: err = %v, want SaturatedError", err)
	}
	if sat.RetryAfter != 7*time.Second {
		t.Errorf("RetryAfter = %s, want 7s", sat.RetryAfter)
	}
	if mk.buildCount("c0") != 0 {
		t.Errorf("rejected job must not run")
	}

	// The in-flight sweeps are unaffected by the rejection.
	close(gate)
	if _, term := collect(t, a); term.Type != EventDone {
		t.Errorf("A terminal = %s, want done", term.Type)
	}
	if _, term := collect(t, b); term.Type != EventDone {
		t.Errorf("B terminal = %s, want done", term.Type)
	}

	// With the queue drained, admission recovers.
	if _, err := svc.Submit([]sweep.Job{mk.job(t, "d0", nil, nil)}); err != nil {
		t.Fatalf("post-drain submission: %v", err)
	}
}

// TestQueueBoundLimit pins that a submission whose new jobs alone exceed
// the queue bound is a LimitError, which no retry can cure, not a
// SaturatedError: an idle service rejects it and runs none of its jobs,
// and still admits a submission that fits the empty queue.
func TestQueueBoundLimit(t *testing.T) {
	mk := newJobMaker()
	svc := NewService(Options{Workers: 1, MaxQueue: 2})
	defer svc.Drain(context.Background())

	jobs := []sweep.Job{mk.job(t, "q0", nil, nil), mk.job(t, "q1", nil, nil), mk.job(t, "q2", nil, nil)}
	_, err := svc.Submit(jobs)
	var lim *LimitError
	if !errors.As(err, &lim) {
		t.Fatalf("err = %v, want LimitError", err)
	}
	if want := "3 new jobs exceed the queue bound of 2"; !strings.Contains(err.Error(), want) {
		t.Errorf("err = %q, want it to contain %q", err, want)
	}
	for _, name := range []string{"q0", "q1", "q2"} {
		if mk.buildCount(name) != 0 {
			t.Errorf("rejected job %s ran", name)
		}
	}
	sw, err := svc.Submit(jobs[:2])
	if err != nil {
		t.Fatalf("a submission that fits the empty queue: %v", err)
	}
	if _, term := collect(t, sw); term.Type != EventDone {
		t.Errorf("terminal = %s, want done", term.Type)
	}
}

// TestMaxSweepsSaturation covers the active-sweep bound.
func TestMaxSweepsSaturation(t *testing.T) {
	mk := newJobMaker()
	svc := NewService(Options{Workers: 1, MaxSweeps: 1})
	defer svc.Drain(context.Background())

	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	a, err := svc.Submit([]sweep.Job{mk.job(t, "a0", started, gate)})
	if err != nil {
		t.Fatalf("submit A: %v", err)
	}
	<-started
	var sat *SaturatedError
	if _, err := svc.Submit([]sweep.Job{mk.job(t, "b0", nil, nil)}); !errors.As(err, &sat) {
		t.Fatalf("second sweep: err = %v, want SaturatedError", err)
	}
	close(gate)
	collect(t, a)
}

// TestPerSweepJobLimit covers the job-count limit: a LimitError, not a
// retryable saturation.
func TestPerSweepJobLimit(t *testing.T) {
	mk := newJobMaker()
	svc := NewService(Options{Workers: 1, MaxJobsPerSweep: 2})
	defer svc.Drain(context.Background())
	jobs := []sweep.Job{mk.job(t, "l0", nil, nil), mk.job(t, "l1", nil, nil), mk.job(t, "l2", nil, nil)}
	var lim *LimitError
	if _, err := svc.Submit(jobs); !errors.As(err, &lim) {
		t.Fatalf("err = %v, want LimitError", err)
	}
}

// TestCancelSkipsUnstartedJobs: cancelling a sweep drops its claim on
// queued jobs (they are skipped, never simulated), finishes the running job
// into the cache, and terminates the stream with EventCancelled.
func TestCancelSkipsUnstartedJobs(t *testing.T) {
	mk := newJobMaker()
	cc := newCountingCache()
	svc := NewService(Options{Workers: 1, Cache: cc})

	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	sw, err := svc.Submit([]sweep.Job{
		mk.job(t, "c0", started, gate),
		mk.job(t, "c1", nil, nil),
		mk.job(t, "c2", nil, nil),
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-started
	if !svc.Cancel(sw.ID()) {
		t.Fatalf("Cancel reported no active sweep")
	}
	if svc.Cancel(sw.ID()) {
		t.Fatalf("double Cancel must report false")
	}
	_, term := collect(t, sw)
	if term.Type != EventCancelled {
		t.Fatalf("terminal = %s, want cancelled", term.Type)
	}
	close(gate)
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n := mk.buildCount("c1") + mk.buildCount("c2"); n != 0 {
		t.Errorf("cancelled queued jobs built %d times, want 0", n)
	}
	// The job that was already running completed into the cache.
	if n := cc.putCounts(); len(n) != 1 {
		t.Errorf("cache holds %d entries, want 1 (the running job)", len(n))
	}
}

// TestDrainRejectsAndFinishes: draining stops admission with ErrDraining
// and completes the backlog; after Drain, no service goroutines remain.
func TestDrainRejectsAndFinishes(t *testing.T) {
	before := runtime.NumGoroutine()
	mk := newJobMaker()
	svc := NewService(Options{Workers: 2})
	sw, err := svc.Submit([]sweep.Job{mk.job(t, "d0", nil, nil), mk.job(t, "d1", nil, nil)})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := svc.Submit([]sweep.Job{mk.job(t, "d2", nil, nil)}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: err = %v, want ErrDraining", err)
	}
	results, term := collect(t, sw)
	if len(results) != 2 || term.Type != EventDone {
		t.Fatalf("backlog must finish under drain: %d rows, terminal %s", len(results), term.Type)
	}
	// Idempotent.
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	// No leaked goroutines: the runner pool is gone.  Poll briefly — the
	// last runner may still be between its final send and exit.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before service, %d after drain", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStatusAndMetrics covers the observability surface at the service
// level: Status of an active sweep and the registry counters.
func TestStatusAndMetrics(t *testing.T) {
	mk := newJobMaker()
	svc := NewService(Options{Workers: 1})
	defer svc.Drain(context.Background())

	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	sw, err := svc.Submit([]sweep.Job{mk.job(t, "s0", started, gate), mk.job(t, "s1", nil, nil)})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-started
	st, ok := svc.Status(sw.ID())
	if !ok || st.Total != 2 || st.Done != 0 {
		t.Fatalf("status = %+v ok=%v, want total 2 done 0", st, ok)
	}
	if ids := svc.ActiveSweeps(); len(ids) != 1 || ids[0] != sw.ID() {
		t.Fatalf("active sweeps = %v", ids)
	}
	close(gate)
	collect(t, sw)
	if _, ok := svc.Status(sw.ID()); ok {
		t.Fatalf("completed sweep must retire from Status")
	}

	values := make(map[string]int64)
	for _, s := range svc.Metrics().Snapshot() {
		values[s.Name] = s.Value
	}
	for name, want := range map[string]int64{
		"svc.sweeps_accepted":  1,
		"svc.sweeps_completed": 1,
		"svc.jobs_submitted":   2,
		"svc.jobs_completed":   2,
		"svc.active_sweeps":    0,
		"svc.queue_depth":      0,
		"svc.inflight_jobs":    0,
	} {
		if values[name] != want {
			t.Errorf("%s = %d, want %d", name, values[name], want)
		}
	}
	if _, ok := values["sweep.jobs"]; !ok {
		t.Errorf("engine metrics must share the service registry")
	}
}

// TestSubmitEmptyAndFailedJobs covers the degenerate shapes: empty
// submissions are rejected outright, and a failing job streams an error
// event while the rest of the sweep completes.
func TestSubmitEmptyAndFailedJobs(t *testing.T) {
	mk := newJobMaker()
	svc := NewService(Options{Workers: 1})
	defer svc.Drain(context.Background())

	var lim *LimitError
	if _, err := svc.Submit(nil); !errors.As(err, &lim) {
		t.Fatalf("empty submit: err = %v, want LimitError", err)
	}

	bad := sweep.NewJob("svc-test", "bad", "pdf", testCfg(t), func() (*dag.DAG, error) {
		return nil, fmt.Errorf("synthetic build failure")
	})
	sw, err := svc.Submit([]sweep.Job{bad, mk.job(t, "ok", nil, nil)})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	results, term := collect(t, sw)
	if len(results) != 2 {
		t.Fatalf("rows = %d, want 2", len(results))
	}
	if term.Summary.Completed != 1 || term.Summary.Failed != 1 {
		t.Fatalf("summary = %+v, want 1 completed 1 failed", term.Summary)
	}
	for _, ev := range results {
		if ev.Index == 0 && ev.Err == "" {
			t.Errorf("failing job must carry its error")
		}
		if ev.Index == 1 && ev.Result == nil {
			t.Errorf("succeeding job must carry its row")
		}
	}
}
