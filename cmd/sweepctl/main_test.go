package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cmpsched/internal/config"
	"cmpsched/internal/dag"
	"cmpsched/internal/faultinject"
	"cmpsched/internal/sweep"
	"cmpsched/internal/sweepsvc"
	"cmpsched/internal/workload"
)

// testCfg returns a small simulatable configuration.
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

// newTestServer starts a real sweep service whose expander maps each
// submitted point to a milliseconds-scale job (deterministic per point, so
// every server produces identical rows), optionally behind the HTTP fault
// injector.  failPoint, when non-empty, names a workload whose build fails —
// the terminal-job-error case.
func newTestServer(t *testing.T, faults faultinject.HTTPFaults, failPoint string) *httptest.Server {
	t.Helper()
	cfg := testCfg(t)
	svc := sweepsvc.NewService(sweepsvc.Options{Workers: 2})
	h := sweepsvc.NewHandler(svc)
	h.Expand = func(r *sweepsvc.Request) ([]sweep.Job, error) {
		jobs := make([]sweep.Job, len(r.Points))
		for i, p := range r.Points {
			p := p
			build := func() (*dag.DAG, error) {
				if p.Workload == failPoint {
					return nil, fmt.Errorf("injected build failure for %s", p.Workload)
				}
				d, _, err := workload.NewMergesort(workload.MergesortConfig{
					Elements: 1 << 10, TaskWorkingSetBytes: 1 << 10}).Build()
				return d, err
			}
			jobs[i] = sweep.NewJob(p.Workload, fmt.Sprintf("%+v", p), p.Scheduler, cfg, build)
		}
		return jobs, nil
	}
	var handler http.Handler = h
	if faults.Enabled() {
		handler = faults.Wrap(handler)
	}
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	return srv
}

// testPoints returns n distinct points (each is its own sweep.Key).  The
// workload names must pass the server's registry validation, so they come
// from the real registry; the test expander builds the same tiny DAG for all
// of them regardless.
func testPoints(t *testing.T, n int) []sweepsvc.Point {
	t.Helper()
	names := workload.Names()
	schedulers := []string{"pdf", "ws"}
	if n > len(names)*len(schedulers) {
		t.Fatalf("testPoints: %d exceeds the %d distinct combinations", n, len(names)*len(schedulers))
	}
	pts := make([]sweepsvc.Point, n)
	for i := range pts {
		pts[i] = sweepsvc.Point{
			Workload:  names[i%len(names)],
			Scheduler: schedulers[i/len(names)],
			Cores:     2,
		}
	}
	return pts
}

// newTestClient builds a client with test-scale retry pacing.
func newTestClient(endpoints ...string) *client {
	return &client{
		endpoints: endpoints,
		retries:   6,
		backoff:   time.Millisecond,
		http:      &http.Client{Transport: &http.Transport{ResponseHeaderTimeout: 10 * time.Second}},
	}
}

// normalize strips the legitimately-varying fields so rows from different
// servers/attempts compare equal.
func normalize(rs []sweep.Result) []sweep.Result {
	out := make([]sweep.Result, len(rs))
	for i, r := range rs {
		r.Cached = false
		r.Elapsed = 0
		out[i] = r
	}
	return out
}

// cleanRun sweeps the points through one fault-free server as the reference.
func cleanRun(t *testing.T, points []sweepsvc.Point) []sweep.Result {
	t.Helper()
	srv := newTestServer(t, faultinject.HTTPFaults{}, "")
	results := make([]sweep.Result, len(points))
	cl := newTestClient(srv.URL)
	failures, err := cl.run(points, results)
	if err != nil || len(failures) != 0 {
		t.Fatalf("clean run: failures=%v err=%v", failures, err)
	}
	return normalize(results)
}

// TestClientRidesOutInjectedFaults: a single endpoint injecting 429s, 503s
// and mid-stream drops must still deliver the complete, correct row set —
// retries resubmit only the unreceived points.
func TestClientRidesOutInjectedFaults(t *testing.T) {
	points := testPoints(t, 10)
	want := cleanRun(t, points)

	srv := newTestServer(t, faultinject.HTTPFaults{
		Seed:           11,
		Rate429:        0.2,
		Rate503:        0.2,
		RateDrop:       0.2,
		RetryAfter:     time.Second, // rounded up from ms by the header; still honored
		DropAfterBytes: 300,
	}, "")
	results := make([]sweep.Result, len(points))
	cl := newTestClient(srv.URL)
	failures, err := cl.run(points, results)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(failures) != 0 {
		t.Fatalf("failures: %v", failures)
	}
	if got := normalize(results); !reflect.DeepEqual(got, want) {
		t.Fatal("faulted run's merged rows differ from the clean run")
	}
}

// TestClientFailsOverToSurvivor: with one endpoint permanently down, its
// shard must re-shard onto the survivor and the merged output must match a
// clean single-server run exactly.
func TestClientFailsOverToSurvivor(t *testing.T) {
	points := testPoints(t, 8)
	want := cleanRun(t, points)

	alive := newTestServer(t, faultinject.HTTPFaults{}, "")
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "always down", http.StatusServiceUnavailable)
	}))
	t.Cleanup(dead.Close)

	results := make([]sweep.Result, len(points))
	cl := newTestClient(dead.URL, alive.URL)
	cl.retries = 1
	failures, err := cl.run(points, results)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(failures) != 0 {
		t.Fatalf("failures: %v", failures)
	}
	if got := normalize(results); !reflect.DeepEqual(got, want) {
		t.Fatal("failover run's merged rows differ from the clean run")
	}
}

// TestClientAllEndpointsDead: when every endpoint is gone the client reports
// the outstanding points instead of hanging.
func TestClientAllEndpointsDead(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	t.Cleanup(dead.Close)

	points := testPoints(t, 3)
	results := make([]sweep.Result, len(points))
	cl := newTestClient(dead.URL)
	cl.retries = 1
	_, err := cl.run(points, results)
	if err == nil || !strings.Contains(err.Error(), "dead") {
		t.Fatalf("want an all-endpoints-dead error, got %v", err)
	}
}

// TestClientJobErrorIsTerminal: a job that fails in simulation is reported
// once and never resubmitted (it would fail identically anywhere).
func TestClientJobErrorIsTerminal(t *testing.T) {
	points := testPoints(t, 4)
	srv := newTestServer(t, faultinject.HTTPFaults{}, points[1].Workload)

	results := make([]sweep.Result, len(points))
	cl := newTestClient(srv.URL)
	failures, err := cl.run(points, results)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(failures) != 1 || !strings.Contains(failures[0], points[1].Workload) {
		t.Fatalf("failures = %v, want exactly the %s build failure", failures, points[1].Workload)
	}
	for i, r := range results {
		if i == 1 {
			if r.Sim != nil {
				t.Fatal("failed point has a row")
			}
			continue
		}
		if r.Sim == nil {
			t.Fatalf("point %d missing its row", i)
		}
	}
}

// TestClientRefusalIsTerminal: a 4xx other than 429 (here sweepd's 400 for
// a submission over its queue bound) fails the sweep at once with the
// server's message: one request per shard, no backoff, no re-shard onto
// the other endpoint, which would refuse it alike.
func TestClientRefusalIsTerminal(t *testing.T) {
	const msg = "sweepsvc: 2 new jobs exceed the queue bound of 1"
	var requests [2]atomic.Int64
	endpoints := make([]string, len(requests))
	for i := range requests {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			requests[i].Add(1)
			http.Error(w, msg, http.StatusBadRequest)
		}))
		t.Cleanup(srv.Close)
		endpoints[i] = srv.URL
	}

	points := testPoints(t, 4)
	cl := newTestClient(endpoints...)
	cl.retries = 1
	cl.backoff = time.Second
	start := time.Now()
	_, err := cl.run(points, make([]sweep.Result, len(points)))
	elapsed := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), msg) {
		t.Fatalf("run error = %v, want the server's message %q", err, msg)
	}
	for i := range requests {
		if got := requests[i].Load(); got != 1 {
			t.Errorf("endpoint %d got %d requests, want 1", i, got)
		}
	}
	if elapsed > cl.backoff/2 {
		t.Errorf("run took %v, want well under the first backoff (%v)", elapsed, cl.backoff)
	}
}

func TestParseRetryAfter(t *testing.T) {
	if d := parseRetryAfter("3"); d != 3*time.Second {
		t.Fatalf("parseRetryAfter(3) = %v", d)
	}
	if d := parseRetryAfter(""); d != 0 {
		t.Fatalf("parseRetryAfter(empty) = %v", d)
	}
	if d := parseRetryAfter("-1"); d != 0 {
		t.Fatalf("parseRetryAfter(-1) = %v", d)
	}
}
