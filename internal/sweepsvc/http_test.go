package sweepsvc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"cmpsched/internal/sweep"
)

// postStream POSTs a body to /sweeps and decodes the NDJSON stream.
func postStream(t *testing.T, client *http.Client, url, body string) (events []Event, sweepID string, status int) {
	t.Helper()
	resp, err := client.Post(url+"/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /sweeps: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, "", resp.StatusCode
	}
	sweepID = resp.Header.Get("X-Sweep-ID")
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	return events, sweepID, resp.StatusCode
}

// TestHTTPEndToEndByteIdentity is the PR's acceptance keystone: a grid
// submitted over the wire yields rows — keys, key hashes and every
// simulator metric — byte-identical to the same grid run directly on a
// sweep engine, i.e. the transport does not perturb results or cache keys.
func TestHTTPEndToEndByteIdentity(t *testing.T) {
	svc := NewService(Options{Workers: 2, Cache: sweep.NewMemoryCache()})
	defer svc.Drain(context.Background())
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	const grid = `{"workloads":["mergesort","hashjoin"],"schedulers":["pdf","ws"],"cores":[2],"quick":true,"sequential":true}`
	events, sweepID, status := postStream(t, srv.Client(), srv.URL, grid)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if sweepID == "" {
		t.Fatalf("missing X-Sweep-ID header")
	}

	req, err := DecodeRequest(strings.NewReader(grid))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	jobs, err := req.Jobs()
	if err != nil {
		t.Fatalf("jobs: %v", err)
	}
	direct, err := sweep.NewEngine(sweep.EngineOptions{Workers: 2}).Run(jobs)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}

	if events[0].Type != EventAccepted || events[0].SweepID != sweepID || events[0].Total != len(jobs) {
		t.Fatalf("first event = %+v", events[0])
	}
	last := events[len(events)-1]
	if last.Type != EventDone || last.Summary == nil || last.Summary.Completed != len(jobs) {
		t.Fatalf("terminal event = %+v", last)
	}
	rows := make([]*sweep.Result, len(jobs))
	for _, ev := range events[1 : len(events)-1] {
		if ev.Type != EventResult || ev.Result == nil {
			t.Fatalf("mid-stream event = %+v", ev)
		}
		rows[ev.Index] = ev.Result
	}
	for i, row := range rows {
		if row == nil {
			t.Fatalf("row %d never streamed", i)
		}
		if row.Key != direct[i].Key {
			t.Errorf("row %d key = %+v, want %+v", i, row.Key, direct[i].Key)
		}
		if row.Key.Hash() != direct[i].Key.Hash() {
			t.Errorf("row %d hash mismatch", i)
		}
		// Byte identity of every simulator metric: marshal both sides and
		// compare the bytes (map keys marshal sorted, so this is exact).
		wire, err := json.Marshal(row.Sim)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(direct[i].Sim)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire, want) {
			t.Errorf("row %d simulator results differ:\nwire:   %s\ndirect: %s", i, wire, want)
		}
	}
}

// TestHTTPSaturation429 pins the transport mapping of admission control:
// with the queue bounded, the overflowing submission gets 429 with a
// Retry-After header while the in-flight sweep keeps streaming to
// completion.
func TestHTTPSaturation429(t *testing.T) {
	mk := newJobMaker()
	svc := NewService(Options{Workers: 1, MaxQueue: 2, RetryAfter: 3 * time.Second})
	defer svc.Drain(context.Background())
	h := NewHandler(svc)
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	// The seam: requests name their jobs via the workloads field, which must
	// still pass wire validation — so bodies spell registered workload names
	// and Expand maps "mergesort" to the gated blocker job.
	h.Expand = func(r *Request) ([]sweep.Job, error) {
		var jobs []sweep.Job
		for _, name := range r.Workloads {
			if name == "mergesort" {
				jobs = append(jobs, mk.job(t, name, started, gate))
			} else {
				jobs = append(jobs, mk.job(t, name, nil, nil))
			}
		}
		return jobs, nil
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	type streamOut struct {
		events []Event
		status int
	}
	// A: one job, picked up by the single runner and held on the gate.
	aDone := make(chan streamOut, 1)
	go func() {
		evs, _, status := postStream(t, srv.Client(), srv.URL, `{"workloads":["mergesort"]}`)
		aDone <- streamOut{evs, status}
	}()
	<-started // the blocker is on the runner; the queue is empty.

	// B: two jobs, filling the whole queue behind the blocker.
	bDone := make(chan streamOut, 1)
	go func() {
		evs, _, status := postStream(t, srv.Client(), srv.URL, `{"workloads":["hashjoin","lu"]}`)
		bDone <- streamOut{evs, status}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		depth := int64(0)
		for _, s := range svc.Metrics().Snapshot() {
			if s.Name == "svc.queue_depth" {
				depth = s.Value
			}
		}
		if depth == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The N+1th pending job overflows the bound: 429 plus the retry hint.
	resp, err := srv.Client().Post(srv.URL+"/sweeps", "application/json", strings.NewReader(`{"workloads":["bfs"]}`))
	if err != nil {
		t.Fatalf("overflow POST: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", got)
	}
	if mk.buildCount("bfs") != 0 {
		t.Errorf("rejected job must not run")
	}

	close(gate)
	a, b := <-aDone, <-bDone
	if a.status != http.StatusOK || b.status != http.StatusOK {
		t.Fatalf("in-flight sweep statuses = %d, %d", a.status, b.status)
	}
	for name, out := range map[string]streamOut{"A": a, "B": b} {
		last := out.events[len(out.events)-1]
		if last.Type != EventDone || last.Summary == nil || last.Summary.Failed != 0 {
			t.Fatalf("sweep %s must stream to completion through the rejection, terminal = %+v", name, last)
		}
	}
}

// TestHTTPQueueBoundIs400 pins the transport mapping of a submission no
// queue state can admit: on an idle service, more new jobs than the queue
// bound get 400 with no Retry-After, so a client does not wait to retry it.
func TestHTTPQueueBoundIs400(t *testing.T) {
	mk := newJobMaker()
	svc := NewService(Options{Workers: 1, MaxQueue: 2, RetryAfter: 3 * time.Second})
	defer svc.Drain(context.Background())
	h := NewHandler(svc)
	h.Expand = func(r *Request) ([]sweep.Job, error) {
		var jobs []sweep.Job
		for _, name := range r.Workloads {
			jobs = append(jobs, mk.job(t, name, nil, nil))
		}
		return jobs, nil
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := srv.Client().Post(srv.URL+"/sweeps", "application/json", strings.NewReader(`{"workloads":["mergesort","hashjoin","lu"]}`))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (%s)", resp.StatusCode, msg)
	}
	if got := resp.Header.Get("Retry-After"); got != "" {
		t.Errorf("Retry-After = %q on a submission no retry admits", got)
	}
	if want := "3 new jobs exceed the queue bound of 2"; !strings.Contains(string(msg), want) {
		t.Errorf("body = %q, want it to contain %q", msg, want)
	}
	for _, name := range []string{"mergesort", "hashjoin", "lu"} {
		if mk.buildCount(name) != 0 {
			t.Errorf("rejected job %s ran", name)
		}
	}
}

// TestHTTPStatusAndCancel covers GET and DELETE on /sweeps/{id}.
func TestHTTPStatusAndCancel(t *testing.T) {
	mk := newJobMaker()
	svc := NewService(Options{Workers: 1})
	defer svc.Drain(context.Background())
	h := NewHandler(svc)
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	h.Expand = func(r *Request) ([]sweep.Job, error) {
		return []sweep.Job{mk.job(t, "h0", started, gate), mk.job(t, "h1", nil, nil)}, nil
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	done := make(chan []Event)
	go func() {
		evs, _, _ := postStream(t, srv.Client(), srv.URL, `{"workloads":["mergesort"]}`)
		done <- evs
	}()
	<-started

	// The sweep ID is in the stream's accepted event; fetch it via the
	// service (the streaming goroutine owns the response).
	ids := svc.ActiveSweeps()
	if len(ids) != 1 {
		t.Fatalf("active sweeps = %v", ids)
	}
	id := ids[0]

	resp, err := srv.Client().Get(srv.URL + "/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("status decode: %v", err)
	}
	resp.Body.Close()
	if st.ID != id || st.Total != 2 {
		t.Errorf("status = %+v", st)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/sweeps/"+id, nil)
	resp, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE status = %d, want 204", resp.StatusCode)
	}
	close(gate)
	evs := <-done
	if last := evs[len(evs)-1]; last.Type != EventCancelled {
		t.Fatalf("terminal = %+v, want cancelled", last)
	}
	if mk.buildCount("h1") != 0 {
		t.Errorf("DELETE must skip the queued job")
	}

	// Unknown IDs 404 on both verbs.
	resp, _ = srv.Client().Get(srv.URL + "/sweeps/zzz")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown = %d, want 404", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/sweeps/zzz", nil)
	resp, _ = srv.Client().Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown = %d, want 404", resp.StatusCode)
	}
}

// TestHTTPClientDisconnectCancels: dropping the streaming connection
// releases the sweep's unstarted jobs.
func TestHTTPClientDisconnectCancels(t *testing.T) {
	mk := newJobMaker()
	svc := NewService(Options{Workers: 1})
	defer svc.Drain(context.Background())
	h := NewHandler(svc)
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	h.Expand = func(r *Request) ([]sweep.Job, error) {
		return []sweep.Job{mk.job(t, "x0", started, gate), mk.job(t, "x1", nil, nil)}, nil
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/sweeps", strings.NewReader(`{"workloads":["mergesort"]}`))
	req.Header.Set("Content-Type", "application/json")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	cancel() // client walks away mid-stream
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// The service notices the disconnect and retires the sweep; only then is
	// the running job released, so the queued job's skip is deterministic.
	deadline := time.Now().Add(10 * time.Second)
	for len(svc.ActiveSweeps()) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sweep still active after client disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(gate)
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if mk.buildCount("x1") != 0 {
		t.Errorf("disconnect must skip the queued job")
	}
}

// TestHTTPSSE: the SSE framing carries the same events.
func TestHTTPSSE(t *testing.T) {
	svc := NewService(Options{Workers: 1})
	defer svc.Drain(context.Background())
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/sweeps", strings.NewReader(`{"workloads":["mergesort"],"schedulers":["pdf"],"cores":[2],"quick":true}`))
	req.Header.Set("Accept", "text/event-stream")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{"event: accepted\n", "event: result\n", "event: done\n", "data: "} {
		if !strings.Contains(text, want) {
			t.Errorf("SSE stream missing %q:\n%s", want, text)
		}
	}
}

// TestHTTPHealthzMetricsDrain covers the operational endpoints across the
// drain transition.
func TestHTTPHealthzMetricsDrain(t *testing.T) {
	svc := NewService(Options{Workers: 1, RetryAfter: 2 * time.Second})
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz = %d %q", code, body)
	}

	// One sweep through, so the metrics have content.
	events, _, status := postStream(t, srv.Client(), srv.URL, `{"workloads":["mergesort"],"schedulers":["pdf"],"cores":[2],"quick":true}`)
	if status != http.StatusOK || events[len(events)-1].Type != EventDone {
		t.Fatalf("seed sweep failed: status %d", status)
	}
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("metrics decode: %v\n%s", err, body)
	}
	if snap.Service.JobsServed != 1 || snap.Metrics["svc.sweeps_completed"] != 1 {
		t.Errorf("snapshot = %+v", snap.Service)
	}
	if snap.Metrics["sweep.jobs"] != 1 {
		t.Errorf("engine metrics missing from snapshot")
	}
	if snap.Service.SimCycles <= 0 || snap.Service.CyclesPerSec <= 0 {
		t.Errorf("throughput fields = %+v", snap.Service)
	}

	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, body := get("/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("draining healthz = %d %q", code, body)
	}
	resp, err := srv.Client().Post(srv.URL+"/sweeps", "application/json", strings.NewReader(`{"workloads":["mergesort"]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining POST = %d, want 503", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("draining Retry-After = %q", resp.Header.Get("Retry-After"))
	}
}

// TestHTTPBadRequests: malformed and invalid submissions are 400s with a
// diagnostic body.
func TestHTTPBadRequests(t *testing.T) {
	svc := NewService(Options{Workers: 1})
	defer svc.Drain(context.Background())
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	for name, body := range map[string]string{
		"unknown field":    `{"worklods":["mergesort"]}`,
		"unknown workload": `{"workloads":["nope"]}`,
		"not json":         `hello`,
		"mixed forms":      `{"workloads":["mergesort"],"points":[{"workload":"mergesort","scheduler":"pdf","cores":2}]}`,
	} {
		resp, err := srv.Client().Post(srv.URL+"/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", name, resp.StatusCode, b)
		}
	}
}

// TestHTTPRejectsOversizedGridBeforeExpand: a grid naming more jobs than
// the per-sweep limit is a 400 decided from the request's size alone — the
// Expand seam, which builds one job per point, never runs.
func TestHTTPRejectsOversizedGridBeforeExpand(t *testing.T) {
	svc := NewService(Options{Workers: 1})
	defer svc.Drain(context.Background())
	h := NewHandler(svc)
	expanded := false
	h.Expand = func(r *Request) ([]sweep.Job, error) {
		expanded = true
		return r.Jobs()
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	req := Request{Workloads: make([]string, 1000), Schedulers: make([]string, 1000)}
	for i := range req.Workloads {
		req.Workloads[i], req.Schedulers[i] = "mergesort", "pdf"
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (%s)", resp.StatusCode, msg)
	}
	// 1000 workloads x 6 default configurations x 1 topology x 1000
	// schedulers.
	if want := "6000000 jobs exceeds the per-sweep limit of 4096"; !strings.Contains(string(msg), want) {
		t.Errorf("body = %q, want it to contain %q", msg, want)
	}
	if expanded {
		t.Error("the oversized grid was expanded before it was rejected")
	}
}

// TestHTTPRejectsOversizedBody: a body past 64 KiB plus 1 KiB per job of
// the per-sweep limit is a 413, whatever it would have decoded to.
func TestHTTPRejectsOversizedBody(t *testing.T) {
	svc := NewService(Options{Workers: 1, MaxJobsPerSweep: 4})
	defer svc.Drain(context.Background())
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	body := `{"workloads":["` + strings.Repeat("a", 68<<10) + `"]}`
	resp, err := srv.Client().Post(srv.URL+"/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (%s)", resp.StatusCode, msg)
	}

	// Just under the bound the same shape decodes and fails validation.
	body = `{"workloads":["` + strings.Repeat("a", 67<<10) + `"]}`
	resp, err = srv.Client().Post(srv.URL+"/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status under the bound = %d, want 400", resp.StatusCode)
	}
}
