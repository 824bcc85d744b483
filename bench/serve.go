package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cmpsched/internal/prng"
	"cmpsched/internal/sweep"
	"cmpsched/internal/sweepsvc"
)

// pointsPerRequest is the size of every request the clients send.
const pointsPerRequest = 16

// server is an in-process sweepsvc behind an HTTP server on a loopback
// port.
type server struct {
	url    string
	svc    *sweepsvc.Service
	http   *http.Server
	served chan error
}

// startServer starts a service with the benchmark's worker count over c.
// expand, when non-nil, replaces the handler's wire expansion.  With a
// tracer, the handler is wrapped in a middleware that records a span per
// request and the expansion is timed.
func startServer(c sweep.Cache, expand func(*sweepsvc.Request) ([]sweep.Job, error), tr *tracer) (*server, error) {
	svc := sweepsvc.NewService(sweepsvc.Options{Workers: workers, Cache: c})
	h := sweepsvc.NewHandler(svc)
	if expand != nil {
		h.Expand = expand
	}
	var handler http.Handler = h
	if tr != nil {
		inner := h.Expand
		h.Expand = func(r *sweepsvc.Request) ([]sweep.Job, error) {
			// The seam carries no request context, so expansion spans
			// have no request id.
			sp := tr.begin("sweepsvc.expand", "", -1, laneServer)
			defer tr.end(sp)
			return inner(r)
		}
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			parent, err := strconv.Atoi(r.Header.Get("X-Parent-Span"))
			if err != nil {
				parent = -1
			}
			sp := tr.begin("sweepsvc.handle", r.Header.Get("X-Request-ID"), parent, laneServer)
			h.ServeHTTP(w, r)
			tr.end(sp)
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Drain(context.Background())
		return nil, err
	}
	s := &server{
		url:    "http://" + ln.Addr().String(),
		svc:    svc,
		http:   &http.Server{Handler: handler},
		served: make(chan error, 1),
	}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// healthy polls /healthz until it answers 200.
func (s *server) healthy(timeout time.Duration) error {
	transport := &http.Transport{Proxy: nil}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport}
	deadline := time.Now().Add(timeout)
	for {
		resp, err := hc.Get(s.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("healthz did not answer 200 within %v", timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// close shuts the HTTP server down, drains the service and waits for both.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := s.svc.Drain(ctx); err == nil {
		err = derr
	}
	return err
}

// timedCache records a span around every Get and Put of the service's
// cache.  The engine calls it without a request context, so its spans
// carry the job's key instead of a request id.
type timedCache struct {
	sweep.Cache
	tr *tracer
}

func (c timedCache) Get(k sweep.Key) (sweep.Entry, bool) {
	sp := c.tr.begin("sweep.cache_get", k.String(), -1, laneCache)
	e, ok := c.Cache.Get(k)
	c.tr.end(sp)
	return e, ok
}

func (c timedCache) Put(e sweep.Entry) error {
	sp := c.tr.begin("sweep.cache_put", e.Key.String(), -1, laneCache)
	err := c.Cache.Put(e)
	c.tr.end(sp)
	return err
}

// servePool is what clients ask a server for: the wire points of a job
// list, and for each point the keys and rows of the jobs it expands to, in
// expansion order.
type servePool struct {
	points []sweepsvc.Point
	keys   [][]sweep.Key
	rows   [][]row
	quick  bool // the requests' Quick field
}

// newServePool groups a job list and its rows by wire point, in order of
// first appearance.
func newServePool(jobs []sweep.Job, rows []row, quick bool) *servePool {
	p := &servePool{quick: quick}
	index := map[sweepsvc.Point]int{}
	for i, j := range jobs {
		pt := pointOf(j)
		k, ok := index[pt]
		if !ok {
			k = len(p.points)
			index[pt] = k
			p.points = append(p.points, pt)
			p.keys = append(p.keys, nil)
			p.rows = append(p.rows, nil)
		}
		p.keys[k] = append(p.keys[k], j.Key)
		p.rows[k] = append(p.rows[k], rows[i])
	}
	return p
}

// expander returns a wire expansion serving a grid's own jobs: each point
// expands to the grid jobs it names.  Grid jobs carry the benchmark's
// seeded inputs, which the wire format cannot express.
func expander(jobs []sweep.Job) func(*sweepsvc.Request) ([]sweep.Job, error) {
	byPoint := map[sweepsvc.Point][]sweep.Job{}
	for _, j := range jobs {
		pt := pointOf(j)
		byPoint[pt] = append(byPoint[pt], j)
	}
	return func(r *sweepsvc.Request) ([]sweep.Job, error) {
		var out []sweep.Job
		for _, p := range r.Points {
			js, ok := byPoint[p]
			if !ok {
				return nil, fmt.Errorf("point %+v is not in the grid", p)
			}
			out = append(out, js...)
		}
		return out, nil
	}
}

// loadStats accumulates what a closed-loop load observed.
type loadStats struct {
	requests, rows, failed, checked int
	rejected, dedup                 int
	bytes                           int64
	wall                            time.Duration
	latency, admit, stream          []float64 // ms, one sample per completed request
	firstFailure                    string
}

// runLoad drives a closed loop of two clients against url: each sends a
// request for pointsPerRequest distinct points drawn from the pool, reads
// its NDJSON stream to the done event, checks every row against the pool's
// rows, and only then sends its next request.  It stops once the clients
// have sent at least minRequests requests and run for at least minTime.  The
// request mix is drawn from seed; loads of one run differ in phase, so each
// draws its own requests.
func runLoad(url string, pool *servePool, seed uint64, phase, minRequests int, minTime time.Duration, tr *tracer) loadStats {
	transport := &http.Transport{Proxy: nil, MaxIdleConnsPerHost: workers, MaxConnsPerHost: workers, DisableCompression: true}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport}
	var issued atomic.Int64
	stats := make([]loadStats, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := prng.SplitMix64{State: prng.Mix64(seed) + uint64(phase*workers+c)}
			cl := client{hc: hc, url: url, pool: pool, tr: tr, lane: c, st: &stats[c]}
			for k := 0; ; k++ {
				if issued.Add(1) > int64(minRequests) && time.Since(start) >= minTime {
					return
				}
				cl.request(fmt.Sprintf("p%d-c%d-%d", phase, c, k), pickPoints(&rng, len(pool.points)))
			}
		}(c)
	}
	wg.Wait()
	var total loadStats
	for _, s := range stats {
		total.add(s)
	}
	total.wall = time.Since(start)
	return total
}

// add folds another load's observations into l.
func (l *loadStats) add(o loadStats) {
	l.requests += o.requests
	l.rows += o.rows
	l.failed += o.failed
	l.checked += o.checked
	l.rejected += o.rejected
	l.dedup += o.dedup
	l.bytes += o.bytes
	l.wall += o.wall
	l.latency = append(l.latency, o.latency...)
	l.admit = append(l.admit, o.admit...)
	l.stream = append(l.stream, o.stream...)
	if l.firstFailure == "" {
		l.firstFailure = o.firstFailure
	}
}

// pickPoints draws min(pointsPerRequest, n) distinct indexes below n.
func pickPoints(rng *prng.SplitMix64, n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	k := min(pointsPerRequest, n)
	for i := 0; i < k; i++ {
		j := i + int(rng.Next()%uint64(n-i))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:k]
}

type client struct {
	hc   *http.Client
	url  string
	pool *servePool
	tr   *tracer
	lane int
	st   *loadStats
}

// fail counts a failed request and keeps the first diagnostic.
func (c *client) fail(format string, args ...any) {
	c.st.failed++
	if c.st.firstFailure == "" {
		c.st.firstFailure = fmt.Sprintf(format, args...)
	}
}

// request sends one request for the pool points at idx and checks its
// stream: status 200, an accepted event, one cached row per expanded job
// equal to the pool's row, and a done event whose summary has no failures.
func (c *client) request(id string, idx []int) {
	c.st.requests++
	req := sweepsvc.Request{Quick: c.pool.quick, Points: make([]sweepsvc.Point, len(idx))}
	var wantKeys []sweep.Key
	var wantRows []row
	for i, k := range idx {
		req.Points[i] = c.pool.points[k]
		wantKeys = append(wantKeys, c.pool.keys[k]...)
		wantRows = append(wantRows, c.pool.rows[k]...)
	}
	body, err := json.Marshal(req)
	if err != nil {
		c.fail("%s: encode: %v", id, err)
		return
	}

	// endSpan closes an open client span once.
	endSpan := func(sp *int) {
		c.tr.end(*sp)
		*sp = -1
	}
	root := c.tr.begin("sweepsvc.request", id, -1, c.lane)
	defer c.tr.end(root)
	admit, stream, first := c.tr.begin("sweepsvc.admit", id, root, c.lane), -1, -1
	defer endSpan(&admit)
	defer endSpan(&first)
	defer endSpan(&stream)
	start := time.Now()
	hreq, err := http.NewRequest(http.MethodPost, c.url+"/sweeps", bytes.NewReader(body))
	if err != nil {
		c.fail("%s: %v", id, err)
		return
	}
	hreq.Header.Set("Content-Type", "application/json")
	if c.tr != nil {
		hreq.Header.Set("X-Request-ID", id)
		hreq.Header.Set("X-Parent-Span", strconv.Itoa(root))
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		c.fail("%s: %v", id, err)
		return
	}
	defer resp.Body.Close()
	counted := &countingReader{r: resp.Body}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(counted)
		if resp.StatusCode == http.StatusTooManyRequests {
			c.st.rejected++
		}
		c.fail("%s: status %d: %s", id, resp.StatusCode, bytes.TrimSpace(msg))
		return
	}

	dec := json.NewDecoder(counted)
	var accepted time.Time
	seen := make([]bool, len(wantRows))
	rows := 0
	for done := false; !done; {
		var ev sweepsvc.Event
		if err := dec.Decode(&ev); err != nil {
			c.fail("%s: stream cut after %d rows: %v", id, rows, err)
			return
		}
		switch ev.Type {
		case sweepsvc.EventAccepted:
			accepted = time.Now()
			endSpan(&admit)
			stream = c.tr.begin("sweepsvc.stream", id, root, c.lane)
			first = c.tr.begin("sweepsvc.first_row", id, root, c.lane)
		case sweepsvc.EventResult:
			endSpan(&first)
			rows++
			c.st.checked++
			if ev.Err != "" || ev.Result == nil || ev.Index < 0 || ev.Index >= len(wantRows) || seen[ev.Index] {
				c.fail("%s: bad row %d: %q", id, ev.Index, ev.Err)
				continue
			}
			seen[ev.Index] = true
			got := rowOf(wantRows[ev.Index].label, ev.Result.Sim)
			if !ev.Result.Cached || ev.Result.Key != wantKeys[ev.Index] || !got.same(wantRows[ev.Index]) {
				c.fail("%s: row %d (%s): cached=%t, want %s, got %s", id, ev.Index, ev.Result.Key, ev.Result.Cached, wantRows[ev.Index].fields(), got.fields())
			}
		case sweepsvc.EventDone:
			endSpan(&stream)
			done = true
			if ev.Summary == nil || ev.Summary.Failed != 0 || rows != len(wantRows) {
				c.fail("%s: done after %d of %d rows: %+v", id, rows, len(wantRows), ev.Summary)
				return
			}
			c.st.dedup += ev.Summary.DedupHits
		default:
			c.fail("%s: stream ended with %s", id, ev.Type)
			return
		}
	}
	end := time.Now()
	io.Copy(io.Discard, counted)
	c.st.rows += rows
	c.st.bytes += counted.n
	c.st.latency = append(c.st.latency, ms(end.Sub(start)))
	c.st.admit = append(c.st.admit, ms(accepted.Sub(start)))
	c.st.stream = append(c.st.stream, ms(end.Sub(accepted)))
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
