// Command sweepctl is the fan-out client for sweepd: it submits design-space
// grids over HTTP, streams result rows as simulations finish, and writes
// them with the same exporters cmd/sweep uses — so a grid swept through a
// server is byte-comparable with one swept locally.
//
// Usage:
//
//	sweepctl -workloads mergesort,hashjoin -quick              # one server
//	sweepctl -server http://a:8357,http://b:8357 -quick ...    # fan out
//	sweepctl -workloads lu -seq -format json -o lu.json
//	sweepctl -list                                             # axis values
//
// The grid is always expanded to explicit points locally and the points are
// sharded round-robin across the endpoints; returned rows are merged back
// into the canonical expansion order — the same deterministic Key order a
// single submission (or cmd/sweep itself) would produce, regardless of which
// server finished first or how many times a shard had to be resubmitted.
// Sharding is key-preserving: every point carries the same sweep.Key it
// would in the full grid, so the servers' caches stay shareable.
//
// The client is fault tolerant. A 429 waits out the server's Retry-After; a
// 5xx, timeout, connection error or mid-stream disconnect retries with
// exponential backoff and deterministic jitter, resubmitting only the points
// whose rows have not been received; an endpoint that exhausts its -retries
// budget is declared dead and its remaining points are re-sharded across the
// surviving endpoints. Job-level simulation errors are terminal for their
// job, and any other 4xx for the sweep: a deterministic job, or a request a
// server refuses as invalid or over its limits, would fail identically
// anywhere. Otherwise sweepctl gives up only when every endpoint is dead
// with points still outstanding. None of this changes the output: rows land
// by global point index, so the merged CSV/JSON is byte-identical to a
// fault-free single-server run.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"cmpsched/internal/prng"
	"cmpsched/internal/sweep"
	"cmpsched/internal/sweepsvc"
)

func main() {
	specFlags := sweep.BindSpecFlags(flag.CommandLine)
	var (
		servers    = flag.String("server", "http://127.0.0.1:8357", "comma-separated sweepd base URLs; more than one shards the grid")
		list       = flag.Bool("list", false, "print the available workloads, schedulers, topologies and configuration tables, then exit")
		format     = flag.String("format", "csv", "output format: csv or json")
		out        = flag.String("o", "", "output file (empty = stdout)")
		verbose    = flag.Bool("v", false, "log each received row to stderr")
		retries    = flag.Int("retries", 4, "per-endpoint retry budget before the endpoint is declared dead and its points re-shard")
		backoff    = flag.Duration("backoff", 250*time.Millisecond, "base of the exponential retry backoff (doubled per strike, plus deterministic jitter)")
		reqTimeout = flag.Duration("request-timeout", 30*time.Second, "per-attempt limit on connecting and receiving response headers (the result stream itself is unbounded)")
	)
	flag.Parse()

	if *list {
		sweep.WriteAxes(os.Stdout)
		return
	}
	if *format != "csv" && *format != "json" {
		fatalf("unknown format %q (want csv or json)", *format)
	}
	endpoints := sweep.SplitList(*servers)
	if len(endpoints) == 0 {
		fatalf("no -server endpoints")
	}

	spec, err := specFlags()
	if err != nil {
		fatalf("%v", err)
	}
	// Validate locally against the same registries the server consults, so
	// typos fail here with the full diagnosis instead of as an HTTP 400.
	points, err := spec.Points()
	if err != nil {
		fatalf("%v", err)
	}

	cl := &client{
		endpoints: endpoints,
		scale:     spec.Scale,
		quick:     spec.Quick,
		retries:   *retries,
		backoff:   *backoff,
		verbose:   *verbose,
		http: &http.Client{Transport: &http.Transport{
			ResponseHeaderTimeout: *reqTimeout,
		}},
	}
	results := make([]sweep.Result, len(points))
	failures, err := cl.run(points, results)

	w := os.Stdout
	if *out != "" {
		f, cerr := os.Create(*out)
		if cerr != nil {
			fatalf("%v", cerr)
		}
		defer f.Close()
		w = f
	}
	// The exporters skip unfilled rows, so partial output on failure is
	// still well-formed.
	var werr error
	switch *format {
	case "csv":
		werr = sweep.WriteCSV(w, results)
	case "json":
		werr = sweep.WriteJSON(w, results)
	}
	if werr != nil {
		fatalf("write %s: %v", *format, werr)
	}
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "sweepctl: %s\n", f)
	}
	if err != nil {
		fatalf("%v", err)
	}
	if len(failures) > 0 {
		fatalf("%d of %d jobs failed", len(failures), len(points))
	}
}

// client is the resilient fan-out state: which rows have landed, which jobs
// failed terminally, and the knobs of the retry policy.
type client struct {
	endpoints []string
	scale     int64
	quick     bool
	retries   int
	backoff   time.Duration
	verbose   bool
	http      *http.Client

	mu       sync.Mutex
	resolved []bool
	failures []string
}

// run drives the sweep to completion: shard the outstanding points over the
// live endpoints, stream each shard (with per-endpoint retries), then
// re-shard whatever a dead endpoint left behind across the survivors.  Each
// round either finishes the sweep or loses at least one endpoint, so the
// loop is bounded by the endpoint count.  A shard the server refuses ends
// the sweep once its round's other shards end.
func (c *client) run(points []sweep.Point, results []sweep.Result) ([]string, error) {
	c.resolved = make([]bool, len(points))
	alive := append([]string(nil), c.endpoints...)
	missing := make([]int, len(points))
	for i := range points {
		missing[i] = i
	}
	for round := 0; len(missing) > 0; round++ {
		if len(alive) == 0 {
			return c.failures, fmt.Errorf("all %d endpoints are dead with %d of %d points outstanding",
				len(c.endpoints), len(missing), len(points))
		}
		if round > 0 {
			fmt.Fprintf(os.Stderr, "sweepctl: re-sharding %d outstanding points across %d surviving endpoints\n",
				len(missing), len(alive))
		}
		shards := make([][]int, len(alive)) // shard -> global point indices
		for i, gi := range missing {
			shards[i%len(alive)] = append(shards[i%len(alive)], gi)
		}
		survived := make([]bool, len(alive))
		refused := make([]error, len(alive))
		var wg sync.WaitGroup
		for s := range alive {
			if len(shards[s]) == 0 {
				survived[s] = true
				continue
			}
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				survived[s], refused[s] = c.sweepShard(alive[s], round, points, shards[s], results)
			}(s)
		}
		wg.Wait()
		if err := errors.Join(refused...); err != nil {
			return c.failures, err
		}

		var nextAlive []string
		for s, ep := range alive {
			if survived[s] {
				nextAlive = append(nextAlive, ep)
			}
		}
		var nextMissing []int
		for _, gi := range missing {
			if !c.isResolved(gi) {
				nextMissing = append(nextMissing, gi)
			}
		}
		alive, missing = nextAlive, nextMissing
	}
	return c.failures, nil
}

// sweepShard streams one endpoint's shard, resubmitting only the unreceived
// points after every failure, until the shard completes, the server refuses
// it (returned as refused, with no retry), or the endpoint exhausts its
// retry budget.  It reports whether the endpoint survived.
//
// The backoff jitter is drawn from a splitmix64 stream seeded by (endpoint,
// round), so a replayed run backs off identically — failures under the
// fault-injection harness reproduce from their seeds alone.
func (c *client) sweepShard(endpoint string, round int, points []sweep.Point, idxs []int, results []sweep.Result) (survived bool, refused error) {
	rng := prng.SplitMix64{State: prng.Mix64(hash64(endpoint) ^ uint64(round)<<32)}
	pending := append([]int(nil), idxs...)
	for strikes := 0; ; {
		req := &sweepsvc.Request{Scale: c.scale, Quick: c.quick}
		for _, gi := range pending {
			req.Points = append(req.Points, points[gi])
		}
		retryAfter, err := c.streamOnce(endpoint, req, pending, results)
		if errors.Is(err, errRefused) {
			return true, fmt.Errorf("%s: %w", endpoint, err)
		}

		var left []int
		for _, gi := range pending {
			if !c.isResolved(gi) {
				left = append(left, gi)
			}
		}
		pending = left
		if len(pending) == 0 {
			return true, nil
		}
		if err == nil {
			// A cleanly terminated stream that still left rows unaccounted
			// for is a server bug, but retrying is harmless: the points are
			// idempotent.
			err = fmt.Errorf("stream ended with %d rows missing", len(pending))
		}

		strikes++
		if strikes > c.retries {
			fmt.Fprintf(os.Stderr, "sweepctl: %s: dead after %d attempts (%v); abandoning the endpoint\n",
				endpoint, strikes, err)
			return false, nil
		}
		var sleep time.Duration
		if retryAfter > 0 {
			// The server asked for space (429): honor its pacing verbatim.
			sleep = retryAfter
		} else {
			base := c.backoff << (strikes - 1)
			if base <= 0 {
				base = time.Millisecond
			}
			sleep = base + time.Duration(rng.Next()%uint64(base))
		}
		fmt.Fprintf(os.Stderr, "sweepctl: %s: attempt %d failed (%v); resubmitting %d points in %v\n",
			endpoint, strikes, err, len(pending), sleep)
		time.Sleep(sleep)
	}
}

// errRefused marks a 4xx answer other than 429: the server refuses the
// request itself (an invalid point, a limit, an oversized body), so a retry
// or another endpoint would refuse it alike.
var errRefused = errors.New("refused by the server")

// streamOnce submits one shard and decodes its NDJSON event stream. Rows and
// terminal job failures resolve their global point index; a non-nil error
// other than errRefused means the attempt should be retried (with
// retryAfter as the server-imposed pause when it sent one).
func (c *client) streamOnce(endpoint string, req *sweepsvc.Request, pending []int, results []sweep.Result) (retryAfter time.Duration, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Post(strings.TrimSuffix(endpoint, "/")+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		reason := fmt.Sprintf("(%s): %s", resp.Status, strings.TrimSpace(string(msg)))
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			if ra := parseRetryAfter(resp.Header.Get("Retry-After")); ra > 0 {
				return ra, fmt.Errorf("server saturated (429, retry after %v)", ra)
			}
		case resp.StatusCode >= 400 && resp.StatusCode < 500:
			return 0, fmt.Errorf("%w %s", errRefused, reason)
		}
		return 0, fmt.Errorf("server rejected the sweep %s", reason)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var done, total int
	start := time.Now()
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev sweepsvc.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return 0, fmt.Errorf("bad event %q: %w", line, err)
		}
		switch ev.Type {
		case sweepsvc.EventAccepted:
			total = ev.Total
			if c.verbose {
				fmt.Fprintf(os.Stderr, "sweepctl: %s: sweep %s accepted, %d jobs\n", endpoint, ev.SweepID, total)
			}
		case sweepsvc.EventResult:
			if ev.Index < 0 || ev.Index >= len(pending) {
				return 0, fmt.Errorf("event index %d outside the submitted shard of %d", ev.Index, len(pending))
			}
			gi := pending[ev.Index]
			done++
			if ev.Err != "" {
				// A simulation error is terminal: the job is deterministic,
				// so it would fail identically on any endpoint or attempt.
				c.resolve(gi, fmt.Sprintf("point %d (%s/%s): %s",
					gi, req.Points[ev.Index].Workload, req.Points[ev.Index].Scheduler, ev.Err))
				continue
			}
			if ev.Result != nil {
				results[gi] = *ev.Result
				c.resolve(gi, "")
				if c.verbose {
					fmt.Fprintf(os.Stderr, "sweepctl: [%d/%d] %s on %s: %d cycles%s\n",
						done, total, ev.Result.Key, ev.Result.Sim.Config.Name, ev.Result.Sim.Cycles, cachedTag(*ev.Result))
				}
			}
		case sweepsvc.EventCancelled:
			return 0, fmt.Errorf("sweep cancelled server-side after %d of %d rows", done, total)
		case sweepsvc.EventDone:
			if c.verbose && ev.Summary != nil {
				fmt.Fprintf(os.Stderr, "sweepctl: %s: done, %d completed, %d failed, %d dedup hits in %.2fs\n",
					endpoint, ev.Summary.Completed, ev.Summary.Failed, ev.Summary.DedupHits, time.Since(start).Seconds())
			}
			return 0, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("stream broke: %w", err)
	}
	return 0, fmt.Errorf("stream ended without a done event")
}

// resolve marks one global point settled — with a row already written into
// results, or with a terminal failure message.
func (c *client) resolve(gi int, failure string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.resolved[gi] {
		return
	}
	c.resolved[gi] = true
	if failure != "" {
		c.failures = append(c.failures, failure)
	}
}

// isResolved reports whether a global point has settled.
func (c *client) isResolved(gi int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resolved[gi]
}

// parseRetryAfter decodes a Retry-After header's delay-seconds form (the
// only form sweepd and the fault injector emit).
func parseRetryAfter(s string) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// hash64 is FNV-1a, seeding the per-endpoint jitter stream.
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func cachedTag(r sweep.Result) string {
	if r.Cached {
		return " (cached)"
	}
	return ""
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sweepctl: "+format+"\n", args...)
	os.Exit(1)
}
