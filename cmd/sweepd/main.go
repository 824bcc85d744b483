// Command sweepd serves the sweep engine over HTTP: clients submit
// declarative design-space grids (or explicit point lists) and stream back
// per-job result rows as the simulations finish.  Concurrent clients whose
// grids overlap share work — each distinct sweep key simulates at most once,
// served by single-flight deduplication and the shared result cache.
//
// Usage:
//
//	sweepd                                        # serve on 127.0.0.1:8357
//	sweepd -addr :8357 -workers 8                 # public, bounded parallelism
//	sweepd -cache-dir /var/cache/sweep            # persistent cross-run cache
//	sweepd -max-queue 256 -retry-after 5s         # admission control tuning
//	sweepd -job-timeout 5m                        # bound runaway simulations
//	sweepd -fault-inject seed=7,429=0.2,drop=0.1  # chaos-test the data path
//	sweepd -list                                  # axis values clients may use
//
// A fleet of sweepd instances may share one -cache-dir: the cache is wrapped
// in crash-safe per-key leases (sweep.LeasedCache), so overlapping grids
// submitted to different instances simulate each distinct key once
// fleet-wide, and a killed instance's leases pass to survivors at once.
// -fault-inject arms the deterministic HTTP fault harness
// (internal/faultinject) on the data path only — /healthz and /metrics stay
// clean — for rehearsing client retry/failover without real failures.
//
// Endpoints: POST /sweeps (submit, streams NDJSON or SSE), GET and DELETE
// /sweeps/{id} (status, cancel), GET /metrics, GET /healthz.  On SIGINT or
// SIGTERM the server drains: admission stops (503 + Retry-After, /healthz
// flips to 503 so load balancers rotate it out), the backlog finishes
// streaming, then the process exits cleanly.  -drain-timeout bounds the
// drain; on expiry remaining sweeps are cancelled.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cmpsched/internal/faultinject"
	"cmpsched/internal/obs"
	"cmpsched/internal/sweep"
	"cmpsched/internal/sweepsvc"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8357", "listen address")
		workers      = flag.Int("workers", 0, "max concurrent simulations (0 = one per host CPU)")
		maxQueue     = flag.Int("max-queue", 0, "max admitted-but-unstarted jobs across all sweeps (0 = default)")
		maxSweeps    = flag.Int("max-sweeps", 0, "max concurrently active sweeps (0 = default)")
		maxJobs      = flag.Int("max-jobs", 0, "max jobs in one submission (0 = default)")
		retryAfter   = flag.Duration("retry-after", 0, "Retry-After hint on saturated rejections (0 = default)")
		cacheDir     = flag.String("cache-dir", "", "directory for the persistent result cache (empty = in-memory only)")
		jobTimeout   = flag.Duration("job-timeout", 10*time.Minute, "per-job simulation wall-clock bound; an exceeding job fails as one row instead of wedging a worker (0 = unbounded)")
		reqTimeout   = flag.Duration("request-timeout", 30*time.Second, "limit on reading a request's headers and body (result streams are unbounded)")
		faultSpec    = flag.String("fault-inject", "", "arm the deterministic HTTP fault harness on the data path, e.g. seed=7,429=0.2,503=0.1,drop=0.1,latency=10ms (dev/chaos use)")
		drainTimeout = flag.Duration("drain-timeout", time.Minute, "max time to finish the backlog on SIGTERM before cancelling it")
		list         = flag.Bool("list", false, "print the workloads, schedulers, topologies and tables clients may submit, then exit")
	)
	flag.Parse()

	if *list {
		sweep.WriteAxes(os.Stdout)
		return
	}

	faults, err := faultinject.ParseHTTPFaults(*faultSpec)
	if err != nil {
		log.Fatalf("sweepd: bad -fault-inject: %v", err)
	}

	// One shared registry so the service, engine and lease metrics all land
	// on /metrics.
	reg := obs.NewRegistry()
	var cache sweep.Cache
	if *cacheDir != "" {
		dc, err := sweep.NewDiskCacheWith(*cacheDir, sweep.DiskCacheOptions{Logf: log.Printf})
		if err != nil {
			log.Fatalf("sweepd: %v", err)
		}
		// Leases make the cache directory safely shareable with other
		// sweepd instances: each distinct key simulates once fleet-wide,
		// and a crashed holder's leases die with it.  cmd/sweep takes no
		// leases, so a CLI run on the same directory may repeat a
		// simulation the fleet is running.
		cache = sweep.NewLeasedCache(dc, sweep.LeaseOptions{Metrics: reg, Logf: log.Printf})
	}
	svc := sweepsvc.NewService(sweepsvc.Options{
		Workers:         *workers,
		MaxQueue:        *maxQueue,
		MaxSweeps:       *maxSweeps,
		MaxJobsPerSweep: *maxJobs,
		RetryAfter:      *retryAfter,
		Cache:           cache,
		Metrics:         reg,
		JobTimeout:      *jobTimeout,
	})
	h := sweepsvc.NewHandler(svc)
	h.Logf = log.Printf

	var handler http.Handler = h
	if faults.Enabled() {
		faults.Logf = log.Printf
		handler = faults.Wrap(handler)
		log.Printf("sweepd: fault injection armed: %s", *faultSpec)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("sweepd: %v", err)
	}
	server := &http.Server{Handler: handler, ReadTimeout: *reqTimeout}
	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(ln) }()
	log.Printf("sweepd: listening on http://%s", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		log.Fatalf("sweepd: serve: %v", err)
	}
	stop() // a second signal kills the process immediately

	// Drain before Shutdown: admission flips to 503 at once (new clients are
	// turned away, /healthz rotates us out of load balancers) while admitted
	// sweeps finish streaming; Shutdown then waits for those streams'
	// connections to close.
	log.Printf("sweepd: draining (timeout %s)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := svc.Drain(drainCtx); err != nil {
		log.Printf("sweepd: drain expired, remaining sweeps cancelled: %v", err)
	}
	if err := server.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("sweepd: shutdown: %v", err)
	}
	log.Printf("sweepd: drained, exiting")
}
