package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"

	"cmpsched/internal/refs"
	"cmpsched/internal/sweep"
)

// Request counts of a grid workload's serve pass: enough to check the rows
// the service streams, or, traced, enough samples for a p99.
const (
	checkRequests = 64
	tailRequests  = 1000
)

// traceChunks is how many untraced and traced chunks a traced service run
// alternates.
const traceChunks = 6

// setupReps is how many times a run repeats its set-up phase; setup_s is
// the median.  Quick runs set up once.
func (b *bench) setupReps() int {
	if b.opts.quick {
		return 1
	}
	return 3
}

// budget is the length of the measured phase.  A traced run alternates
// untraced and traced work within it, so that drift over the run weighs on
// both sides alike.
func (b *bench) budget() time.Duration {
	return time.Duration(b.opts.seconds * float64(time.Second))
}

// another reports whether a phase that started at start and has run done
// repetitions should run one more: always a first one, then only one that,
// at the mean repetition time so far, ends within the budget.
func (b *bench) another(start time.Time, done int) bool {
	if done == 0 {
		return true
	}
	elapsed := time.Since(start)
	return elapsed+elapsed/time.Duration(done) <= b.budget()
}

// runGrid measures a grid workload: cold repetitions of its job list, each
// on a fresh engine over a fresh disk cache, for the run's length; traced,
// each followed by a staged repetition with a span around every layer call.
func (b *bench) runGrid() error {
	o := b.opts
	var jobs []sweep.Job
	var err error
	if o.trace {
		jobs, err = b.w.jobs(o.seed, o.quick)
	} else {
		var setups []float64
		for i := 0; i < b.setupReps() && err == nil; i++ {
			var d time.Duration
			settle()
			jobs, d, err = gridSetup(b.w, o.seed, o.quick)
			setups = append(setups, d.Seconds())
		}
		b.metric("setup_s", "s", median(setups), len(setups))
	}
	if err != nil {
		return err
	}

	var (
		want, got   []row
		first       []sweep.Result
		walls, busy []float64
		staged      []float64
		layers      []map[string]metric
		refsPerRep  int64
		dir         string
	)
	defer func() { os.RemoveAll(dir) }()
	for start := time.Now(); b.another(start, len(walls)); {
		os.RemoveAll(dir)
		if dir, err = b.tempDir("rep"); err != nil {
			return err
		}
		settle()
		cpu0 := cpuTime()
		results, wall, err := engineRep(jobs, dir)
		fmt.Fprintf(b.out, "rep    %-24d wall %.4f s, process CPU %.4f s\n", len(walls)+1, wall.Seconds(), (cpuTime() - cpu0).Seconds())
		b.ran("engine rep", results, err)
		got = rowsOf(jobs, results)
		if want == nil {
			want, first = got, results
		} else {
			n, diff := compareRows(want, got)
			b.check("rep-vs-first-rep", len(want), n, diff)
		}
		var elapsed time.Duration
		refsPerRep = 0
		for _, r := range results {
			elapsed += r.Elapsed
			if r.Sim != nil {
				refsPerRep += r.Sim.Refs
			}
		}
		walls = append(walls, wall.Seconds())
		busy = append(busy, elapsed.Seconds()/(workers*wall.Seconds()))
		if o.trace {
			m, wall, err := b.stagedPass(jobs, want)
			if err != nil {
				return err
			}
			staged = append(staged, wall.Seconds())
			layers = append(layers, m)
		}
	}
	var total float64
	for _, w := range walls {
		total += w
	}
	b.metric("op_latency_ms", "ms", median(walls)*1e3, len(walls))
	b.metric("rows_per_s", "1/s", float64(len(jobs)*len(walls))/total, len(walls))
	b.metric("grid_s", "s", median(walls), len(walls))
	b.metric("sim_mrefs_per_s", "Mref/s", float64(refsPerRep)*float64(len(walls))/total/1e6, len(walls))
	b.metric("sweep.pool_busy_frac", "fraction", median(busy), len(busy))
	b.modelled(jobs, first)
	b.checkPins(want)
	if err := b.checkReread(jobs, dir, want); err != nil {
		return err
	}
	kb, err := entryKB(dir)
	if err != nil {
		return err
	}
	b.metric("sweep.entry_kb", "KB", kb, 1)

	if o.trace {
		for _, name := range perLayer {
			var vs []float64
			var unit string
			for _, m := range layers {
				if v, ok := m[name]; ok {
					vs, unit = append(vs, v.Value), v.Unit
				}
			}
			if len(vs) > 0 {
				b.metric(name, unit, median(vs), len(vs))
			}
		}
		b.metric("trace_overhead_frac", "fraction", median(staged)/median(walls)-1, len(staged))
	}

	// Serve the last repetition's cache through sweepsvc, as a restarted
	// service would: a fresh disk cache over the same directory.
	dc, err := sweep.NewDiskCache(dir)
	if err != nil {
		return err
	}
	var c sweep.Cache = dc
	if o.trace {
		c = timedCache{Cache: dc, tr: b.tr}
	}
	srv, err := startServer(c, expander(jobs), b.tr)
	if err != nil {
		return err
	}
	n := checkRequests
	if o.trace {
		n = tailRequests
	}
	lo := b.mark()
	load := runLoad(srv.url, newServePool(jobs, want, false), o.seed, 0, n, 0, b.tr)
	hi := b.mark()
	if err := srv.close(); err != nil {
		return err
	}
	b.checkLoad("served-rows-vs-cold", load)
	if o.trace {
		return b.serveLayers(lo, hi, load)
	}
	return nil
}

// stagedPass runs one traced staged repetition on a fresh disk cache,
// checks its rows against want and returns its per-layer metrics.
func (b *bench) stagedPass(jobs []sweep.Job, want []row) (map[string]metric, time.Duration, error) {
	dir, err := b.tempDir("staged")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	dc, err := sweep.NewDiskCache(dir)
	if err != nil {
		return nil, 0, err
	}
	settle()
	lo := b.mark()
	results, wall, st, err := stagedRep(jobs, dc, b.tr)
	hi := b.mark()
	b.ran("staged rep", results, err)
	n, diff := compareRows(want, rowsOf(jobs, results))
	b.check("staged-vs-engine", len(want), n, diff)
	m, err := b.simLayers(lo, hi, results, st)
	return m, wall, err
}

// runService measures service-warm: a closed loop of clients against a
// sweepsvc whose disk cache a set-up pass has filled with the pool.
func (b *bench) runService() error {
	o := b.opts
	var (
		last    *warmService
		setups  []float64
		want    []row
		closeMe []*warmService
	)
	defer func() {
		for _, s := range closeMe {
			s.close()
		}
	}()
	reps := b.setupReps()
	if o.trace {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		settle()
		start := time.Now()
		s, err := b.warmService()
		if s != nil {
			closeMe = append(closeMe, s)
		}
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		got := rowsOf(s.jobs, s.results)
		if want == nil {
			want = got
		} else {
			n, diff := compareRows(want, got)
			b.check("setup-vs-first-setup", len(want), n, diff)
		}
		if last != nil {
			if err := last.close(); err != nil {
				return err
			}
		}
		last = s
	}
	if !o.trace {
		b.metric("setup_s", "s", median(setups), len(setups))
	}
	b.checkPins(want)
	pool := newServePool(last.jobs, want, true)

	// Untraced, the clients load the set-up's service for the whole run.
	// Traced, chunks against a plain server over the same warmed cache
	// alternate with chunks against the traced one.
	var load, traced loadStats
	settle()
	if !o.trace {
		load = runLoad(last.srv.url, pool, o.seed, 0, 0, b.budget(), nil)
	} else {
		plain, err := startServer(last.dc, nil, nil)
		if err != nil {
			return err
		}
		defer plain.close()
		if err := plain.healthy(10 * time.Second); err != nil {
			return err
		}
		chunk := b.budget() / (2 * traceChunks)
		lo := b.mark()
		for k := 0; k < traceChunks; k++ {
			load.add(runLoad(plain.url, pool, o.seed, 2*k, 0, chunk, nil))
			// The last traced chunk runs on until the traced requests
			// suffice for a p99.
			need := 0
			if k == traceChunks-1 {
				need = tailRequests - traced.requests
			}
			traced.add(runLoad(last.srv.url, pool, o.seed, 2*k+1, need, chunk, b.tr))
		}
		hi := b.mark()
		b.checkLoad("traced-rows-vs-warm", traced)
		if err := b.serveLayers(lo, hi, traced); err != nil {
			return err
		}
	}
	b.checkLoad("service-rows-vs-warm", load)
	p50, err := percentile(load.latency, 0.5)
	if err != nil {
		return err
	}
	b.metric("op_latency_ms", "ms", p50, len(load.latency))
	b.metric("rows_per_s", "1/s", float64(load.rows)/load.wall.Seconds(), load.requests)
	b.metric("req_per_s", "req/s", float64(len(load.latency))/load.wall.Seconds(), load.requests)
	b.metric("req_p50_ms", "ms", p50, len(load.latency))
	if o.trace {
		tp50, err := percentile(traced.latency, 0.5)
		if err != nil {
			return err
		}
		b.metric("trace_overhead_frac", "fraction", tp50/p50-1, len(traced.latency))
	}
	if p99, err := percentile(load.latency, 0.99); err == nil {
		b.metric("req_p99_ms", "ms", p99, len(load.latency))
	}
	b.modelled(last.jobs, last.results)
	if err := b.checkReread(last.jobs, last.dir, want); err != nil {
		return err
	}
	kb, err := entryKB(last.dir)
	if err != nil {
		return err
	}
	b.metric("sweep.entry_kb", "KB", kb, 1)

	if o.trace {
		results, err := sweep.NewEngine(sweep.EngineOptions{Workers: workers}).Run(last.jobs)
		b.ran("engine pass", results, err)
		n, diff := compareRows(want, rowsOf(last.jobs, results))
		b.check("staged-vs-engine", len(want), n, diff)

		sim, err := b.simLayers(last.lo, last.hi, last.results, last.stats)
		if err != nil {
			return err
		}
		for _, name := range perLayer {
			if m, ok := sim[name]; ok {
				b.metric(name, m.Unit, m.Value, 1)
			}
		}
	}
	// pool_busy_frac is an engine figure; service-warm's engine ran only
	// in set-up, where the pool's jobs kept both workers busy.
	b.metric("sweep.pool_busy_frac", "fraction", last.busy, 1)
	return nil
}

// warmService is a started service over a disk cache holding its pool.
type warmService struct {
	dir     string
	dc      *sweep.DiskCache
	srv     *server
	jobs    []sweep.Job
	results []sweep.Result
	busy    float64

	// Traced set-up: the staged pass's span range and store statistics.
	lo, hi int
	stats  refs.TraceStoreStats
}

// warmService is service-warm's set-up: start the service over a fresh
// disk cache, fill the cache with the pool (on the engine, or traced on the
// staged path), and wait for /healthz to answer 200.
func (b *bench) warmService() (*warmService, error) {
	jobs, err := b.w.jobs(b.opts.seed, b.opts.quick)
	if err != nil {
		return nil, err
	}
	s := &warmService{jobs: jobs}
	if s.dir, err = b.tempDir("pool"); err != nil {
		return nil, err
	}
	if s.dc, err = sweep.NewDiskCache(s.dir); err != nil {
		return s, err
	}
	var c sweep.Cache = s.dc
	if b.tr != nil {
		c = timedCache{Cache: s.dc, tr: b.tr}
	}
	if s.srv, err = startServer(c, nil, b.tr); err != nil {
		return s, err
	}
	var wall time.Duration
	start := time.Now()
	if b.tr == nil {
		s.results, err = sweep.NewEngine(sweep.EngineOptions{Workers: workers, Cache: s.dc}).Run(jobs)
		wall = time.Since(start)
	} else {
		s.lo = b.mark()
		s.results, wall, s.stats, err = stagedRep(jobs, s.dc, b.tr)
		s.hi = b.mark()
	}
	b.ran("warm pool", s.results, err)
	var elapsed time.Duration
	for _, r := range s.results {
		elapsed += r.Elapsed
	}
	s.busy = elapsed.Seconds() / (workers * wall.Seconds())
	return s, s.srv.healthy(10 * time.Second)
}

// close stops the service and removes its cache.
func (s *warmService) close() error {
	var err error
	if s.srv != nil {
		err = s.srv.close()
		s.srv = nil
	}
	os.RemoveAll(s.dir)
	return err
}

// mark delimits a phase of a traced run (0 untraced).
func (b *bench) mark() int {
	if b.tr == nil {
		return 0
	}
	return b.tr.mark()
}

// checkPins compares a run's rows with the pins of its workload and seed.
// Quick runs and unpinned seeds are checked only against each other.
func (b *bench) checkPins(rows []row) {
	if b.opts.quick {
		return
	}
	n, diff, ok := matchPins(b.pins, b.w.name, b.opts.seed, rows)
	if !ok {
		fmt.Fprintf(b.out, "check  %-24s none for seed %d; rows are checked across repetitions and paths\n", "pins", b.opts.seed)
		return
	}
	b.check("pins", len(rows), n, diff)
}

// checkReread re-reads a cache directory through a fresh disk cache and a
// fresh engine: every row must be served from the cache and equal want.
func (b *bench) checkReread(jobs []sweep.Job, dir string, want []row) error {
	dc, err := sweep.NewDiskCache(dir)
	if err != nil {
		return err
	}
	results, err := sweep.NewEngine(sweep.EngineOptions{Workers: workers, Cache: dc}).Run(jobs)
	b.ran("disk re-read", results, err)
	got := rowsOf(jobs, results)
	bad, diff := 0, ""
	for i := range want {
		if results[i].Cached && want[i].same(got[i]) {
			continue
		}
		bad++
		if diff == "" {
			diff = fmt.Sprintf("row %d %s: cached=%t, want %s, got %s", i, want[i].label, results[i].Cached, want[i].fields(), got[i].fields())
		}
	}
	b.check("disk-reread-vs-cold", len(want), bad, diff)
	return nil
}

// checkLoad counts a load's requests and checked rows, and its failures.
func (b *bench) checkLoad(name string, l loadStats) {
	b.check(name, l.requests+l.checked, l.failed, l.firstFailure)
}

// settle collects garbage before a timed phase, so that every set-up and
// repetition starts from the same heap, as it would in a fresh process, and
// neither its time nor the process's peak memory depends on when the
// previous phase's garbage happens to be collected.
func settle() { runtime.GC() }

// cpuTime returns the CPU time the process has used, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// simLayers turns the spans [lo, hi) of one staged pass into per-layer
// metrics: the self time of each layer's calls, summed over the pass, and
// the pass's work counts.  It prints how much of the job spans' time the
// layer spans cover.
func (b *bench) simLayers(lo, hi int, results []sweep.Result, st refs.TraceStoreStats) (map[string]metric, error) {
	spans := b.tr.snapshot()
	self := selfTimes(spans)
	sum := map[string]time.Duration{}
	var jobTime time.Duration
	var puts []float64
	templates := 0
	for i := lo; i < hi; i++ {
		s := spans[i]
		sum[s.name] += self[i]
		switch s.name {
		case "sweep.job":
			jobTime += s.end - s.start
		case "sweep.cache_put":
			puts = append(puts, ms(s.end-s.start))
		case "workload.build":
			templates++
		}
	}
	var simulated int64
	for _, r := range results {
		if r.Sim != nil && !r.Cached {
			simulated += r.Sim.Refs
		}
	}
	put, err := percentile(puts, 0.5)
	if err != nil {
		return nil, fmt.Errorf("sweep.cache_put_ms: %w", err)
	}
	if jobTime <= 0 || simulated == 0 || st.Interned == 0 {
		return nil, fmt.Errorf("staged pass recorded no work")
	}
	fmt.Fprintf(b.out, "trace  layer spans cover %.4f of job time\n", 1-float64(sum["sweep.job"])/float64(jobTime))
	return map[string]metric{
		"workload.build_s":   {sum["workload.build"].Seconds(), "s"},
		"sweep.memo_wait_s":  {sum["sweep.template"].Seconds(), "s"},
		"sweep.templates":    {float64(templates), "count"},
		"dag.record_s":       {sum["dag.record"].Seconds(), "s"},
		"dag.instantiate_s":  {sum["dag.instantiate"].Seconds(), "s"},
		"refs.arena_mb":      {float64(st.ArenaBytes) / (1 << 20), "MB"},
		"refs.unique_frac":   {float64(st.Unique) / float64(st.Interned), "fraction"},
		"sched.reset_s":      {sum["sched.reset"].Seconds(), "s"},
		"cmpsim.loop_s":      {sum["cmpsim.run"].Seconds(), "s"},
		"cmpsim.ns_per_ref":  {float64(sum["cmpsim.run"].Nanoseconds()) / float64(simulated), "ns"},
		"cmpsim.refs":        {float64(simulated), "count"},
		"sweep.cache_put_ms": {put, "ms"},
	}, nil
}

// serveLayers reports the per-layer metrics of a traced serve pass whose
// spans are [lo, hi): the phases' p50s in ms, the requests' p99, and the
// wire and flight counts.
func (b *bench) serveLayers(lo, hi int, l loadStats) error {
	var expand, gets []float64
	for _, s := range b.tr.snapshot()[lo:hi] {
		switch s.name {
		case "sweepsvc.expand":
			expand = append(expand, ms(s.end-s.start))
		case "sweep.cache_get":
			gets = append(gets, ms(s.end-s.start))
		}
	}
	for _, p := range []struct {
		name    string
		samples []float64
		q       float64
	}{
		{"sweepsvc.admit_ms", l.admit, 0.5},
		{"sweepsvc.expand_ms", expand, 0.5},
		{"sweepsvc.stream_ms", l.stream, 0.5},
		{"sweep.cache_get_ms", gets, 0.5},
		{"sweepsvc.req_p99_ms", l.latency, 0.99},
	} {
		v, err := percentile(p.samples, p.q)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		b.metric(p.name, "ms", v, len(p.samples))
	}
	if l.rows == 0 {
		return fmt.Errorf("serve pass streamed no rows")
	}
	b.metric("sweepsvc.bytes_per_row", "B", float64(l.bytes)/float64(l.rows), l.rows)
	b.metric("sweepsvc.dedup_hits", "count", float64(l.dedup), l.requests)
	b.metric("sweepsvc.rejected", "count", float64(l.rejected), l.requests)
	return nil
}

// modelled prints the simulated-clock metrics of a job list's rows.  They
// are exact: a change that only speeds the simulator leaves them
// bit-identical.
func (b *bench) modelled(jobs []sweep.Job, results []sweep.Result) {
	var cycles, l1Hits, l1Acc, l2Miss, instrs, queue, fetches, steals int64
	var util float64
	pdf, ws := map[string]int64{}, map[string]int64{}
	n := 0
	for i, r := range results {
		s := r.Sim
		if s == nil {
			continue
		}
		n++
		cycles += s.Cycles
		l1Hits += s.L1.Hits
		l1Acc += s.L1.Hits + s.L1.Misses
		l2Miss += s.L2.Misses
		instrs += s.Instructions
		fetches += s.Mem.Fetches
		for _, p := range s.MemPorts {
			queue += p.QueueCycles
		}
		steals += s.SchedMetrics["steals"]
		util += s.MemUtilization
		switch jobs[i].Scheduler {
		case "pdf":
			pdf[templateKey(jobs[i].Key)] = s.Cycles
		case "ws":
			ws[templateKey(jobs[i].Key)] = s.Cycles
		}
	}
	var logSum float64
	pairs := 0
	for k, p := range pdf {
		if w, ok := ws[k]; ok && p > 0 {
			logSum += math.Log(float64(w) / float64(p))
			pairs++
		}
	}
	b.metric("cmpsim.cycles", "count", float64(cycles), n)
	b.metric("cache.l1_hit_frac", "fraction", float64(l1Hits)/float64(l1Acc), n)
	b.metric("cache.l2_mpki", "1/kinstr", float64(l2Miss)*1000/float64(instrs), n)
	b.metric("memsys.util", "fraction", util/float64(n), n)
	b.metric("memsys.queue_per_fetch", "cycles", float64(queue)/float64(fetches), n)
	b.metric("sched.steals", "count", float64(steals), n)
	b.metric("model.pdf_over_ws", "ratio", math.Exp(logSum/float64(pairs)), pairs)
}
