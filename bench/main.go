// Command bench is the repository's end-to-end benchmark.  It runs one of
// four seeded workloads through the system's public entry points -- the
// sweep engine and its disk cache, and sweepsvc over a loopback HTTP
// listener -- checks every simulated row, and prints each metric by name
// with its unit and sample count.  The last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics: the
// end-to-end metrics, or with -trace 1 the per-layer metrics of a traced
// run.  See README.md.
//
//	go run . -workload paper-fig2 -seed 1 -seconds 30 -trace 0
//	go run . -compare A.ndjson B.ndjson
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cmpsched/internal/sweep"
)

// endToEnd lists the metrics a run prints as its result with -trace 0, and
// perLayer the ones it prints with -trace 1; BENCHMARK.json declares both.
var (
	endToEnd = []string{"setup_s", "rows_per_s", "peak_rss_mb"}
	perLayer = []string{
		"workload.build_s", "sweep.memo_wait_s", "sweep.templates",
		"dag.record_s", "dag.instantiate_s", "refs.arena_mb", "refs.unique_frac",
		"sched.reset_s", "cmpsim.loop_s", "cmpsim.ns_per_ref", "cmpsim.refs",
		"sweep.cache_get_ms", "sweep.cache_put_ms", "sweep.entry_kb", "sweep.pool_busy_frac",
		"sweepsvc.admit_ms", "sweepsvc.expand_ms", "sweepsvc.stream_ms", "sweepsvc.req_p99_ms",
		"sweepsvc.bytes_per_row", "sweepsvc.dedup_hits", "sweepsvc.rejected",
		"trace_overhead_frac",
		"cmpsim.cycles", "cache.l1_hit_frac", "cache.l2_mpki", "memsys.util",
		"memsys.queue_per_fetch", "sched.steals", "model.pdf_over_ws",
	}
)

// options are one run's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool // inputs 16x smaller and one set-up, for the smoke test
	traceOut string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		o         options
		trace     int
		compare   = flag.Bool("compare", false, "compare two recorded sets of runs given as arguments: A B")
		record    = flag.String("record", "", "append this run's result, with its settings and environment, to `file`")
		writePath = flag.String("write-pins", "", "simulate every workload at the pinned seeds and write the pins to `file`")
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: every workload, each in its own process)")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.StringVar(&o.traceOut, "trace-out", "", "Chrome trace file of a traced run (default: in the temporary directory)")
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two files")
			break
		}
		err = compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *writePath != "":
		err = writePins(*writePath)
	case trace != 0 && trace != 1:
		err = fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	case o.seconds <= 0:
		err = fmt.Errorf("-seconds must be positive, got %g", o.seconds)
	case o.workload == "":
		err = runAll(o, trace)
	default:
		o.trace = trace == 1
		var res result
		res, err = runOne(os.Stdout, o)
		if err == nil && *record != "" {
			err = appendRecord(*record, o, res)
		}
		if err == nil && !res.Correct {
			err = errors.New("results are not correct")
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runAll runs every workload in a fresh child process of this binary, one at
// a time, so each process's peak memory belongs to one workload alone.
func runAll(o options, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range workloads {
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, w.name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

// runOne runs one workload, printing its metrics and checks to out and the
// result as the last line.
func runOne(out io.Writer, o options) (result, error) {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return result{}, err
	}
	pins, err := loadPins()
	if err != nil {
		return result{}, err
	}
	tmp, err := os.MkdirTemp("", "cmpbench-*")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(tmp)
	b := &bench{opts: o, w: w, out: out, tmp: tmp, pins: pins, metrics: map[string]metric{}}
	if o.trace {
		b.tr = newTracer()
	}
	fmt.Fprintf(out, "workload %s seed %d seconds %g trace %t quick %t (%d CPUs, GOMAXPROCS %d, %s)\n",
		w.name, o.seed, o.seconds, o.trace, o.quick, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if w.service {
		err = b.runService()
	} else {
		err = b.runGrid()
	}
	if err != nil {
		return result{}, err
	}
	if !o.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return result{}, err
		}
		b.metric("peak_rss_mb", "MB", rss, 1)
	} else {
		path := o.traceOut
		if path == "" {
			path = filepath.Join(os.TempDir(), "cmpbench-trace-"+w.name+".json")
		}
		if err := writeChrome(path, b.tr.snapshot()); err != nil {
			return result{}, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(out, "trace written to %s\n", path)
	}

	if b.attempted == 0 {
		return result{}, errors.New("nothing was attempted")
	}
	b.metric("error_rate", "fraction", float64(b.failed)/float64(b.attempted), int(b.attempted))

	names := endToEnd
	if o.trace {
		names = perLayer
	}
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, name := range names {
		m, ok := b.metrics[name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", name)
		}
		res.Metrics[name] = m
	}
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return res, nil
}

// bench is the state of one run.
type bench struct {
	opts options
	w    workloadDef
	out  io.Writer
	tmp  string
	pins pinsFile
	tr   *tracer // nil unless tracing

	metrics           map[string]metric
	attempted, failed int64
}

// metric prints a metric with its sample count and keeps it for the result.
func (b *bench) metric(name, unit string, v float64, n int) {
	b.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(b.out, "metric %-24s %16.6g %-9s n=%d\n", name, v, unit, n)
}

// check prints a cross-check and counts its comparisons and mismatches.
func (b *bench) check(name string, compared, mismatches int, first string) {
	b.attempted += int64(compared)
	b.failed += int64(mismatches)
	if mismatches == 0 {
		fmt.Fprintf(b.out, "check  %-24s ok (%d compared)\n", name, compared)
		return
	}
	fmt.Fprintf(b.out, "check  %-24s FAILED: %d of %d differ; %s\n", name, mismatches, compared, first)
}

// ran counts a job list's jobs as attempted and those without a result as
// failed.
func (b *bench) ran(phase string, results []sweep.Result, err error) {
	for _, r := range results {
		b.attempted++
		if r.Sim == nil {
			b.failed++
		}
	}
	if err != nil {
		fmt.Fprintf(b.out, "jobs   %-24s FAILED: %v\n", phase, err)
	}
}

// tempDir makes a fresh directory under the run's temporary root.
func (b *bench) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(b.tmp, prefix+"-*")
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// record is one line of a recorded set of runs, read by -compare.
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Env      env     `json:"env"`
	Result   result  `json:"result"`
	Time     string  `json:"time"`
}

// env describes the host a run was measured on.
type env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
}

// hostEnv reads the host description from the runtime and /proc/cpuinfo.
func hostEnv() env {
	e := env{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				e.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return e
}

// appendRecord appends one run to a recorded set.
func appendRecord(path string, o options, res result) error {
	line, err := json.Marshal(record{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Env: hostEnv(), Result: res, Time: time.Now().UTC().Format(time.RFC3339),
	})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
