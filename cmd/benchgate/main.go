// Command benchgate compares a candidate benchmark report against a baseline
// and fails (exit 1) on regressions, making the benchmark harness a CI gate
// rather than a passive archive.
//
// Usage:
//
//	make bench-gate
//	benchgate -baseline BENCH_simulator.json -candidate new.json
//	benchgate -baseline BENCH_simulator.json -candidate new.json -time-tolerance 0.25
//
// Both inputs are benchjson reports (internal/benchfmt).  The policy: a
// benchmark regresses when its ns/op grows more than the time tolerance
// (default +10%), when its B/op grows more than the bytes tolerance (default
// +10% — byte totals track runtime internals like map growth, so they get a
// band, but a tight one because they are not noisy), when its allocs/op
// increases AT ALL (allocation counts are deterministic, so any increase is a
// real regression — this is the bar that protects the simulator's zero-alloc
// steady state), or when it disappears from the candidate run.  A baseline
// name without the "-N" GOMAXPROCS suffix matches the candidate that has
// one, so a baseline recorded without suffixes gates multi-CPU runs.
// New candidate-only benchmarks are reported but do not fail the gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"cmpsched/internal/benchfmt"
)

func main() {
	var (
		baselinePath   = flag.String("baseline", "BENCH_simulator.json", "baseline benchjson report")
		candidatePath  = flag.String("candidate", "", "candidate benchjson report (required)")
		timeTolerance  = flag.Float64("time-tolerance", 0.10, "allowed fractional ns/op increase (0.10 = +10%)")
		bytesTolerance = flag.Float64("bytes-tolerance", 0.10, "allowed fractional B/op increase (0 disables the check)")
	)
	flag.Parse()
	if *candidatePath == "" {
		fatal(fmt.Errorf("-candidate is required"))
	}

	baseline, err := load(*baselinePath)
	if err != nil {
		fatal(err)
	}
	candidate, err := load(*candidatePath)
	if err != nil {
		fatal(err)
	}

	tol := benchfmt.Tolerance{Time: *timeTolerance, Bytes: *bytesTolerance}
	findings, regressions := benchfmt.Compare(baseline, candidate, tol)
	for _, f := range findings {
		status := "ok  "
		if f.Regression {
			status = "FAIL"
		}
		fmt.Printf("%s %-45s %s\n", status, f.Name, f.Detail)
	}
	policy := fmt.Sprintf("time +%.0f%%, bytes +%.0f%%, allocs +0", *timeTolerance*100, *bytesTolerance*100)
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d of %d benchmarks regressed beyond tolerance (%s)\n",
			regressions, len(baseline.Benchmarks), policy)
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d benchmarks within tolerance (%s)\n", len(baseline.Benchmarks), policy)
}

// load reads one benchjson report.
func load(path string) (*benchfmt.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r benchfmt.Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks in report", path)
	}
	return &r, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
