// Package benchfmt parses `go test -bench` output into a machine-readable
// report and compares two reports under a regression-tolerance policy.  It is
// the shared core of cmd/benchjson (archive a run as JSON) and cmd/benchgate
// (fail CI when a run regresses past the tolerance band against the
// committed baseline).
package benchfmt

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the full benchmark name including any -cpu suffix (e.g.
	// "BenchmarkSimulateMergesortPDF-8").
	Name string `json:"name"`
	// Iterations is b.N for the reported run.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit -> value for every "<value> <unit>" pair on the
	// line: ns/op, B/op, allocs/op and custom ReportMetric units.
	Metrics map[string]float64 `json:"metrics"`
	// Raw is the original line, for benchstat reconstruction.
	Raw string `json:"raw"`
}

// Report is the document emitted by benchjson and consumed by benchgate.
type Report struct {
	// Timestamp is the UTC generation time (RFC 3339).
	Timestamp string `json:"timestamp"`
	// Goos/Goarch/CPU/Pkg echo the `go test` header lines when present.
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	// Notes carries free-form provenance for the run — what machine it was
	// taken on, what baseline it replaced and why.  It is ignored by Compare.
	Notes string `json:"notes,omitempty"`
	// Benchmarks are the parsed results in input order.
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Parse reads `go test -bench` output, collecting header fields and every
// benchmark result line.
func Parse(r io.Reader) (*Report, error) {
	report := &Report{Timestamp: time.Now().UTC().Format(time.RFC3339)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			report.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			report.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			report.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			report.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := ParseLine(line)
			if ok {
				report.Benchmarks = append(report.Benchmarks, b)
			}
		}
	}
	return report, sc.Err()
}

// ParseLine parses one result line: name, iteration count, then
// "<value> <unit>" pairs.  ok is false for lines that are not complete
// benchmark results (e.g. a bare "BenchmarkFoo" continuation line).
func ParseLine(line string) (b Benchmark, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b = Benchmark{
		Name:       fields[0],
		Iterations: iters,
		Metrics:    make(map[string]float64, (len(fields)-2)/2),
		Raw:        line,
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}

// Tolerance is the regression policy Compare applies per benchmark.
type Tolerance struct {
	// Time is the allowed fractional ns/op increase (0.10 = +10%).  Wall
	// time is noisy, so it gets a band rather than an exact bar.
	Time float64
	// AllocBand is the allowed absolute allocs/op increase.  Allocation
	// counts are deterministic, so the default band of zero fails ANY
	// increase — the policy that protects the simulator's zero-alloc
	// steady state.
	AllocBand float64
	// Bytes is the allowed fractional B/op increase (0.10 = +10%).  Unlike
	// allocation counts, byte totals move with runtime internals (map growth
	// thresholds, stack sizes), so they get a fractional band like time
	// rather than the exact bar — but unlike time they are not noisy, so the
	// band can be tight.  The zero value disables the check, matching the
	// historical policy for baselines captured before byte gating.
	Bytes float64
}

// Finding is one per-benchmark comparison outcome.
type Finding struct {
	// Name is the benchmark compared.
	Name string
	// Regression is true when the candidate breaks the tolerance.
	Regression bool
	// Detail is the human-readable comparison line.
	Detail string
}

// Compare checks every baseline benchmark against the candidate report.  A
// benchmark regresses when its ns/op grows beyond tol.Time, its allocs/op
// grows beyond tol.AllocBand, its B/op grows beyond tol.Bytes (when set), or
// it disappeared from the candidate.
//
// A baseline benchmark matches the candidate of the same name or, failing
// that, the candidates named like it plus the "-N" GOMAXPROCS suffix `go
// test -bench` appends on a multi-CPU machine, so a baseline recorded
// without the suffix gates runs on any core count.
//
// Candidate-only benchmarks are reported as informational findings (new
// benchmarks are not regressions).  Findings are sorted by name; the
// returned count is the number of regressions.
func Compare(baseline, candidate *Report, tol Tolerance) (findings []Finding, regressions int) {
	cand := make(map[string]Benchmark, len(candidate.Benchmarks))
	// suffixed maps a name stripped of its -N suffix to the candidates
	// carrying one.
	suffixed := make(map[string][]string)
	for _, b := range candidate.Benchmarks {
		cand[b.Name] = b
		if stem, ok := trimProcs(b.Name); ok {
			suffixed[stem] = append(suffixed[stem], b.Name)
		}
	}
	for _, base := range baseline.Benchmarks {
		names := []string{base.Name}
		if _, ok := cand[base.Name]; !ok {
			names = suffixed[base.Name]
		}
		matched := false
		for _, name := range names {
			c, ok := cand[name]
			if !ok {
				continue
			}
			matched = true
			delete(cand, name)
			f := compareOne(base, c, tol)
			f.Name = name
			findings = append(findings, f)
		}
		if !matched {
			findings = append(findings, Finding{
				Name:       base.Name,
				Regression: true,
				Detail:     "missing from candidate run",
			})
		}
	}
	for name := range cand {
		findings = append(findings, Finding{
			Name:   name,
			Detail: "new benchmark (no baseline)",
		})
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].Name < findings[j].Name })
	for _, f := range findings {
		if f.Regression {
			regressions++
		}
	}
	return findings, regressions
}

// trimProcs strips a trailing "-N" GOMAXPROCS suffix from a benchmark name,
// reporting whether there was one.
func trimProcs(name string) (string, bool) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name, false
	}
	for _, r := range name[i+1:] {
		if r < '0' || r > '9' {
			return name, false
		}
	}
	return name[:i], true
}

// compareOne applies the tolerance to a single benchmark pair.
func compareOne(base, cand Benchmark, tol Tolerance) Finding {
	var problems []string
	details := make([]string, 0, 2)
	if bt, ok := base.Metrics["ns/op"]; ok {
		ct := cand.Metrics["ns/op"]
		ratio := 0.0
		if bt > 0 {
			ratio = ct/bt - 1
		}
		details = append(details, fmt.Sprintf("time %+.1f%%", ratio*100))
		if ratio > tol.Time {
			problems = append(problems, fmt.Sprintf("ns/op %.0f -> %.0f (%+.1f%% > %+.1f%% band)",
				bt, ct, ratio*100, tol.Time*100))
		}
	}
	if ba, ok := base.Metrics["allocs/op"]; ok {
		ca := cand.Metrics["allocs/op"]
		details = append(details, fmt.Sprintf("allocs %.0f -> %.0f", ba, ca))
		if ca > ba+tol.AllocBand {
			problems = append(problems, fmt.Sprintf("allocs/op %.0f -> %.0f (any increase fails)", ba, ca))
		}
	}
	if bb, ok := base.Metrics["B/op"]; ok && tol.Bytes > 0 {
		cb := cand.Metrics["B/op"]
		ratio := 0.0
		if bb > 0 {
			ratio = cb/bb - 1
		}
		details = append(details, fmt.Sprintf("bytes %+.1f%%", ratio*100))
		// The +0.5 slack keeps sub-byte rounding of tiny baselines from
		// tripping the band.
		if cb > bb*(1+tol.Bytes)+0.5 {
			problems = append(problems, fmt.Sprintf("B/op %.0f -> %.0f (%+.1f%% > %+.1f%% band)",
				bb, cb, ratio*100, tol.Bytes*100))
		}
	}
	if len(problems) > 0 {
		return Finding{Name: base.Name, Regression: true, Detail: strings.Join(problems, "; ")}
	}
	return Finding{Name: base.Name, Detail: strings.Join(details, ", ")}
}
