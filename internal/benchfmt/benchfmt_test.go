package benchfmt

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: cmpsched
cpu: AMD EPYC 7B13
BenchmarkSimulateMergesortPDF  	      30	  37315743 ns/op	  136560 B/op	    2628 allocs/op
BenchmarkSimulateBFSUniformPDF 	      57	  20880773 ns/op	        86.43 L2-MPKI	   26229 B/op	     129 allocs/op
PASS
ok  	cmpsched	12.3s
`

func TestParse(t *testing.T) {
	report, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if report.Goos != "linux" || report.Goarch != "amd64" || report.Pkg != "cmpsched" || report.CPU != "AMD EPYC 7B13" {
		t.Fatalf("header = %+v", report)
	}
	if len(report.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(report.Benchmarks))
	}
	ms := report.Benchmarks[0]
	if ms.Name != "BenchmarkSimulateMergesortPDF" || ms.Iterations != 30 {
		t.Fatalf("benchmark 0 = %+v", ms)
	}
	if ms.Metrics["ns/op"] != 37315743 || ms.Metrics["allocs/op"] != 2628 {
		t.Fatalf("metrics 0 = %+v", ms.Metrics)
	}
	bfs := report.Benchmarks[1]
	if bfs.Metrics["L2-MPKI"] != 86.43 {
		t.Fatalf("custom metric not kept: %+v", bfs.Metrics)
	}
	if !strings.Contains(bfs.Raw, "20880773 ns/op") {
		t.Fatalf("raw line not preserved: %q", bfs.Raw)
	}
}

func TestParseLineRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		"BenchmarkOnlyName",
		"BenchmarkNoIters abc 1 ns/op",
		"BenchmarkOddFields 10 123 ns/op extra",
		"BenchmarkBadValue 10 abc ns/op",
	} {
		if _, ok := ParseLine(line); ok {
			t.Errorf("ParseLine accepted %q", line)
		}
	}
}

// bench builds a one-line report entry for Compare tests.
func bench(name string, ns, allocs float64) Benchmark {
	return Benchmark{Name: name, Metrics: map[string]float64{"ns/op": ns, "allocs/op": allocs}}
}

func TestCompareWithinTolerance(t *testing.T) {
	base := &Report{Benchmarks: []Benchmark{bench("A", 1000, 50), bench("B", 2000, 90)}}
	cand := &Report{Benchmarks: []Benchmark{bench("A", 1090, 50), bench("B", 1800, 88)}}
	findings, regressions := Compare(base, cand, Tolerance{Time: 0.10})
	if regressions != 0 {
		t.Fatalf("regressions = %d, findings %+v", regressions, findings)
	}
	if len(findings) != 2 || findings[0].Name != "A" || findings[1].Name != "B" {
		t.Fatalf("findings = %+v", findings)
	}
}

func TestCompareTimeRegression(t *testing.T) {
	base := &Report{Benchmarks: []Benchmark{bench("A", 1000, 50)}}
	cand := &Report{Benchmarks: []Benchmark{bench("A", 1111, 50)}}
	findings, regressions := Compare(base, cand, Tolerance{Time: 0.10})
	if regressions != 1 || !findings[0].Regression {
		t.Fatalf("+11.1%% time not flagged: %+v", findings)
	}
}

func TestCompareAnyAllocIncreaseFails(t *testing.T) {
	base := &Report{Benchmarks: []Benchmark{bench("A", 1000, 53)}}
	cand := &Report{Benchmarks: []Benchmark{bench("A", 900, 54)}}
	findings, regressions := Compare(base, cand, Tolerance{Time: 0.10})
	if regressions != 1 || !findings[0].Regression {
		t.Fatalf("single alloc increase not flagged: %+v", findings)
	}
	if !strings.Contains(findings[0].Detail, "allocs/op 53 -> 54") {
		t.Fatalf("detail = %q", findings[0].Detail)
	}
}

// benchB builds an entry with a B/op metric for the bytes-band tests.
func benchB(name string, ns, allocs, bytes float64) Benchmark {
	b := bench(name, ns, allocs)
	b.Metrics["B/op"] = bytes
	return b
}

func TestCompareBytesBand(t *testing.T) {
	base := &Report{Benchmarks: []Benchmark{benchB("A", 1000, 50, 10000)}}

	within := &Report{Benchmarks: []Benchmark{benchB("A", 1000, 50, 10900)}}
	if findings, regressions := Compare(base, within, Tolerance{Time: 0.10, Bytes: 0.10}); regressions != 0 {
		t.Fatalf("+9%% bytes flagged inside +10%% band: %+v", findings)
	}

	over := &Report{Benchmarks: []Benchmark{benchB("A", 1000, 50, 11200)}}
	findings, regressions := Compare(base, over, Tolerance{Time: 0.10, Bytes: 0.10})
	if regressions != 1 || !findings[0].Regression {
		t.Fatalf("+12%% bytes not flagged: %+v", findings)
	}
	if !strings.Contains(findings[0].Detail, "B/op 10000 -> 11200") {
		t.Fatalf("detail = %q", findings[0].Detail)
	}

	// Zero band disables the check entirely (historical baselines).
	if findings, regressions := Compare(base, over, Tolerance{Time: 0.10}); regressions != 0 {
		t.Fatalf("bytes check ran with zero band: %+v", findings)
	}
}

func TestCompareBytesRoundingSlack(t *testing.T) {
	// A small baseline whose band lands between integers must not trip on
	// rounding: 45 B/op with a 10% band allows 49.5, and the +0.5 slack lets
	// the integer-reported 50 through.
	base := &Report{Benchmarks: []Benchmark{benchB("A", 1000, 50, 45)}}
	cand := &Report{Benchmarks: []Benchmark{benchB("A", 1000, 50, 50)}}
	if findings, regressions := Compare(base, cand, Tolerance{Time: 0.10, Bytes: 0.10}); regressions != 0 {
		t.Fatalf("sub-byte rounding tripped the band: %+v", findings)
	}
}

func TestCompareMissingAndNewBenchmarks(t *testing.T) {
	base := &Report{Benchmarks: []Benchmark{bench("Gone", 1000, 10)}}
	cand := &Report{Benchmarks: []Benchmark{bench("New", 1000, 10)}}
	findings, regressions := Compare(base, cand, Tolerance{Time: 0.10})
	if regressions != 1 {
		t.Fatalf("missing baseline benchmark not flagged: %+v", findings)
	}
	if len(findings) != 2 {
		t.Fatalf("findings = %+v", findings)
	}
	// Sorted by name: "Gone" (regression) then "New" (informational).
	if !findings[0].Regression || findings[1].Regression {
		t.Fatalf("findings = %+v", findings)
	}
}

// TestCompareMatchesProcsSuffix pins the name matching that lets a baseline
// recorded without the -N GOMAXPROCS suffix gate a multi-CPU run: "A-4"
// stands in for a missing "A", and is still held to the tolerance.
func TestCompareMatchesProcsSuffix(t *testing.T) {
	base := &Report{Benchmarks: []Benchmark{bench("A", 1000, 10), bench("B", 1000, 10)}}
	cand := &Report{Benchmarks: []Benchmark{bench("A-4", 1050, 10), bench("B-4", 1000, 10)}}
	findings, regressions := Compare(base, cand, Tolerance{Time: 0.10})
	if regressions != 0 || len(findings) != 2 {
		t.Fatalf("suffixed candidates did not match the baseline: %+v", findings)
	}
	if findings[0].Name != "A-4" || findings[1].Name != "B-4" {
		t.Fatalf("findings = %+v", findings)
	}
	slow := &Report{Benchmarks: []Benchmark{bench("A-4", 2000, 10), bench("B-4", 1000, 11)}}
	if findings, regressions := Compare(base, slow, Tolerance{Time: 0.10}); regressions != 2 {
		t.Fatalf("suffixed candidates escaped the tolerance: %+v", findings)
	}
}

// TestCompareSuffixDoesNotHideMissing checks that suffix matching only
// pairs a baseline benchmark with its own name: a benchmark truly absent
// from the candidate still fails, and an exact match wins over a suffixed
// one.
func TestCompareSuffixDoesNotHideMissing(t *testing.T) {
	base := &Report{Benchmarks: []Benchmark{bench("Gone", 1000, 10), bench("Kept", 1000, 10)}}
	cand := &Report{Benchmarks: []Benchmark{bench("Gone2-4", 1000, 10), bench("Kept", 1000, 10), bench("Kept-4", 9000, 10)}}
	findings, regressions := Compare(base, cand, Tolerance{Time: 0.10})
	if regressions != 1 {
		t.Fatalf("regressions = %d, want 1 (Gone missing): %+v", regressions, findings)
	}
	for _, f := range findings {
		switch f.Name {
		case "Gone":
			if f.Detail != "missing from candidate run" {
				t.Errorf("Gone: %+v", f)
			}
		case "Gone2-4", "Kept-4":
			if f.Regression || f.Detail != "new benchmark (no baseline)" {
				t.Errorf("%s: %+v", f.Name, f)
			}
		case "Kept":
			if f.Regression {
				t.Errorf("Kept: %+v", f)
			}
		default:
			t.Errorf("unexpected finding %+v", f)
		}
	}
}
