package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cmpsched/internal/sweep"
)

// TestSmoke runs every workload at quick scale, untraced and traced, and
// checks that each prints exactly the metrics BENCHMARK.json declares for
// the mode, each once and with its declared unit, and that every
// cross-check passes.
func TestSmoke(t *testing.T) {
	sp, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	modes := []struct {
		trace bool
		want  []specMetric
	}{{false, sp.EndToEnd}, {true, sp.PerLayer}}
	for _, w := range workloads {
		for _, mode := range modes {
			var out bytes.Buffer
			res, err := runOne(&out, options{
				workload: w.name, seed: 1, seconds: 0.3, trace: mode.trace, quick: true,
				traceOut: filepath.Join(t.TempDir(), "trace.json"),
			})
			if err != nil {
				t.Fatalf("%s trace=%t: %v\n%s", w.name, mode.trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d\n%s", w.name, mode.trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace=%t: last line is not the result: %v", w.name, mode.trace, err)
			}
			if len(last.Metrics) != len(mode.want) {
				t.Errorf("%s trace=%t: result has %d metrics, BENCHMARK.json declares %d", w.name, mode.trace, len(last.Metrics), len(mode.want))
			}
			for _, m := range mode.want {
				got, ok := last.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%t: metric %s = %+v, want a number in %s", w.name, mode.trace, m.Name, got, m.Unit)
				}
				printed := 0
				for _, l := range lines {
					f := strings.Fields(l)
					if len(f) >= 4 && f[0] == "metric" && f[1] == m.Name {
						printed++
						if f[3] != m.Unit {
							t.Errorf("%s trace=%t: %s printed in %s, want %s", w.name, mode.trace, m.Name, f[3], m.Unit)
						}
					}
				}
				if printed != 1 {
					t.Errorf("%s trace=%t: %s printed %d times, want once", w.name, mode.trace, m.Name, printed)
				}
			}
		}
	}
}

// TestSpecMatchesProgram checks that BENCHMARK.json declares exactly the
// metrics the program reports, in its order; TestSmoke checks their units.
func TestSpecMatchesProgram(t *testing.T) {
	sp, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layer []string
	for _, m := range sp.EndToEnd {
		e2e = append(e2e, m.Name)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s has bound %v", m.Name, m.Bound)
		}
	}
	for _, m := range sp.PerLayer {
		layer = append(layer, m.Name)
	}
	if strings.Join(e2e, " ") != strings.Join(endToEnd, " ") {
		t.Errorf("end-to-end metrics: BENCHMARK.json %v, program %v", e2e, endToEnd)
	}
	if strings.Join(layer, " ") != strings.Join(perLayer, " ") {
		t.Errorf("per-layer metrics: BENCHMARK.json %v, program %v", layer, perLayer)
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "job", parent: -1, start: 0, end: 100 * ms},
		{name: "a", parent: 0, start: 10 * ms, end: 40 * ms},
		{name: "b", parent: 0, start: 30 * ms, end: 60 * ms},  // overlaps a
		{name: "c", parent: 0, start: 90 * ms, end: 120 * ms}, // outlives job
		{name: "d", parent: 1, start: 20 * ms, end: 25 * ms},  // a's child
		{name: "open", parent: 0, start: 95 * ms, end: -1},    // never ended
	}
	got := selfTimes(spans)
	want := []time.Duration{40 * ms, 25 * ms, 30 * ms, 30 * ms, 5 * ms, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].name, got[i], want[i])
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1)
		}
		return xs
	}
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Error("p99 of 999 samples accepted")
	}
	if v, err := percentile(seq(1000), 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(seq(19), 0.5); err == nil {
		t.Error("p50 of 19 samples accepted")
	}
	if v, err := percentile(seq(20), 0.5); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestSeedPlumbing checks that the seed reaches the graph and Hash Join
// inputs, and nothing else: seeds 1 and 2 give different keys for those
// jobs but identical Mergesort and LU rows.
func TestSeedPlumbing(t *testing.T) {
	jobsAt := func(w workloadDef, seed uint64) []sweep.Job {
		js, err := w.jobs(seed, true)
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	for _, name := range []string{"paper-fig2", "graph-irregular", "sched-topology"} {
		w, err := lookupWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		one, two := jobsAt(w, 1), jobsAt(w, 2)
		var fixed1, fixed2 []sweep.Job
		for i := range one {
			seeded := one[i].Key.Workload != "mergesort" && one[i].Key.Workload != "lu"
			if seeded == (one[i].Key == two[i].Key) {
				t.Errorf("%s job %d (%s): seeded=%t but keys equal=%t", name, i, one[i].Key, seeded, one[i].Key == two[i].Key)
			}
			if !seeded {
				fixed1, fixed2 = append(fixed1, one[i]), append(fixed2, two[i])
			}
		}
		if len(fixed1) == 0 {
			continue
		}
		r1, err := sweep.NewEngine(sweep.EngineOptions{Workers: workers}).Run(fixed1)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := sweep.NewEngine(sweep.EngineOptions{Workers: workers}).Run(fixed2)
		if err != nil {
			t.Fatal(err)
		}
		if n, diff := compareRows(rowsOf(fixed1, r1), rowsOf(fixed2, r2)); n != 0 {
			t.Errorf("%s: %d unseeded rows differ between seeds: %s", name, n, diff)
		}
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + by
		}
		return out
	}
	for _, c := range []struct {
		name  string
		b     []float64
		lower bool
		bound float64
		want  string
	}{
		{"same", a, true, 0.1, "within"},
		{"slower", shift(a, 20), true, 0.1, "worse"},
		{"faster", shift(a, -10), true, 0.1, "better"},
		{"higher is better", shift(a, -20), false, 0.1, "worse"},
		{"spread wider than bound", a, true, 0.01, "unresolved"},
		{"every run better despite spread", shift(a, -30), true, 0.01, "better"},
	} {
		if got, _ := verdict(a, c.b, c.lower, c.bound, true); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
