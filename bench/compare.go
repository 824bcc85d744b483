package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json the comparison reads.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// readSpec reads BENCHMARK.json from the repository root, found from the
// root or from the benchmark's directory.
func readSpec() (spec, error) {
	var s spec
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		if err := json.Unmarshal(data, &s); err != nil {
			return s, fmt.Errorf("%s: %w", path, err)
		}
		return s, nil
	}
	return s, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// readSet reads a recorded set of runs (see -record) into samples per
// "workload mode metric", in recording order.
func readSet(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		mode := "e2e"
		if r.Trace {
			mode = "trace"
		}
		for name, m := range r.Result.Metrics {
			k := r.Workload + " " + mode + " " + name
			out[k] = append(out[k], m.Value)
		}
	}
	return out, sc.Err()
}

// verdict judges set b against set a for one metric.  With a bound it is
// "unresolved" when a's quartile spread is wider than the bound (unless
// every run of b beats every run of a), and "worse" when b's median is worse
// than a's by more than the bound.  It is "better" when b wins at least nine
// tenths of at least ten alternating pairs and the medians differ by more
// than a's quartile spread, and otherwise "within" ("n/a" without a bound).
func verdict(a, b []float64, lowerBetter bool, bound float64, hasBound bool) (string, float64) {
	beats := func(x, y float64) bool { // x reads better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	pairs, wins := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if beats(b[i], a[i]) {
			wins++
		}
	}
	winFrac := float64(wins) / float64(max(pairs, 1))
	ma, mb := median(a), median(b)
	q1, q3 := quartiles(a)
	better := pairs >= 10 && winFrac >= 0.9 && math.Abs(mb-ma) > q3-q1 && beats(mb, ma)
	if !hasBound {
		if better {
			return "better", winFrac
		}
		return "n/a", winFrac
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && beats(x, y)
		}
	}
	worsening := (mb - ma) / ma
	if !lowerBetter {
		worsening = -worsening
	}
	switch {
	case (q3-q1)/math.Abs(ma) > bound && !allBetter:
		return "unresolved", winFrac
	case worsening > bound:
		return "worse", winFrac
	case better:
		return "better", winFrac
	}
	return "within", winFrac
}

// compareSets prints, for every workload, mode and metric both sets
// recorded, each set's median and quartiles, the fraction of alternating
// pairs set B wins, and the verdict; it fails if any metric is worse or
// unresolved.
func compareSets(out io.Writer, pathA, pathB string) error {
	sp, err := readSpec()
	if err != nil {
		return err
	}
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	metrics := map[string]specMetric{}
	for _, m := range append(sp.EndToEnd, sp.PerLayer...) {
		metrics[m.Name] = m
	}
	var keys []string
	for k := range a {
		if len(b[k]) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	fmt.Fprintf(out, "%-46s %12s %12s %12s %12s %12s %12s %6s %5s  %s\n",
		"workload mode metric", "A median", "A q1", "A q3", "B median", "B q1", "B q3", "n", "wins", "verdict")
	bad := 0
	for _, k := range keys {
		name := k[strings.LastIndex(k, " ")+1:]
		m, ok := metrics[name]
		if !ok {
			continue
		}
		va, vb := a[k], b[k]
		if len(va) < 2 || len(vb) < 2 {
			fmt.Fprintf(out, "%-46s too few runs (%d, %d)\n", k, len(va), len(vb))
			continue
		}
		bound := 0.0
		if m.Bound != nil {
			bound = *m.Bound
		}
		v, wins := verdict(va, vb, m.Better == "lower", bound, m.Bound != nil)
		if v == "worse" || v == "unresolved" {
			bad++
		}
		a1, a3 := quartiles(va)
		b1, b3 := quartiles(vb)
		fmt.Fprintf(out, "%-46s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %3d/%-2d %5.2f  %s\n",
			k, median(va), a1, a3, median(vb), b1, b3, len(va), len(vb), wins, v)
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics worse or unresolved", bad)
	}
	return nil
}
