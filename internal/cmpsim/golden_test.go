package cmpsim_test

// Golden cycle-for-cycle equivalence tests for the event engine.
//
// The simulator's inner loop has been rewritten for throughput (typed event
// heap, same-core lookahead, batched reference streams); these tests pin the
// engine's observable output — cycles, every cache/memory counter, per-slice
// and per-task accounting — to fingerprints captured from the pre-refactor
// engine, across schedulers x cache topologies x regular/irregular
// workloads.  Any timing or accounting divergence, however small, shows up
// as a fingerprint mismatch.
//
// Regenerate with:
//
//	go test ./internal/cmpsim -run TestGoldenEngineEquivalence -update-golden

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"cmpsched/internal/cache"
	"cmpsched/internal/cmpsim"
	"cmpsched/internal/config"
	"cmpsched/internal/dag"
	"cmpsched/internal/sched"
	"cmpsched/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_engine.txt from the current engine")

const goldenFile = "testdata/golden_engine.txt"

// goldenWorkloads are the DAG builders the engine is pinned on: one regular
// divide-and-conquer benchmark and one irregular graph kernel, both small
// enough that the full matrix runs in seconds.
func goldenWorkloads() []struct {
	name  string
	build func() (*dag.DAG, error)
} {
	return []struct {
		name  string
		build func() (*dag.DAG, error)
	}{
		{"mergesort", func() (*dag.DAG, error) {
			d, _, err := workload.NewMergesort(workload.MergesortConfig{
				Elements: 32 << 10, TaskWorkingSetBytes: 4 << 10,
			}).Build()
			return d, err
		}},
		{"bfs-uniform", func() (*dag.DAG, error) {
			d, _, err := workload.NewBFS(workload.BFSConfig{
				Shape: workload.GraphShape{Family: "uniform", Vertices: 1 << 12, EdgesPerTask: 512},
			}).Build()
			return d, err
		}},
		{"connectivity-rmat", func() (*dag.DAG, error) {
			d, _, err := workload.NewConnectivity(workload.ConnectivityConfig{
				Shape: workload.GraphShape{Family: "rmat", Vertices: 1 << 12, EdgesPerTask: 512},
			}).Build()
			return d, err
		}},
		{"kcore-uniform", func() (*dag.DAG, error) {
			d, _, err := workload.NewKCore(workload.KCoreConfig{
				Shape: workload.GraphShape{Family: "uniform", Vertices: 1 << 12, EdgesPerTask: 512},
			}).Build()
			return d, err
		}},
		{"mis-rmat", func() (*dag.DAG, error) {
			d, _, err := workload.NewMIS(workload.MISConfig{
				Shape: workload.GraphShape{Family: "rmat", Vertices: 1 << 12, EdgesPerTask: 512},
			}).Build()
			return d, err
		}},
		{"matching-uniform", func() (*dag.DAG, error) {
			d, _, err := workload.NewMatching(workload.MatchingConfig{
				Shape: workload.GraphShape{Family: "uniform", Vertices: 1 << 12, EdgesPerTask: 512},
			}).Build()
			return d, err
		}},
	}
}

// goldenTopologies is the cache-topology axis of the pinning matrix.
func goldenTopologies() map[string]cache.Topology {
	return map[string]cache.Topology{
		"shared":      cache.Shared(),
		"private":     cache.Private(),
		"clustered-4": cache.Clustered(4),
	}
}

// fingerprint folds every observable field of a result into one line:
// headline counters verbatim, bulky per-slice / per-core / per-task arrays
// as an FNV-1a hash so mismatches are detected without storing megabytes.
func fingerprint(r *cmpsim.Result) string {
	h := fnv.New64a()
	for _, s := range r.L2Slices {
		fmt.Fprintf(h, "s:%+v;", s)
	}
	for _, p := range r.MemPorts {
		fmt.Fprintf(h, "p:%+v;", p)
	}
	for _, b := range r.CoreBusyCycles {
		fmt.Fprintf(h, "b:%d;", b)
	}
	for _, ts := range r.TaskStats {
		fmt.Fprintf(h, "t:%+v;", ts)
	}
	return fmt.Sprintf("cycles=%d instrs=%d refs=%d l1=%+v l2=%+v mem=%+v tasks=%d detail=%016x",
		r.Cycles, r.Instructions, r.Refs, r.L1, r.L2, r.Mem, r.TasksExecuted, h.Sum64())
}

// computeGoldens runs the full pinning matrix and returns name->fingerprint.
func computeGoldens(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, w := range goldenWorkloads() {
		for topoName, topo := range goldenTopologies() {
			for _, schedName := range sched.Names() {
				cfg, err := config.Default(8)
				if err != nil {
					t.Fatalf("config: %v", err)
				}
				cfg = cfg.Scaled(config.DefaultScale * 8).WithTopology(topo)
				d, err := w.build()
				if err != nil {
					t.Fatalf("%s: build: %v", w.name, err)
				}
				s, err := sched.New(schedName)
				if err != nil {
					t.Fatalf("sched: %v", err)
				}
				res, err := cmpsim.Run(d, s, cfg)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", w.name, topoName, schedName, err)
				}
				out[fmt.Sprintf("%s/%s/%s/p8", w.name, topoName, schedName)] = fingerprint(res)
			}
		}
		// One-core sequential baseline (exercises the p=1 event path).
		cfg, err := config.Default(8)
		if err != nil {
			t.Fatalf("config: %v", err)
		}
		cfg = cfg.Scaled(config.DefaultScale * 8)
		d, err := w.build()
		if err != nil {
			t.Fatalf("%s: build: %v", w.name, err)
		}
		res, err := cmpsim.RunSequential(d, cfg)
		if err != nil {
			t.Fatalf("%s/seq: %v", w.name, err)
		}
		out[fmt.Sprintf("%s/shared/seq/p1", w.name)] = fingerprint(res)
	}
	return out
}

func readGoldens(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("open goldens (run with -update-golden to create): %v", err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, fp, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		out[name] = fp
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read goldens: %v", err)
	}
	return out
}

func writeGoldens(t *testing.T, goldens map[string]string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(goldens))
	for name := range goldens {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("# Engine equivalence fingerprints: workload/topology/scheduler/cores -> result fingerprint.\n")
	b.WriteString("# Captured from the pre-refactor (container/heap, per-ref dispatch) engine; regenerate\n")
	b.WriteString("# with `go test ./internal/cmpsim -run TestGoldenEngineEquivalence -update-golden`.\n")
	for _, name := range names {
		fmt.Fprintf(&b, "%s\t%s\n", name, goldens[name])
	}
	if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenEngineEquivalence(t *testing.T) {
	got := computeGoldens(t)
	if *updateGolden {
		writeGoldens(t, got)
		t.Logf("wrote %d golden fingerprints to %s", len(got), goldenFile)
		return
	}
	want := readGoldens(t)
	if len(want) != len(got) {
		t.Errorf("golden file has %d entries, matrix produced %d", len(want), len(got))
	}
	for name, wantFP := range want {
		gotFP, ok := got[name]
		if !ok {
			t.Errorf("%s: missing from current matrix", name)
			continue
		}
		if gotFP != wantFP {
			t.Errorf("%s:\n  got  %s\n  want %s", name, gotFP, wantFP)
		}
	}
}
