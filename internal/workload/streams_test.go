package workload

// Stream pins: one line per registered workload at a small fixed
// configuration, folding every task's name, sequential position,
// instruction count, predecessors and reference-stream fingerprint into one
// FNV-64 hash.  They pin each workload's emitted trace against its own
// history, so a change to how streams are generated, stored or replayed that
// moves a single reference or instruction shows up here.
//
// Regenerate with:
//
//	go test ./internal/workload -run TestStreamPins -update-streams

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"cmpsched/internal/dag"
)

var updateStreams = flag.Bool("update-streams", false, "rewrite testdata/streams.txt from the current generators")

const streamsFile = "testdata/streams.txt"

// pinShape is the graph input every kernel is pinned on: small, but with
// multi-level, multi-task structure on a skewed degree distribution.
func pinShape() GraphShape {
	return GraphShape{Family: "rmat", Vertices: 1 << 10, EdgesPerTask: 512}
}

// pinnedWorkloads maps every registered workload name to its small pinned
// instance.
func pinnedWorkloads() map[string]Workload {
	return map[string]Workload{
		"mergesort": NewMergesort(MergesortConfig{Elements: 1 << 14, TaskWorkingSetBytes: 8 << 10}),
		"hashjoin":  NewHashJoin(HashJoinConfig{PartitionBytes: 2 << 20, SubPartitionBytes: 128 << 10, ProbeChunkBytes: 32 << 10}),
		"lu":        NewLU(LUConfig{N: 128, BlockElems: 32}),
		"matmul":    NewMatMul(MatMulConfig{N: 128, BlockElems: 32}),
		"cholesky":  NewCholesky(CholeskyConfig{N: 128, BlockElems: 32}),
		"quicksort": NewQuicksort(QuicksortConfig{Elements: 1 << 14, LeafElems: 1 << 11}),
		"heat":      NewHeat(HeatConfig{Rows: 64, Cols: 64, Steps: 4, RowsPerTask: 16}),

		"bfs":          NewBFS(BFSConfig{Shape: pinShape()}),
		"sssp":         NewSSSP(SSSPConfig{Shape: pinShape(), MaxRounds: 8}),
		"pagerank":     NewPageRank(PageRankConfig{Shape: pinShape(), Iterations: 3}),
		"triangles":    NewTriangles(TrianglesConfig{Shape: pinShape()}),
		"connectivity": NewConnectivity(ConnectivityConfig{Shape: pinShape()}),
		"kcore":        NewKCore(KCoreConfig{Shape: pinShape()}),
		"mis":          NewMIS(MISConfig{Shape: pinShape()}),
		"matching":     NewMatching(MatchingConfig{Shape: pinShape()}),
	}
}

// streamPin renders one workload's pin line.
func streamPin(d *dag.DAG) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, t := range d.Tasks() {
		h.Write([]byte(t.Name))
		h.Write([]byte{0})
		put(uint64(t.Seq))
		put(uint64(t.Instrs))
		put(uint64(len(t.Preds)))
		for _, p := range t.Preds {
			put(uint64(p))
		}
		// refs.FingerprintRefs over the references and the instructions
		// retired after the last one.
		put(t.Refs.Fingerprint())
	}
	return fmt.Sprintf("tasks=%d refs=%d instrs=%d hash=%016x",
		d.NumTasks(), d.TotalRefs(), d.TotalInstrs(), h.Sum64())
}

func computeStreamPins(t *testing.T) map[string]string {
	t.Helper()
	pinned := pinnedWorkloads()
	out := make(map[string]string)
	for _, name := range Names() {
		w, ok := pinned[name]
		if !ok {
			t.Fatalf("registered workload %q has no stream pin configuration", name)
		}
		d, _, err := w.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		out[name] = streamPin(d)
	}
	return out
}

// checkPins compares got, one pin per case name, with the pin file at path;
// with update it rewrites the file instead: header, then one "name\tpin"
// line per case in name order.
func checkPins(t *testing.T, path string, update bool, header string, got map[string]string) {
	t.Helper()
	if update {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		b.WriteString(header)
		for _, name := range names {
			fmt.Fprintf(&b, "%s\t%s\n", name, got[name])
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d pins to %s", len(got), path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read pins (run with the update flag to create them): %v", err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, pin, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("malformed pin line %q in %s", line, path)
		}
		want[name] = pin
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d entries, the test computes %d", path, len(want), len(got))
	}
	for name, wantPin := range want {
		if gotPin, ok := got[name]; !ok {
			t.Errorf("%s: pinned but no longer computed", name)
		} else if gotPin != wantPin {
			t.Errorf("%s:\n  got  %s\n  want %s", name, gotPin, wantPin)
		}
	}
}

func TestStreamPins(t *testing.T) {
	checkPins(t, streamsFile, *updateStreams,
		"# Stream pins: workload -> task count, total refs, total instructions and an FNV-64 over\n"+
			"# every task's name, Seq, Instrs, preds and stream fingerprint; regenerate with\n"+
			"# `go test ./internal/workload -run TestStreamPins -update-streams`.\n",
		computeStreamPins(t))
}
