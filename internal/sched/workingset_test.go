package sched

import (
	"testing"

	"cmpsched/internal/dag"
	"cmpsched/internal/profile"
	"cmpsched/internal/refs"
	"cmpsched/internal/workload"
)

// oracleShape is a small graph input with multi-level, multi-task structure.
func oracleShape(family string) workload.GraphShape {
	return workload.GraphShape{Family: family, Vertices: 1 << 10, EdgesPerTask: 512}
}

// oracleWorkloads maps every registered workload name to a small fixed
// instance (graph kernels on RMAT inputs), plus BFS on a uniform input.
func oracleWorkloads() map[string]workload.Workload {
	return map[string]workload.Workload{
		"mergesort": workload.NewMergesort(workload.MergesortConfig{Elements: 1 << 14, TaskWorkingSetBytes: 8 << 10}),
		"hashjoin":  workload.NewHashJoin(workload.HashJoinConfig{PartitionBytes: 2 << 20, SubPartitionBytes: 128 << 10, ProbeChunkBytes: 32 << 10}),
		"lu":        workload.NewLU(workload.LUConfig{N: 128, BlockElems: 32}),
		"matmul":    workload.NewMatMul(workload.MatMulConfig{N: 128, BlockElems: 32}),
		"cholesky":  workload.NewCholesky(workload.CholeskyConfig{N: 128, BlockElems: 32}),
		"quicksort": workload.NewQuicksort(workload.QuicksortConfig{Elements: 1 << 14, LeafElems: 1 << 11}),
		"heat":      workload.NewHeat(workload.HeatConfig{Rows: 64, Cols: 64, Steps: 4, RowsPerTask: 16}),

		"bfs":          workload.NewBFS(workload.BFSConfig{Shape: oracleShape("rmat")}),
		"sssp":         workload.NewSSSP(workload.SSSPConfig{Shape: oracleShape("rmat"), MaxRounds: 8}),
		"pagerank":     workload.NewPageRank(workload.PageRankConfig{Shape: oracleShape("rmat"), Iterations: 3}),
		"triangles":    workload.NewTriangles(workload.TrianglesConfig{Shape: oracleShape("rmat")}),
		"connectivity": workload.NewConnectivity(workload.ConnectivityConfig{Shape: oracleShape("rmat")}),
		"kcore":        workload.NewKCore(workload.KCoreConfig{Shape: oracleShape("rmat")}),
		"mis":          workload.NewMIS(workload.MISConfig{Shape: oracleShape("rmat")}),
		"matching":     workload.NewMatching(workload.MatchingConfig{Shape: oracleShape("rmat")}),

		"bfs/uniform": workload.NewBFS(workload.BFSConfig{Shape: oracleShape("uniform")}),
	}
}

// sharedRecordingDAG builds a fork of tasks several of which carry one
// recording, as PageRank's chunk tasks two iterations apart do.
func sharedRecordingDAG(t *testing.T) *dag.DAG {
	t.Helper()
	d := dag.New("shared-recording")
	root := d.AddComputeTask("root", 1)
	rs, tail := refs.NewScan(0x1000, 8<<10, 40, 1).Emit(nil)
	same, err := refs.NewRecorded(rs, tail)
	if err != nil {
		t.Fatal(err)
	}
	var kids []dag.TaskID
	for i := 0; i < 4; i++ {
		kids = append(kids, d.AddTask("same", same).ID)
	}
	kids = append(kids, d.AddTask("other", &refs.Random{Base: 0x1000, Bytes: 16 << 10, LineBytes: 32, Count: 300, Seed: 7, InstrsPerRef: 2}).ID)
	d.Fork(root.ID, kids...)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, id := range kids[:4] {
		if d.Task(id).Refs != same {
			t.Fatalf("task %d does not carry the shared recording", id)
		}
	}
	return d
}

// checkWorkingSets compares the space-bounded scheduler's per-task working
// sets with the LruTree profiler's single-task groups at one line size.
func checkWorkingSets(t *testing.T, name string, d *dag.DAG, lineBytes int64) {
	t.Helper()
	prof, err := profile.NewLruTree(profile.Config{LineBytes: lineBytes, CacheSizes: []int64{lineBytes}}).ProfileDAG(d)
	if err != nil {
		t.Fatalf("%s: profile: %v", name, err)
	}
	s := NewSpaceBounded()
	s.SetMachine(Machine{Cores: 1, LineBytes: lineBytes, L1Bytes: 1 << 10, L2SliceBytes: 1 << 20, Slices: 1, SliceOfCore: []int{0}})
	s.Reset(d, 1)
	for i := 0; i < d.NumTasks(); i++ {
		id := dag.TaskID(i)
		if want := prof.Group(id, id).WorkingSetBytes; s.ws[i] != want {
			t.Fatalf("%s, %d B lines: task %d (%s) working set = %d, profiler says %d",
				name, lineBytes, i, d.Task(id).Name, s.ws[i], want)
		}
	}
}

// TestSpaceBoundedWorkingSetsMatchProfiler pins sb's working sets to the
// LruTree profiler's on every registered workload, a graph kernel on both
// generator families and a DAG whose tasks share one recording, at a
// power-of-two and a non-power-of-two line size.
func TestSpaceBoundedWorkingSetsMatchProfiler(t *testing.T) {
	ws := oracleWorkloads()
	for _, name := range workload.Names() {
		if _, ok := ws[name]; !ok {
			t.Errorf("workload %q has no oracle instance", name)
		}
	}
	for name, w := range ws {
		d, _, err := w.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		for _, lineBytes := range []int64{128, 96} {
			checkWorkingSets(t, name, d, lineBytes)
		}
	}
	d := sharedRecordingDAG(t)
	for _, lineBytes := range []int64{128, 96} {
		checkWorkingSets(t, "shared-recording", d, lineBytes)
	}
}

// TestLineSetCountsAcrossGenerations checks the distinct-line counter
// directly: a large recording grows the table, and later small recordings
// must not see its lines.
func TestLineSetCountsAcrossGenerations(t *testing.T) {
	record := func(rs []refs.Ref) *refs.Recorded {
		r, err := refs.NewRecorded(rs, 0)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	arena := func(addrs ...uint64) *refs.Recorded {
		out := make([]refs.Ref, len(addrs))
		for i, a := range addrs {
			out[i].Addr = a
		}
		return record(out)
	}
	var ls lineSet
	big := make([]refs.Ref, 5000)
	for i := range big {
		big[i].Addr = uint64(i%3000) * 128
	}
	if got := ls.count(record(big), 128); got != 3000 {
		t.Fatalf("big arena: %d distinct lines, want 3000", got)
	}
	if got := ls.count(arena(0, 127, 128, 0, 255), 128); got != 2 {
		t.Fatalf("small arena: %d distinct lines, want 2", got)
	}
	if got := ls.count(arena(0, 95, 96, 191, 192), 96); got != 3 {
		t.Fatalf("96 B lines: %d distinct lines, want 3", got)
	}
	if got := ls.count(arena(), 128); got != 0 {
		t.Fatalf("empty arena: %d distinct lines, want 0", got)
	}
}
