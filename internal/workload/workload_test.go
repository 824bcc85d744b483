package workload

import (
	"slices"
	"strings"
	"testing"

	"cmpsched/internal/dag"
	"cmpsched/internal/taskgroup"
)

// checkWorkload performs the structural checks every benchmark must satisfy.
func checkWorkload(t *testing.T, w Workload) (*dag.DAG, *taskgroup.Tree) {
	t.Helper()
	d, tree, err := w.Build()
	if err != nil {
		t.Fatalf("%s: Build: %v", w.Name(), err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("%s: invalid DAG: %v", w.Name(), err)
	}
	if _, err := d.TopologicalCheck(); err != nil {
		t.Fatalf("%s: cyclic DAG: %v", w.Name(), err)
	}
	if d.NumTasks() < 2 {
		t.Fatalf("%s: suspiciously small DAG (%d tasks)", w.Name(), d.NumTasks())
	}
	if d.TotalInstrs() <= 0 || d.TotalRefs() <= 0 {
		t.Fatalf("%s: DAG has no work: %+v", w.Name(), d.ComputeStats())
	}
	// Parallelism must exist: depth strictly less than total work.
	if d.Depth() >= d.TotalInstrs() {
		t.Fatalf("%s: no parallelism: depth=%d work=%d", w.Name(), d.Depth(), d.TotalInstrs())
	}
	if tree != nil {
		if tree.Root.First != 0 || int(tree.Root.Last) != d.NumTasks()-1 {
			t.Fatalf("%s: group tree does not cover the DAG: [%d,%d] of %d",
				w.Name(), tree.Root.First, tree.Root.Last, d.NumTasks())
		}
	}
	return d, tree
}

func tinyMergesort() *Mergesort {
	return NewMergesort(MergesortConfig{Elements: 1 << 14, TaskWorkingSetBytes: 8 << 10})
}

func tinyHashJoin() *HashJoin {
	return NewHashJoin(HashJoinConfig{PartitionBytes: 2 << 20, SubPartitionBytes: 128 << 10, ProbeChunkBytes: 32 << 10})
}

func TestAllWorkloadsBuildValidDAGs(t *testing.T) {
	workloads := []Workload{
		tinyMergesort(),
		tinyHashJoin(),
		NewLU(LUConfig{N: 128, BlockElems: 32}),
		NewMatMul(MatMulConfig{N: 128, BlockElems: 32}),
		NewQuicksort(QuicksortConfig{Elements: 1 << 14, LeafElems: 1 << 11}),
		NewHeat(HeatConfig{Rows: 64, Cols: 64, Steps: 4, RowsPerTask: 16}),
	}
	for _, w := range workloads {
		checkWorkload(t, w)
	}
}

func TestNewByNameAndDefaults(t *testing.T) {
	for _, name := range Names() {
		w, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if w.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, w.Name())
		}
	}
	if _, err := New("bogus"); err == nil {
		t.Fatalf("unknown workload accepted")
	}
}

func TestMergesortStructure(t *testing.T) {
	ms := tinyMergesort()
	d, tree := checkWorkload(t, ms)
	// Exactly one root (the top divide) and one sink (the top combine).
	if roots := d.Roots(); len(roots) != 1 {
		t.Fatalf("mergesort roots = %v", roots)
	}
	if sinks := d.Sinks(); len(sinks) != 1 {
		t.Fatalf("mergesort sinks = %v", sinks)
	}
	// Total bytes sorted appear in the top group's parameter (2n rule).
	if got := tree.Root.Children[0].Param; got != float64(2*ms.TotalBytes()) {
		t.Fatalf("top group param = %f, want %f", got, float64(2*ms.TotalBytes()))
	}
	// There must be leaf sort tasks and merge tasks.
	var leaves, merges, divides int
	for _, task := range d.Tasks() {
		switch {
		case strings.HasPrefix(task.Name, "sortleaf"):
			leaves++
		case strings.HasPrefix(task.Name, "merge"):
			merges++
		case strings.HasPrefix(task.Name, "divide"):
			divides++
		}
	}
	if leaves == 0 || merges == 0 || divides == 0 {
		t.Fatalf("mergesort task mix: leaves=%d merges=%d divides=%d", leaves, merges, divides)
	}
	// Every merge level must offer enough parallel tasks.
	cfg := ms.Config()
	if cfg.MergeTasksPerLevel != 64 {
		t.Fatalf("default MergeTasksPerLevel = %d", cfg.MergeTasksPerLevel)
	}
}

func TestMergesortGranularityControlsTaskCount(t *testing.T) {
	coarse := NewMergesort(MergesortConfig{Elements: 1 << 15, TaskWorkingSetBytes: 64 << 10})
	fine := NewMergesort(MergesortConfig{Elements: 1 << 15, TaskWorkingSetBytes: 4 << 10})
	dc, _, err := coarse.Build()
	if err != nil {
		t.Fatal(err)
	}
	df, _, err := fine.Build()
	if err != nil {
		t.Fatal(err)
	}
	if df.NumTasks() <= dc.NumTasks() {
		t.Fatalf("finer tasks should create more tasks: fine=%d coarse=%d", df.NumTasks(), dc.NumTasks())
	}
	// The total data touched is the same order of magnitude: refs may
	// differ by overheads but must not differ wildly.
	ratio := float64(df.TotalRefs()) / float64(dc.TotalRefs())
	if ratio < 0.5 || ratio > 3.0 {
		t.Fatalf("refs changed too much with granularity: fine=%d coarse=%d", df.TotalRefs(), dc.TotalRefs())
	}
}

func TestMergesortLeafWorkingSetMatchesTarget(t *testing.T) {
	ms := NewMergesort(MergesortConfig{Elements: 1 << 16, TaskWorkingSetBytes: 16 << 10})
	d, _, err := ms.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range d.Tasks() {
		if strings.HasPrefix(task.Name, "sortleaf") {
			if task.Param > float64(16<<10) {
				t.Fatalf("leaf %s param %f exceeds the task working-set target", task.Name, task.Param)
			}
		}
	}
}

func TestMergesortRejectsBadConfig(t *testing.T) {
	if _, _, err := NewMergesort(MergesortConfig{Elements: -1}).Build(); err == nil {
		t.Fatalf("negative elements accepted")
	}
	if _, _, err := NewMergesort(MergesortConfig{Elements: 1024, TaskWorkingSetBytes: 64}).Build(); err == nil {
		t.Fatalf("tiny task working set accepted")
	}
}

func TestHashJoinStructure(t *testing.T) {
	hj := tinyHashJoin()
	d, tree := checkWorkload(t, hj)
	if hj.BuildBytes()+hj.ProbeBytes() != hj.Config().PartitionBytes {
		t.Fatalf("partition split inconsistent")
	}
	// Every build record matches 2 probe records -> probe is (about) twice
	// build, up to integer-division rounding of the partition split.
	if diff := hj.ProbeBytes() - 2*hj.BuildBytes(); diff < 0 || diff > 2 {
		t.Fatalf("probe/build ratio: %d vs %d", hj.ProbeBytes(), hj.BuildBytes())
	}
	wantSub := int(hj.SubPartitions())
	var builds, probes int
	for _, task := range d.Tasks() {
		switch {
		case strings.HasPrefix(task.Name, "build-"):
			builds++
		case strings.HasPrefix(task.Name, "probe-"):
			probes++
		}
	}
	if builds != wantSub {
		t.Fatalf("builds = %d, want %d", builds, wantSub)
	}
	if probes <= builds {
		t.Fatalf("fine-grained probe should have multiple tasks per sub-partition: probes=%d builds=%d", probes, builds)
	}
	// Probe tasks depend on their build task.
	for _, task := range d.Tasks() {
		if strings.HasPrefix(task.Name, "probe-") && len(task.Preds) == 0 {
			t.Fatalf("probe task %s has no predecessors", task.Name)
		}
	}
	// Group tree has one group per sub-partition.
	if len(tree.Root.Children) != wantSub {
		t.Fatalf("group tree children = %d, want %d", len(tree.Root.Children), wantSub)
	}
}

func TestHashJoinCoarseGrainedHasOneProbePerSubPartition(t *testing.T) {
	cfg := tinyHashJoin().Config()
	cfg.CoarseGrained = true
	hj := NewHashJoin(cfg)
	d, _, err := hj.Build()
	if err != nil {
		t.Fatal(err)
	}
	var probes int
	for _, task := range d.Tasks() {
		if strings.HasPrefix(task.Name, "probe-") {
			probes++
		}
	}
	if probes != int(hj.SubPartitions()) {
		t.Fatalf("coarse-grained probes = %d, want %d", probes, hj.SubPartitions())
	}
}

func TestLUStructure(t *testing.T) {
	lu := NewLU(LUConfig{N: 128, BlockElems: 32})
	d, _ := checkWorkload(t, lu)
	nb := int64(4)
	var diag, trsm, gemm int64
	for _, task := range d.Tasks() {
		switch {
		case strings.HasPrefix(task.Name, "lu("):
			diag++
		case strings.HasPrefix(task.Name, "trsm"):
			trsm++
		case strings.HasPrefix(task.Name, "gemm"):
			gemm++
		}
	}
	if diag != nb {
		t.Fatalf("diag tasks = %d, want %d", diag, nb)
	}
	var wantTrsm, wantGemm int64
	for k := int64(0); k < nb; k++ {
		wantTrsm += 2 * (nb - k - 1)
		wantGemm += (nb - k - 1) * (nb - k - 1)
	}
	if trsm != wantTrsm || gemm != wantGemm {
		t.Fatalf("trsm=%d (want %d) gemm=%d (want %d)", trsm, wantTrsm, gemm, wantGemm)
	}
	if lu.MatrixBytes() != 128*128*8 {
		t.Fatalf("MatrixBytes = %d", lu.MatrixBytes())
	}
}

func TestLURejectsBadConfig(t *testing.T) {
	if _, _, err := NewLU(LUConfig{N: 100, BlockElems: 32}).Build(); err == nil {
		t.Fatalf("non-multiple N accepted")
	}
	if _, _, err := NewLU(LUConfig{N: -4, BlockElems: 2}).Build(); err == nil {
		t.Fatalf("negative N accepted")
	}
}

func TestMatMulStructure(t *testing.T) {
	mm := NewMatMul(MatMulConfig{N: 128, BlockElems: 32})
	d, _ := checkWorkload(t, mm)
	// 4x4 output blocks plus the start task.
	if d.NumTasks() != 17 {
		t.Fatalf("matmul tasks = %d, want 17", d.NumTasks())
	}
	if _, _, err := NewMatMul(MatMulConfig{N: 100, BlockElems: 32}).Build(); err == nil {
		t.Fatalf("non-multiple N accepted")
	}
}

func TestQuicksortImbalancedSplits(t *testing.T) {
	qs := NewQuicksort(QuicksortConfig{Elements: 1 << 15, LeafElems: 1 << 11})
	d, _ := checkWorkload(t, qs)
	// Find a partition task whose two recursive children differ in size;
	// with splits drawn from [0.25, 0.75] imbalance is near-certain.
	imbalanced := false
	for _, task := range d.Tasks() {
		if !strings.HasPrefix(task.Name, "partition") || len(task.Succs) != 2 {
			continue
		}
		a := d.Task(task.Succs[0]).Param
		b := d.Task(task.Succs[1]).Param
		if a != b {
			imbalanced = true
			break
		}
	}
	if !imbalanced {
		t.Fatalf("quicksort splits look perfectly balanced; expected irregular divide")
	}
	// Determinism: rebuilding produces the identical DAG shape.
	d2, _, err := NewQuicksort(QuicksortConfig{Elements: 1 << 15, LeafElems: 1 << 11}).Build()
	if err != nil {
		t.Fatal(err)
	}
	if d2.NumTasks() != d.NumTasks() || d2.TotalInstrs() != d.TotalInstrs() {
		t.Fatalf("quicksort build is not deterministic")
	}
}

func TestQuicksortRejectsBadSplitRange(t *testing.T) {
	if _, _, err := NewQuicksort(QuicksortConfig{Elements: 1024, MinSplit: 0.9, MaxSplit: 0.1}).Build(); err == nil {
		t.Fatalf("invalid split range accepted")
	}
}

func TestHeatStructure(t *testing.T) {
	h := NewHeat(HeatConfig{Rows: 64, Cols: 64, Steps: 3, RowsPerTask: 16})
	d, tree := checkWorkload(t, h)
	// 4 blocks per step + 1 barrier per step + init task.
	want := 1 + 3*(4+1)
	if d.NumTasks() != want {
		t.Fatalf("heat tasks = %d, want %d", d.NumTasks(), want)
	}
	if len(tree.Root.Children) != 3 {
		t.Fatalf("heat step groups = %d, want 3", len(tree.Root.Children))
	}
	if h.GridBytes() != 64*64*8 {
		t.Fatalf("GridBytes = %d", h.GridBytes())
	}
	if _, _, err := NewHeat(HeatConfig{Rows: -1}).Build(); err == nil {
		t.Fatalf("negative rows accepted")
	}
}

func TestReferenceStreamsAreReplayable(t *testing.T) {
	// The simulator and the profiler read the same recorded streams, so a
	// rebuild must record every task's stream identically.
	build := func() *dag.DAG {
		t.Helper()
		d, _, err := tinyMergesort().Build()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b := build(), build()
	if a.TotalRefs() == 0 {
		t.Fatalf("no task with references found")
	}
	for i, task := range a.Tasks() {
		other := b.Task(dag.TaskID(i)).Refs
		got, _ := task.Refs.Emit(nil)
		want, _ := other.Emit(nil)
		if task.Refs.Tail() != other.Tail() || !slices.Equal(got, want) {
			t.Fatalf("task %d (%s): the rebuild recorded a different stream", i, task.Name)
		}
	}
}

func TestRegistryRejectsBadRegistrations(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate", func() { Register("mergesort", func() Workload { return nil }) })
	mustPanic("empty name", func() { Register("", func() Workload { return nil }) })
	mustPanic("nil factory", func() { Register("x", nil) })
}

func TestUnknownWorkloadErrorListsNames(t *testing.T) {
	_, err := New("bogus")
	if err == nil {
		t.Fatalf("unknown workload accepted")
	}
	for _, name := range []string{"mergesort", "bfs", "pagerank"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}
