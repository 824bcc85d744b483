package graph

import (
	"strings"
	"testing"

	"cmpsched/internal/dag"
	"cmpsched/internal/refs"
	"cmpsched/internal/taskgroup"
)

// checkKernel performs the structural checks every kernel DAG must satisfy.
func checkKernel(t *testing.T, name string, d *dag.DAG, tree *taskgroup.Tree) {
	t.Helper()
	if err := d.Validate(); err != nil {
		t.Fatalf("%s: invalid DAG: %v", name, err)
	}
	if _, err := d.TopologicalCheck(); err != nil {
		t.Fatalf("%s: cyclic DAG: %v", name, err)
	}
	if d.NumTasks() < 3 {
		t.Fatalf("%s: suspiciously small DAG (%d tasks)", name, d.NumTasks())
	}
	if d.TotalInstrs() <= 0 || d.TotalRefs() <= 0 {
		t.Fatalf("%s: DAG has no work: %+v", name, d.ComputeStats())
	}
	if d.Depth() >= d.TotalInstrs() {
		t.Fatalf("%s: no parallelism: depth=%d work=%d", name, d.Depth(), d.TotalInstrs())
	}
	if tree == nil {
		t.Fatalf("%s: kernel built no task-group tree", name)
	}
	if tree.Root.First != 0 || int(tree.Root.Last) != d.NumTasks()-1 {
		t.Fatalf("%s: group tree covers [%d,%d] of %d tasks",
			name, tree.Root.First, tree.Root.Last, d.NumTasks())
	}
}

func testGraph(t *testing.T, family string) *CSR {
	t.Helper()
	return mustNew(t, Config{Family: family, Vertices: 1 << 10, AvgDegree: 8, Seed: 3})
}

// tinyCosts keeps kernel DAGs small in tests while still multi-task.
func tinyCosts() Costs { return Costs{EdgesPerTask: 512} }

func TestBFSStructure(t *testing.T) {
	g := testGraph(t, FamilyUniform)
	d, tree, err := BFS(g, 0, tinyCosts())
	if err != nil {
		t.Fatal(err)
	}
	checkKernel(t, "bfs", d, tree)
	if roots := d.Roots(); len(roots) != 1 || d.Task(roots[0]).Name != "bfs-init" {
		t.Fatalf("bfs roots = %v", roots)
	}
	if sinks := d.Sinks(); len(sinks) != 1 {
		t.Fatalf("bfs sinks = %v", sinks)
	}
	// One group per BFS level, in phase order.
	levels, _ := bfsLevels(g, 0)
	if len(tree.Root.Children) != len(levels) {
		t.Fatalf("level groups = %d, want %d", len(tree.Root.Children), len(levels))
	}
	for i, c := range tree.Root.Children {
		if c.Phase != i {
			t.Fatalf("level group %d has phase %d", i, c.Phase)
		}
	}
}

func TestBFSGridLevelCountIsManhattanEccentricity(t *testing.T) {
	g := mustNew(t, Config{Family: FamilyGrid, Vertices: 64})
	levels, disc := bfsLevels(g, 0)
	// From corner 0 of an 8x8 lattice the farthest vertex is 14 hops away.
	if len(levels) != 15 {
		t.Fatalf("grid BFS levels = %d, want 15", len(levels))
	}
	var reached int
	for _, f := range levels {
		reached += len(f)
	}
	if reached != 64 {
		t.Fatalf("grid BFS reached %d of 64", reached)
	}
	if disc[0] != -1 {
		t.Fatalf("source has a discovering edge: %d", disc[0])
	}
}

func TestBFSDeterministicRebuild(t *testing.T) {
	g := testGraph(t, FamilyRMAT)
	a, _, err := BFS(g, 0, tinyCosts())
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := BFS(g, 0, tinyCosts())
	if err != nil {
		t.Fatal(err)
	}
	if a.NumTasks() != b.NumTasks() || a.TotalInstrs() != b.TotalInstrs() || a.TotalRefs() != b.TotalRefs() {
		t.Fatalf("BFS rebuild differs: %v vs %v", a.ComputeStats(), b.ComputeStats())
	}
}

func TestBFSRejectsBadSource(t *testing.T) {
	g := testGraph(t, FamilyUniform)
	if _, _, err := BFS(g, -1, Costs{}); err == nil {
		t.Fatalf("negative source accepted")
	}
	if _, _, err := BFS(g, g.N, Costs{}); err == nil {
		t.Fatalf("out-of-range source accepted")
	}
}

func TestGranularityControlsKernelTaskCount(t *testing.T) {
	g := testGraph(t, FamilyUniform)
	coarse, _, err := BFS(g, 0, Costs{EdgesPerTask: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	fine, _, err := BFS(g, 0, Costs{EdgesPerTask: 128})
	if err != nil {
		t.Fatal(err)
	}
	if fine.NumTasks() <= coarse.NumTasks() {
		t.Fatalf("finer grain should create more tasks: fine=%d coarse=%d",
			fine.NumTasks(), coarse.NumTasks())
	}
}

func TestWeightOfIsSymmetricAndBounded(t *testing.T) {
	for u := int64(0); u < 50; u++ {
		for v := u + 1; v < 50; v++ {
			w := WeightOf(u, v, 9, 16)
			if w != WeightOf(v, u, 9, 16) {
				t.Fatalf("asymmetric weight for {%d,%d}", u, v)
			}
			if w < 1 || w > 16 {
				t.Fatalf("weight %d out of [1,16]", w)
			}
		}
	}
}

func TestBellmanFordStructureAndRoundCap(t *testing.T) {
	g := testGraph(t, FamilyUniform)
	d, tree, err := BellmanFord(g, 0, 9, 16, 0, tinyCosts())
	if err != nil {
		t.Fatal(err)
	}
	checkKernel(t, "sssp", d, tree)
	rounds := len(tree.Root.Children)
	levels, _ := bfsLevels(g, 0)
	// Weighted relaxation cannot settle faster than the hop distance.
	if rounds < len(levels)-1 {
		t.Fatalf("sssp rounds = %d, below BFS level count %d", rounds, len(levels))
	}
	capped, treeCapped, err := BellmanFord(g, 0, 9, 16, 3, tinyCosts())
	if err != nil {
		t.Fatal(err)
	}
	checkKernel(t, "sssp-capped", capped, treeCapped)
	if got := len(treeCapped.Root.Children); got != 3 {
		t.Fatalf("capped sssp rounds = %d, want 3", got)
	}
	if capped.NumTasks() >= d.NumTasks() {
		t.Fatalf("capping rounds did not shrink the DAG: %d vs %d", capped.NumTasks(), d.NumTasks())
	}
}

func TestPageRankStructure(t *testing.T) {
	g := testGraph(t, FamilyRMAT)
	const iters = 5
	d, tree, err := PageRank(g, iters, tinyCosts())
	if err != nil {
		t.Fatal(err)
	}
	checkKernel(t, "pagerank", d, tree)
	if len(tree.Root.Children) != iters {
		t.Fatalf("iteration groups = %d, want %d", len(tree.Root.Children), iters)
	}
	// Every iteration has the same chunking, so group sizes match.
	first := tree.Root.Children[0].NumTasks()
	for i, c := range tree.Root.Children {
		if c.NumTasks() != first {
			t.Fatalf("iteration %d has %d tasks, iteration 0 has %d", i, c.NumTasks(), first)
		}
	}
	// Default iteration count kicks in for non-positive requests.
	_, tree8, err := PageRank(g, 0, tinyCosts())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tree8.Root.Children); got != 8 {
		t.Fatalf("default iterations = %d, want 8", got)
	}
}

// TestPageRankSharesRecordingsTwoIterationsApart pins that PageRank records
// each chunk's stream once per parity: from the third iteration on, every
// chunk task carries the very recording of its chunk two iterations back,
// and the first two iterations' recordings are all distinct.
func TestPageRankSharesRecordingsTwoIterationsApart(t *testing.T) {
	g := testGraph(t, FamilyRMAT)
	const iters = 5
	d, tree, err := PageRank(g, iters, tinyCosts())
	if err != nil {
		t.Fatal(err)
	}
	// chunkRecordings returns iteration i's chunk recordings, in chunk
	// order (the group's last task is its barrier).
	chunkRecordings := func(i int) []*refs.Recorded {
		grp := tree.Root.Children[i]
		var out []*refs.Recorded
		for id := grp.First; id < grp.Last; id++ {
			out = append(out, d.Task(id).Refs)
		}
		return out
	}
	seen := make(map[*refs.Recorded]bool)
	for i := 0; i < 2; i++ {
		for _, r := range chunkRecordings(i) {
			if seen[r] {
				t.Fatalf("iteration %d reuses a recording of the first two iterations", i)
			}
			seen[r] = true
		}
	}
	for i := 2; i < iters; i++ {
		back, got := chunkRecordings(i-2), chunkRecordings(i)
		if len(got) != len(back) || len(got) < 2 {
			t.Fatalf("iteration %d has %d chunk tasks, iteration %d has %d", i, len(got), i-2, len(back))
		}
		for ci := range got {
			if got[ci] != back[ci] {
				t.Fatalf("iteration %d chunk %d does not carry iteration %d's recording", i, ci, i-2)
			}
		}
	}
}

func TestTrianglesCountsKnownGraphs(t *testing.T) {
	// A 4-clique has C(4,3) = 4 triangles.
	clique := fromPairs(4, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	clique.Name = "k4"
	d, tree, count, err := Triangles(clique, Costs{EdgesPerTask: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkKernel(t, "triangles-k4", d, tree)
	if count != 4 {
		t.Fatalf("K4 triangles = %d, want 4", count)
	}
	// A lattice is bipartite-free of triangles.
	grid := mustNew(t, Config{Family: FamilyGrid, Vertices: 256})
	_, _, count, err = Triangles(grid, tinyCosts())
	if err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Fatalf("grid triangles = %d, want 0", count)
	}
	// Random graphs at this density contain triangles.
	uni := testGraph(t, FamilyUniform)
	dU, treeU, count, err := Triangles(uni, tinyCosts())
	if err != nil {
		t.Fatal(err)
	}
	checkKernel(t, "triangles-uniform", dU, treeU)
	if count <= 0 {
		t.Fatalf("uniform graph has no triangles")
	}
}

func TestKernelTaskNamesCarryKernelPrefixes(t *testing.T) {
	g := testGraph(t, FamilyUniform)
	d, _, err := BFS(g, 0, tinyCosts())
	if err != nil {
		t.Fatal(err)
	}
	var explore int
	for _, task := range d.Tasks() {
		if strings.HasPrefix(task.Name, "bfs-l") {
			explore++
			if task.Refs == nil || task.Refs.Len() == 0 {
				t.Fatalf("explore task %s has no references", task.Name)
			}
		}
	}
	if explore < 2 {
		t.Fatalf("bfs explore tasks = %d", explore)
	}
}
