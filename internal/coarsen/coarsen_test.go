package coarsen

import (
	"testing"

	"cmpsched/internal/cmpsim"
	"cmpsched/internal/config"
	"cmpsched/internal/dag"
	"cmpsched/internal/profile"
	"cmpsched/internal/sched"
	"cmpsched/internal/taskgroup"
	"cmpsched/internal/workload"
)

// buildProfiledMergesort builds a small Mergesort plus its profile and
// task-group tree.
func buildProfiledMergesort(t *testing.T, elements, taskWS int64) (*dag.DAG, *profile.Profile, *taskgroup.Tree) {
	t.Helper()
	ms := workload.NewMergesort(workload.MergesortConfig{Elements: elements, TaskWorkingSetBytes: taskWS})
	d, tree, err := ms.Build()
	if err != nil {
		t.Fatal(err)
	}
	pr, err := profile.NewLruTree(profile.Config{
		LineBytes:  128,
		CacheSizes: []int64{8 << 10, 32 << 10, 128 << 10, 512 << 10},
	}).ProfileDAG(d)
	if err != nil {
		t.Fatal(err)
	}
	return d, pr, tree
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{CacheSizeBytes: 0, Cores: 4}).Validate(); err == nil {
		t.Fatalf("zero cache accepted")
	}
	if err := (Params{CacheSizeBytes: 1024, Cores: 0}).Validate(); err == nil {
		t.Fatalf("zero cores accepted")
	}
	if (Params{}).slack() != 2 || (Params{SlackFactor: 4}).slack() != 4 {
		t.Fatalf("slack default wrong")
	}
}

func TestCoarsenSelectsSequentialGroups(t *testing.T) {
	d, pr, tree := buildProfiledMergesort(t, 1<<14, 2<<10)
	_ = d
	cacheSize := int64(64 << 10)
	cores := 4
	sel, err := Coarsen(pr, tree, Params{CacheSizeBytes: cacheSize, Cores: cores})
	if err != nil {
		t.Fatalf("Coarsen: %v", err)
	}
	if len(sel.Sequential) == 0 {
		t.Fatalf("coarsening selected nothing on a fine-grained DAG")
	}
	// Every selected group's working set obeys the budget at its parent:
	// the parent's working set W <= K * cache/(2*cores), so in particular
	// each selected child's own working set is below the parent's.
	budget := cacheSize / int64(cores*2)
	for _, id := range sel.Sequential {
		n := tree.Nodes[id]
		parent := n.Parent
		if parent == nil {
			t.Fatalf("root selected as sequential")
		}
		w := pr.GroupOf(parent).WorkingSetBytes
		k := int64(0)
		for _, sib := range parent.ChildrenByPhase() {
			for _, c := range sib {
				if c.Phase == n.Phase {
					k++
				}
			}
		}
		if w > k*budget {
			t.Fatalf("group %q selected although parent working set %d exceeds %d*%d", n.Name, w, k, budget)
		}
	}
	// Selected groups must not be nested in one another.
	for _, a := range sel.Sequential {
		for _, b := range sel.Sequential {
			if a == b {
				continue
			}
			na, nb := tree.Nodes[a], tree.Nodes[b]
			if na.First >= nb.First && na.Last <= nb.Last {
				t.Fatalf("selected group %q nested inside %q", na.Name, nb.Name)
			}
		}
	}
	// The parallelization table has a threshold for the sort site.
	if sel.Threshold("mergesort.go:sort") <= 0 && sel.Threshold("mergesort.go:merge") <= 0 {
		t.Fatalf("no thresholds recorded: %+v", sel.Table)
	}
	if sel.IsSequential(-1) {
		t.Fatalf("IsSequential(-1) should be false")
	}
}

func TestCoarsenLargerCacheMeansCoarserTasks(t *testing.T) {
	_, pr, tree := buildProfiledMergesort(t, 1<<14, 2<<10)
	small, err := Coarsen(pr, tree, Params{CacheSizeBytes: 16 << 10, Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Coarsen(pr, tree, Params{CacheSizeBytes: 1 << 20, Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	smallThresh := small.Threshold("mergesort.go:sort")
	largeThresh := large.Threshold("mergesort.go:sort")
	if largeThresh < smallThresh {
		t.Fatalf("larger cache should allow coarser (>= threshold) tasks: %f vs %f", largeThresh, smallThresh)
	}
	// More cores means finer tasks (smaller per-core budget).
	few, err := Coarsen(pr, tree, Params{CacheSizeBytes: 256 << 10, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	many, err := Coarsen(pr, tree, Params{CacheSizeBytes: 256 << 10, Cores: 16})
	if err != nil {
		t.Fatal(err)
	}
	if many.Threshold("mergesort.go:sort") > few.Threshold("mergesort.go:sort") {
		t.Fatalf("more cores should not coarsen more: %f vs %f",
			many.Threshold("mergesort.go:sort"), few.Threshold("mergesort.go:sort"))
	}
}

func TestCoarsenErrors(t *testing.T) {
	_, pr, tree := buildProfiledMergesort(t, 1<<13, 2<<10)
	if _, err := Coarsen(pr, nil, Params{CacheSizeBytes: 1024, Cores: 2}); err == nil {
		t.Fatalf("nil tree accepted")
	}
	if _, err := Coarsen(pr, tree, Params{}); err == nil {
		t.Fatalf("invalid params accepted")
	}
}

func TestCollapseDAGPreservesWorkAndValidity(t *testing.T) {
	d, pr, tree := buildProfiledMergesort(t, 1<<14, 2<<10)
	sel, err := Coarsen(pr, tree, Params{CacheSizeBytes: 64 << 10, Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := CollapseDAG(d, tree, sel)
	if err != nil {
		t.Fatalf("CollapseDAG: %v", err)
	}
	if coarse.NumTasks() >= d.NumTasks() {
		t.Fatalf("collapse did not reduce task count: %d -> %d", d.NumTasks(), coarse.NumTasks())
	}
	if coarse.TotalInstrs() != d.TotalInstrs() {
		t.Fatalf("total work changed: %d -> %d", d.TotalInstrs(), coarse.TotalInstrs())
	}
	if coarse.TotalRefs() != d.TotalRefs() {
		t.Fatalf("total refs changed: %d -> %d", d.TotalRefs(), coarse.TotalRefs())
	}
	if err := coarse.Validate(); err != nil {
		t.Fatalf("collapsed DAG invalid: %v", err)
	}
	if _, err := coarse.TopologicalCheck(); err != nil {
		t.Fatalf("collapsed DAG cyclic: %v", err)
	}
}

func TestCollapsedDAGSimulatesCorrectly(t *testing.T) {
	d, pr, tree := buildProfiledMergesort(t, 1<<13, 2<<10)
	cfg := config.MustDefault(4).Scaled(256) // tiny caches for a fast run
	sel, err := Coarsen(pr, tree, Params{CacheSizeBytes: cfg.L2.SizeBytes, Cores: cfg.Cores})
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := CollapseDAG(d, tree, sel)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cmpsim.Run(coarse, sched.NewPDF(), cfg)
	if err != nil {
		t.Fatalf("simulating collapsed DAG: %v", err)
	}
	if res.TasksExecuted != coarse.NumTasks() {
		t.Fatalf("collapsed run incomplete")
	}
	// The fine-grained original must also still simulate: the two DAGs
	// share recorded streams, which no run changes.
	if _, err := cmpsim.Run(d, sched.NewPDF(), cfg); err != nil {
		t.Fatalf("simulating original after collapse: %v", err)
	}
}

func TestCollapseDAGErrors(t *testing.T) {
	d, pr, tree := buildProfiledMergesort(t, 1<<13, 2<<10)
	if _, err := CollapseDAG(nil, tree, &Selection{}); err == nil {
		t.Fatalf("nil DAG accepted")
	}
	if _, err := CollapseDAG(d, tree, &Selection{Sequential: []int{9999}}); err == nil {
		t.Fatalf("unknown group accepted")
	}
	// Overlapping selections are rejected: pick a parent and its child.
	var parent, child int = -1, -1
	for _, n := range tree.Nodes {
		if len(n.Children) > 0 && n.Parent != nil && n.Children[0].NumTasks() > 0 {
			parent, child = n.ID, n.Children[0].ID
			break
		}
	}
	if parent >= 0 {
		if _, err := CollapseDAG(d, tree, &Selection{Sequential: []int{parent, child}}); err == nil {
			t.Fatalf("overlapping selection accepted")
		}
	}
	_ = pr
}
