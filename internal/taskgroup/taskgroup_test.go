package taskgroup

import (
	"testing"

	"cmpsched/internal/dag"
)

// buildSample builds a DAG of 8 tasks and a two-level group tree:
//
//	root (owns 0, 7)
//	├── left  (owns 1, 2, 3)   phase 0
//	└── right                  phase 1
//	    ├── r0 (owns 4, 5)
//	    └── r1 (owns 6)
func buildSample(t *testing.T) (*dag.DAG, *Tree) {
	t.Helper()
	d := dag.New("sample")
	for i := 0; i < 8; i++ {
		d.AddComputeTask("t", 10)
	}
	tr := New("root")
	left := tr.AddChild(nil, "left", "site:a", 100, 0)
	right := tr.AddChild(tr.Root, "right", "site:a", 200, 1)
	r0 := tr.AddChild(right, "r0", "site:b", 50, 0)
	r1 := tr.AddChild(right, "r1", "site:b", 60, 0)
	tr.Own(tr.Root, 0)
	tr.Own(left, 1, 2, 3)
	tr.Own(r0, 4, 5)
	tr.Own(r1, 6)
	tr.Own(tr.Root, 7)
	if err := tr.Finalize(d); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return d, tr
}

func TestFinalizeComputesRanges(t *testing.T) {
	_, tr := buildSample(t)
	if tr.Root.First != 0 || tr.Root.Last != 7 || tr.Root.NumTasks() != 8 {
		t.Fatalf("root range = [%d,%d]", tr.Root.First, tr.Root.Last)
	}
	left := tr.Nodes[1]
	if left.First != 1 || left.Last != 3 || left.NumTasks() != 3 {
		t.Fatalf("left range = [%d,%d]", left.First, left.Last)
	}
	right := tr.Nodes[2]
	if right.First != 4 || right.Last != 6 {
		t.Fatalf("right range = [%d,%d]", right.First, right.Last)
	}
	if tr.NumGroups() != 5 {
		t.Fatalf("NumGroups = %d", tr.NumGroups())
	}
}

func TestLeafAndPhases(t *testing.T) {
	_, tr := buildSample(t)
	if !tr.Nodes[1].IsLeaf() || tr.Nodes[2].IsLeaf() {
		t.Fatalf("IsLeaf wrong")
	}
	phases := tr.Root.ChildrenByPhase()
	if len(phases) != 2 || len(phases[0]) != 1 || phases[0][0].Name != "left" || phases[1][0].Name != "right" {
		t.Fatalf("ChildrenByPhase = %+v", phases)
	}
	if tr.Nodes[3].ChildrenByPhase() != nil {
		t.Fatalf("leaf node should have no phases")
	}
}

func TestWalkPreOrderAndPrune(t *testing.T) {
	_, tr := buildSample(t)
	var names []string
	tr.Walk(func(n *Node) bool {
		names = append(names, n.Name)
		return n.Name != "right" // prune right's children
	})
	want := []string{"root", "left", "right"}
	if len(names) != len(want) {
		t.Fatalf("Walk visited %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Walk visited %v, want %v", names, want)
		}
	}
}

func TestFinalizeRejectsOverlappingSiblings(t *testing.T) {
	d := dag.New("bad")
	for i := 0; i < 4; i++ {
		d.AddComputeTask("t", 1)
	}
	tr := New("root")
	a := tr.AddChild(nil, "a", "", 0, 0)
	b := tr.AddChild(nil, "b", "", 0, 0)
	tr.Own(a, 0, 2)
	tr.Own(b, 1, 3)
	if err := tr.Finalize(d); err == nil {
		t.Fatalf("Finalize accepted overlapping siblings")
	}
}

func TestFinalizeRejectsHoles(t *testing.T) {
	d := dag.New("bad")
	for i := 0; i < 5; i++ {
		d.AddComputeTask("t", 1)
	}
	tr := New("root")
	tr.Own(tr.Root, 0, 4) // hole: tasks 1..3 belong to nobody inside [0,4]
	if err := tr.Finalize(d); err == nil {
		t.Fatalf("Finalize accepted a non-consecutive group")
	}
}

func TestFinalizeRejectsUnknownTask(t *testing.T) {
	d := dag.New("bad")
	d.AddComputeTask("t", 1)
	tr := New("root")
	tr.Own(tr.Root, 0, 99)
	if err := tr.Finalize(d); err == nil {
		t.Fatalf("Finalize accepted unknown task ID")
	}
}

func TestEmptyGroupAllowed(t *testing.T) {
	d := dag.New("tiny")
	d.AddComputeTask("t", 1)
	tr := New("root")
	tr.Own(tr.Root, 0)
	tr.AddChild(nil, "empty", "", 0, 0)
	if err := tr.Finalize(d); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	empty := tr.Nodes[1]
	if empty.NumTasks() != 0 {
		t.Fatalf("empty group NumTasks = %d", empty.NumTasks())
	}
}

func TestAddChildNilParentMeansRoot(t *testing.T) {
	tr := New("root")
	c := tr.AddChild(nil, "c", "", 0, 0)
	if c.Parent != tr.Root {
		t.Fatalf("nil parent should attach to root")
	}
	if len(tr.Root.Children) != 1 {
		t.Fatalf("root has %d children", len(tr.Root.Children))
	}
}
