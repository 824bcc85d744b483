package dag

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"cmpsched/internal/refs"
)

// buildDiamond builds a 4-task diamond: a -> {b, c} -> d.
func buildDiamond(t *testing.T) (*DAG, []*Task) {
	t.Helper()
	d := New("diamond")
	a := d.AddComputeTask("a", 10)
	b := d.AddComputeTask("b", 20)
	c := d.AddComputeTask("c", 30)
	e := d.AddComputeTask("d", 5)
	d.Fork(a.ID, b.ID, c.ID)
	d.Join(e.ID, b.ID, c.ID)
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return d, []*Task{a, b, c, e}
}

func TestAddTaskAssignsSequentialIDs(t *testing.T) {
	d := New("t")
	for i := 0; i < 5; i++ {
		task := d.AddComputeTask("x", int64(i))
		if int(task.ID) != i || task.Seq != i {
			t.Fatalf("task %d got ID=%d Seq=%d", i, task.ID, task.Seq)
		}
	}
	if d.NumTasks() != 5 {
		t.Fatalf("NumTasks = %d, want 5", d.NumTasks())
	}
}

func TestAddTaskInstrsFromGenerator(t *testing.T) {
	d := New("t")
	task := d.AddTask("scan", &refs.Scan{Base: 0, Bytes: 1024, LineBytes: 64, InstrsPerRef: 4})
	// 16 lines at 4 instructions each, none after the last reference.
	if task.Instrs != 64 || task.Refs.Instrs() != 64 {
		t.Fatalf("Instrs = %d (stream %d), want 64", task.Instrs, task.Refs.Instrs())
	}
	if d.TotalRefs() != 16 {
		t.Fatalf("TotalRefs = %d, want 16", d.TotalRefs())
	}
}

func TestAddEdgeErrors(t *testing.T) {
	d := New("t")
	a := d.AddComputeTask("a", 1)
	b := d.AddComputeTask("b", 1)
	if err := d.AddEdge(a.ID, b.ID); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := d.AddEdge(a.ID, b.ID); err == nil {
		t.Fatalf("duplicate edge accepted")
	}
	if err := d.AddEdge(a.ID, a.ID); err == nil {
		t.Fatalf("self edge accepted")
	}
	if err := d.AddEdge(a.ID, 99); err == nil {
		t.Fatalf("edge to unknown task accepted")
	}
	if err := d.AddEdge(-2, b.ID); err == nil {
		t.Fatalf("edge from unknown task accepted")
	}
}

func TestRootsAndSinks(t *testing.T) {
	d, ts := buildDiamond(t)
	roots := d.Roots()
	if len(roots) != 1 || roots[0] != ts[0].ID {
		t.Fatalf("Roots = %v", roots)
	}
	sinks := d.Sinks()
	if len(sinks) != 1 || sinks[0] != ts[3].ID {
		t.Fatalf("Sinks = %v", sinks)
	}
}

func TestDepthAndWork(t *testing.T) {
	d, _ := buildDiamond(t)
	if got := d.TotalInstrs(); got != 65 {
		t.Fatalf("TotalInstrs = %d, want 65", got)
	}
	// Critical path a(10) -> c(30) -> d(5) = 45.
	if got := d.Depth(); got != 45 {
		t.Fatalf("Depth = %d, want 45", got)
	}
}

func TestDepthEmptyAndSingle(t *testing.T) {
	d := New("empty")
	if d.Depth() != 0 {
		t.Fatalf("empty DAG depth = %d", d.Depth())
	}
	d.AddComputeTask("only", 42)
	if d.Depth() != 42 {
		t.Fatalf("single task depth = %d, want 42", d.Depth())
	}
}

func TestValidateDetectsBackwardEdge(t *testing.T) {
	d := New("bad")
	a := d.AddComputeTask("a", 1)
	b := d.AddComputeTask("b", 1)
	// Force a backwards edge bypassing AddEdge ordering rules.
	bt := d.Task(b.ID)
	at := d.Task(a.ID)
	bt.Succs = append(bt.Succs, a.ID)
	at.Preds = append(at.Preds, b.ID)
	err := d.Validate()
	if err == nil || !errors.Is(err, ErrCycle) {
		t.Fatalf("Validate = %v, want ErrCycle", err)
	}
}

func TestValidateDetectsMissingReverseLink(t *testing.T) {
	d := New("bad")
	a := d.AddComputeTask("a", 1)
	b := d.AddComputeTask("b", 1)
	d.Task(a.ID).Succs = append(d.Task(a.ID).Succs, b.ID) // no Preds update
	if err := d.Validate(); err == nil {
		t.Fatalf("Validate accepted missing reverse link")
	}
}

func TestValidateDetectsInstrsMismatch(t *testing.T) {
	d := New("bad")
	task := d.AddTask("scan", &refs.Scan{Base: 0, Bytes: 256, LineBytes: 64, InstrsPerRef: 2})
	task.Instrs = 999
	if err := d.Validate(); err == nil {
		t.Fatalf("Validate accepted Instrs mismatch")
	}
}

func TestTopologicalCheck(t *testing.T) {
	d, _ := buildDiamond(t)
	n, err := d.TopologicalCheck()
	if err != nil || n != 4 {
		t.Fatalf("TopologicalCheck = (%d, %v)", n, err)
	}
	// Introduce a cycle manually.
	d.Task(3).Succs = append(d.Task(3).Succs, 1)
	d.Task(1).Preds = append(d.Task(1).Preds, 3)
	if _, err := d.TopologicalCheck(); err == nil {
		t.Fatalf("TopologicalCheck missed a cycle")
	}
}

// TestAddTaskRejectsInstrsThatDoNotFit pins that a per-reference
// instruction count a Ref cannot hold fails the build, naming the task,
// instead of wrapping.
func TestAddTaskRejectsInstrsThatDoNotFit(t *testing.T) {
	d := New("t")
	d.AddComputeTask("root", 1)
	d.AddTask("huge", &refs.Scan{Bytes: 256, LineBytes: 64, InstrsPerRef: refs.MaxInstrs + 1})
	err := d.Validate()
	if !errors.Is(err, refs.ErrInstrsRange) || !strings.Contains(err.Error(), `"huge"`) {
		t.Fatalf("Validate = %v, want refs.ErrInstrsRange naming task \"huge\"", err)
	}
}

func TestComputeStats(t *testing.T) {
	d, _ := buildDiamond(t)
	s := d.ComputeStats()
	if s.Tasks != 4 || s.Edges != 4 || s.Roots != 1 || s.Sinks != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxOutDeg != 2 || s.MaxInDeg != 2 {
		t.Fatalf("degree stats = %+v", s)
	}
	if s.Depth != 45 || s.TotalInstrs != 65 {
		t.Fatalf("weight stats = %+v", s)
	}
	if s.String() == "" {
		t.Fatalf("Stats.String empty")
	}
}

func TestTaskLookup(t *testing.T) {
	d, ts := buildDiamond(t)
	if d.Task(ts[1].ID) != ts[1] {
		t.Fatalf("Task lookup mismatch")
	}
	if d.Task(None) != nil || d.Task(100) != nil {
		t.Fatalf("invalid lookups should return nil")
	}
}

// Property: random fork/join DAG construction (children always created
// after parents) always validates and is acyclic; depth <= total work.
func TestPropertyRandomSPDagValid(t *testing.T) {
	f := func(sizes []uint8) bool {
		d := New("prop")
		// Build a random two-level fork-join structure.
		root := d.AddComputeTask("root", 5)
		prev := root.ID
		for _, s := range sizes {
			width := int(s%4) + 1
			children := make([]TaskID, 0, width)
			for i := 0; i < width; i++ {
				c := d.AddComputeTask("c", int64(s%16)+1)
				d.MustEdge(prev, c.ID)
				children = append(children, c.ID)
			}
			join := d.AddComputeTask("join", 1)
			d.Join(join.ID, children...)
			prev = join.ID
		}
		if err := d.Validate(); err != nil {
			return false
		}
		if _, err := d.TopologicalCheck(); err != nil {
			return false
		}
		return d.Depth() <= d.TotalInstrs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
