package sched

import (
	"testing"

	"cmpsched/internal/dag"
)

// chainDAG builds a DAG with a root that fans out to n independent tasks.
func fanOutDAG(t *testing.T, n int) *dag.DAG {
	t.Helper()
	d := dag.New("fanout")
	root := d.AddComputeTask("root", 1)
	for i := 0; i < n; i++ {
		c := d.AddComputeTask("child", 10)
		d.MustEdge(root.ID, c.ID)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return d
}

func TestNewByName(t *testing.T) {
	for _, name := range Names() {
		s, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := New("PDF"); err != nil {
		t.Fatalf("upper-case alias rejected")
	}
	if _, err := New("bogus"); err == nil {
		t.Fatalf("unknown scheduler accepted")
	}
}

func TestPDFOrdersBySequentialPosition(t *testing.T) {
	d := fanOutDAG(t, 5)
	s := NewPDF()
	s.Reset(d, 4)
	// Make children ready out of order.
	s.MakeReady(0, []dag.TaskID{5, 2, 4, 1, 3})
	want := []dag.TaskID{1, 2, 3, 4, 5}
	for i, w := range want {
		id, ok := s.Next(0)
		if !ok || id != w {
			t.Fatalf("Next %d = (%d, %v), want %d", i, id, ok, w)
		}
	}
	if _, ok := s.Next(0); ok {
		t.Fatalf("Next on empty queue returned a task")
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", s.Pending())
	}
	if s.Metrics()["assigned"] != 5 {
		t.Fatalf("assigned metric = %d", s.Metrics()["assigned"])
	}
}

func TestPDFResetClearsQueue(t *testing.T) {
	d := fanOutDAG(t, 3)
	s := NewPDF()
	s.Reset(d, 2)
	s.MakeReady(-1, []dag.TaskID{1, 2})
	s.Reset(d, 2)
	if s.Pending() != 0 {
		t.Fatalf("Pending after Reset = %d", s.Pending())
	}
}

func TestWSLocalLIFO(t *testing.T) {
	d := fanOutDAG(t, 3)
	s := NewWS()
	s.Reset(d, 2)
	// Tasks forked on core 0 in sequential order 1,2,3.
	s.MakeReady(0, []dag.TaskID{1, 2, 3})
	// The forking core pops the most recently forked first (LIFO).
	id, ok := s.Next(0)
	if !ok || id != 3 {
		t.Fatalf("local pop = %d, want 3", id)
	}
	// A thief steals the oldest task (bottom of the deque).
	id, ok = s.Next(1)
	if !ok || id != 1 {
		t.Fatalf("steal = %d, want 1", id)
	}
	m := s.Metrics()
	if m["steals"] != 1 || m["local"] != 1 {
		t.Fatalf("metrics = %v", m)
	}
}

func TestWSStealScanOrder(t *testing.T) {
	d := fanOutDAG(t, 6)
	s := NewWS()
	s.Reset(d, 4)
	// Work only on core 2's deque.
	s.MakeReady(2, []dag.TaskID{1, 2})
	// Core 3 scans 0,1,2 (starting after itself) and steals from core 2.
	id, ok := s.Next(3)
	if !ok || id != 1 {
		t.Fatalf("steal from core 3 = (%d, %v), want task 1", id, ok)
	}
	// Core 0 then steals the remaining task.
	id, ok = s.Next(0)
	if !ok || id != 2 {
		t.Fatalf("steal from core 0 = (%d, %v), want task 2", id, ok)
	}
	if _, ok := s.Next(1); ok {
		t.Fatalf("steal from empty deques should fail")
	}
}

func TestWSRootsSeededOnCoreZero(t *testing.T) {
	d := fanOutDAG(t, 2)
	s := NewWS()
	s.Reset(d, 2)
	s.MakeReady(-1, []dag.TaskID{0})
	// Core 1's local deque is empty; it must steal the root from core 0.
	id, ok := s.Next(1)
	if !ok || id != 0 {
		t.Fatalf("core 1 did not find the seeded root: (%d, %v)", id, ok)
	}
}

func TestWSOutOfRangeCore(t *testing.T) {
	d := fanOutDAG(t, 2)
	s := NewWS()
	s.Reset(d, 2)
	s.MakeReady(5, []dag.TaskID{1}) // folded into a valid deque
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
	if _, ok := s.Next(-1); ok {
		t.Fatalf("negative core should get no work")
	}
	if _, ok := s.Next(7); ok {
		t.Fatalf("out-of-range core should get no work")
	}
}

func TestWSPendingCountsAllDeques(t *testing.T) {
	d := fanOutDAG(t, 4)
	s := NewWS()
	s.Reset(d, 3)
	s.MakeReady(0, []dag.TaskID{1})
	s.MakeReady(1, []dag.TaskID{2, 3})
	if s.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", s.Pending())
	}
}

func TestFIFOOrder(t *testing.T) {
	d := fanOutDAG(t, 3)
	s := NewFIFO()
	s.Reset(d, 2)
	s.MakeReady(0, []dag.TaskID{3, 1, 2})
	got := []dag.TaskID{}
	for {
		id, ok := s.Next(0)
		if !ok {
			break
		}
		got = append(got, id)
	}
	want := []dag.TaskID{3, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if s.Metrics()["assigned"] != 3 {
		t.Fatalf("assigned = %d", s.Metrics()["assigned"])
	}
}

// All schedulers must eventually hand out every ready task exactly once
// (greedy, no loss, no duplication).
func TestAllSchedulersDrainWithoutLossOrDuplication(t *testing.T) {
	d := fanOutDAG(t, 50)
	ready := make([]dag.TaskID, 50)
	for i := range ready {
		ready[i] = dag.TaskID(i + 1)
	}
	for _, name := range Names() {
		s, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		s.Reset(d, 4)
		// Announce from several different cores.
		s.MakeReady(0, ready[:20])
		s.MakeReady(2, ready[20:35])
		s.MakeReady(-1, ready[35:])
		seen := make(map[dag.TaskID]bool)
		for core := 0; ; core = (core + 1) % 4 {
			id, ok := s.Next(core)
			if !ok {
				break
			}
			if seen[id] {
				t.Fatalf("%s handed out task %d twice", name, id)
			}
			seen[id] = true
		}
		if len(seen) != 50 {
			t.Fatalf("%s handed out %d of 50 tasks", name, len(seen))
		}
		if s.Pending() != 0 {
			t.Fatalf("%s still has %d pending after drain", name, s.Pending())
		}
	}
}
