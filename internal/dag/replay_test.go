package dag

import (
	"slices"
	"testing"

	"cmpsched/internal/refs"
)

// buildReplayFixture makes a small fork-join DAG with a mix of ref-bearing and
// compute-only tasks, including two tasks with byte-identical streams.
func buildReplayFixture(t *testing.T) *DAG {
	t.Helper()
	d := New("diamond")
	mk := func() refs.Gen { return refs.NewScan(1<<20, 640, 64, 2) }
	root := d.AddComputeTask("root", 100)
	a := d.AddTask("a", mk())
	b := d.AddTask("b", mk()) // identical stream to a
	c := d.AddTask("c", &refs.Strided{Base: 1 << 21, StrideBytes: 128, Count: 30, InstrsPerRef: 1})
	join := d.AddComputeTask("join", 50)
	d.Fork(root.ID, a.ID, b.ID, c.ID)
	d.Join(join.ID, a.ID, b.ID, c.ID)
	d.RecordMetric("m", 7)
	if err := d.Validate(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	return d
}

// TestSnapshotInstantiateEquivalence pins that recording changes nothing a
// simulation reads: structure, totals, metrics and every task's stream match
// a fresh build of the same DAG.
func TestSnapshotInstantiateEquivalence(t *testing.T) {
	want := buildReplayFixture(t)
	inst := Record(buildReplayFixture(t), refs.NewTraceStore()).Instantiate()
	if err := inst.Validate(); err != nil {
		t.Fatalf("instance invalid: %v", err)
	}
	if inst.Name != want.Name || inst.NumTasks() != want.NumTasks() {
		t.Fatalf("instance shape (%q, %d), want (%q, %d)", inst.Name, inst.NumTasks(), want.Name, want.NumTasks())
	}
	if inst.TotalInstrs() != want.TotalInstrs() || inst.TotalRefs() != want.TotalRefs() {
		t.Fatalf("instance totals differ from a fresh build")
	}
	if inst.Metrics()["m"] != 7 {
		t.Fatalf("instance lost metrics: %v", inst.Metrics())
	}
	for i, task := range inst.Tasks() {
		w := want.Task(TaskID(i))
		if task.Name != w.Name || task.Instrs != w.Instrs ||
			len(task.Preds) != len(w.Preds) || len(task.Succs) != len(w.Succs) {
			t.Fatalf("task %d structure differs: %+v vs %+v", i, task, w)
		}
		got, _ := task.Refs.Emit(nil)
		fresh, _ := w.Refs.Emit(nil)
		if task.Refs.Tail() != w.Refs.Tail() || !slices.Equal(got, fresh) {
			t.Fatalf("task %d stream differs from a fresh build", i)
		}
	}
}

// TestSnapshotInstancesAreIndependent pins that instances stay independent
// without private copies: every Instantiate returns the one recorded DAG,
// which no reader changes, and identical sibling tasks share one arena.
func TestSnapshotInstancesAreIndependent(t *testing.T) {
	store := refs.NewTraceStore()
	snap := Record(buildReplayFixture(t), store)
	i1, i2 := snap.Instantiate(), snap.Instantiate()
	if i1 != i2 {
		t.Fatalf("Instantiate copied the DAG")
	}
	// Tasks "a" and "b" emit identical streams; the store holds one
	// recording for both.
	if st := store.Stats(); st.Unique >= st.Interned {
		t.Fatalf("identical sibling tasks were not interned: %+v", st)
	}
	if i1.Task(1).Refs != i1.Task(2).Refs {
		t.Fatalf("identical tasks do not share a recording")
	}
}

// TestRecordIntoSharedStore pins cross-DAG sharing: recording two builds of
// the same DAG into one store grows the arena once and rebinds the second
// build's tasks to the first's recordings.
func TestRecordIntoSharedStore(t *testing.T) {
	store := refs.NewTraceStore()
	first, second := buildReplayFixture(t), buildReplayFixture(t)
	Record(first, store)
	after1 := store.Stats().ArenaBytes
	Record(second, store)
	after2 := store.Stats().ArenaBytes
	if after1 == 0 {
		t.Fatalf("first recording interned nothing")
	}
	if after2 != after1 {
		t.Fatalf("second recording grew the arena: %d -> %d bytes", after1, after2)
	}
	for i, task := range second.Tasks() {
		if task.Refs != first.Task(TaskID(i)).Refs {
			t.Fatalf("task %d was not rebound to the shared recording", i)
		}
	}
}
