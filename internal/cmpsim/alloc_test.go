package cmpsim

import (
	"testing"

	"cmpsched/internal/dag"
	"cmpsched/internal/refs"
	"cmpsched/internal/sched"
)

// allocDAG builds a fan-out DAG whose per-task reference count scales with
// refsPerTask while everything else (task count, edges) stays fixed, so the
// difference in allocations between two sizes isolates the per-reference
// cost of the steady-state loop.
func allocDAG(tasks int, refsPerTask int64) *dag.DAG {
	d := dag.New("alloc")
	root := d.AddComputeTask("root", 1)
	const lineBytes = 64
	for i := 0; i < tasks; i++ {
		g := refs.NewConcat(
			&refs.Scan{Base: uint64(i) << 24, Bytes: refsPerTask / 2 * lineBytes, LineBytes: lineBytes, InstrsPerRef: 2},
			&refs.Random{Base: uint64(i) << 24, Bytes: 1 << 16, LineBytes: lineBytes, Count: refsPerTask / 2, Seed: uint64(i + 1), InstrsPerRef: 3},
		)
		task := d.AddTask("work", g)
		d.MustEdge(root.ID, task.ID)
	}
	return d
}

// TestSteadyStateZeroAllocsPerRef guards the engine's allocation hygiene:
// simulating 16x more references must not allocate more than simulating the
// small run.  Per-run setup (hierarchy, result) and per-task costs are
// identical between the two sizes, so any per-reference allocation — event
// boxing, ready-list regrowth — shows up as a nonzero difference.
func TestSteadyStateZeroAllocsPerRef(t *testing.T) {
	const tasks = 32
	cfg := testConfig(4, 64*1024)
	opts := Options{RecordTaskStats: false, ValidateDAG: false}
	measure := func(refsPerTask int64) float64 {
		d := allocDAG(tasks, refsPerTask)
		s := sched.NewPDF()
		return testing.AllocsPerRun(5, func() {
			if _, err := RunWithOptions(d, s, cfg, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := measure(1 << 10)
	big := measure(1 << 14)
	extraRefs := float64(tasks) * float64(1<<14-1<<10)
	if perRef := (big - small) / extraRefs; perRef > 0 {
		t.Fatalf("steady-state loop allocates: %.0f allocs at %d refs/task vs %.0f at %d (%.6f allocs/ref)",
			big, 1<<14, small, 1<<10, perRef)
	}
}

// TestRunAllocsBounded pins the absolute allocation count of a full run to
// the per-run setup budget: a few allocations per core/slice plus a
// constant, independent of the hundreds of thousands of references
// simulated.  This catches regressions that add "only" per-task or per-run
// allocations, which the scaling test above would miss.
func TestRunAllocsBounded(t *testing.T) {
	d := allocDAG(32, 1<<12)
	cfg := testConfig(8, 64*1024)
	opts := Options{RecordTaskStats: false, ValidateDAG: false}
	s := sched.NewPDF()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := RunWithOptions(d, s, cfg, opts); err != nil {
			t.Fatal(err)
		}
	})
	// 8 L1s + 1 L2 + hierarchy/memory/result plumbing lands around 60;
	// 200 leaves headroom without admitting anything that scales.
	if allocs > 200 {
		t.Fatalf("full run allocated %.0f times, want setup-only (<= 200)", allocs)
	}
}
