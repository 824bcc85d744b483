package cmpsim

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"cmpsched/internal/dag"
	"cmpsched/internal/sched"
)

// TestEventQueuePopsInTimeCoreOrder drives the queue with a seeded random
// sequence of pushes and pops and checks every pop against a sort of the
// pending events by (time, core).  Times cluster so that many events tie on
// time and order by core, and some sit near the MaxCycles limit so the
// packed keys use their high bits.
func TestEventQueuePopsInTimeCoreOrder(t *testing.T) {
	type ev struct {
		time int64
		core int
	}
	less := func(a, b ev) bool { return a.time < b.time || (a.time == b.time && a.core < b.core) }
	r := rand.New(rand.NewSource(13))
	var q eventQueue
	var pending []ev // kept sorted by (time, core)
	popCheck := func(step int) {
		want := pending[0]
		pending = pending[1:]
		k := q.pop()
		got := ev{time: int64(k >> coreBits), core: int(k & coreMask)}
		if got != want {
			t.Fatalf("step %d: popped %+v, want %+v", step, got, want)
		}
	}
	for step := 0; step < 20000; step++ {
		if len(pending) > 0 && r.Intn(3) == 0 {
			popCheck(step)
			continue
		}
		e := ev{time: int64(r.Intn(64)), core: r.Intn(64)}
		if r.Intn(8) == 0 {
			e.time = maxCyclesLimit - int64(r.Intn(4))
		}
		at := sort.Search(len(pending), func(i int) bool { return !less(pending[i], e) })
		pending = slices.Insert(pending, at, e)
		q.push(eventKey(e.time, e.core))
		if len(q) != len(pending) {
			t.Fatalf("step %d: queue holds %d events, want %d", step, len(q), len(pending))
		}
	}
	for step := 0; len(pending) > 0; step++ {
		popCheck(step)
	}
	if len(q) != 0 {
		t.Fatalf("drained queue holds %d events", len(q))
	}
}

// TestEventKeySaturatesPastMaxCycles checks that a time too large for a key
// saturates to one every permitted MaxCycles bound is below.
func TestEventKeySaturatesPastMaxCycles(t *testing.T) {
	k := eventKey(1<<62, 5)
	if got := int64(k >> coreBits); got != maxEventTime || got <= maxCyclesLimit {
		t.Fatalf("saturated time = %d, want %d (> %d)", got, int64(maxEventTime), int64(maxCyclesLimit))
	}
	if k&coreMask != 5 {
		t.Fatalf("saturated key lost its core: %d", k&coreMask)
	}
}

// TestMaxCyclesLimit pins the bound RunWithOptions places on MaxCycles:
// 2^57 runs, 2^57+1 is rejected, and the default options still run.
func TestMaxCyclesLimit(t *testing.T) {
	d := dag.New("limit")
	d.AddComputeTask("t", 100)
	cfg := testConfig(1, 64*1024)
	opts := DefaultOptions()
	opts.MaxCycles = 1<<57 + 1
	if _, err := RunWithOptions(d, sched.NewPDF(), cfg, opts); err == nil {
		t.Fatalf("MaxCycles = 2^57+1 accepted")
	}
	opts.MaxCycles = 1 << 57
	if _, err := RunWithOptions(d, sched.NewPDF(), cfg, opts); err != nil {
		t.Fatalf("MaxCycles = 2^57: %v", err)
	}
	r, err := RunWithOptions(d, sched.NewPDF(), cfg, DefaultOptions())
	if err != nil {
		t.Fatalf("default options: %v", err)
	}
	if r.Cycles != 100 {
		t.Fatalf("cycles = %d, want 100", r.Cycles)
	}

	// A task whose completion time does not fit a key still fails the
	// bound, after the other core's work.
	huge := dag.New("huge")
	root := huge.AddComputeTask("root", 1)
	long := huge.AddComputeTask("long", 1<<61)
	short := huge.AddComputeTask("short", 10)
	huge.Fork(root.ID, long.ID, short.ID)
	opts.MaxCycles = 1 << 57
	_, err = RunWithOptions(huge, sched.NewPDF(), testConfig(2, 64*1024), opts)
	if err == nil || !strings.Contains(err.Error(), "exceeded MaxCycles") {
		t.Fatalf("saturated completion: err = %v, want a MaxCycles error", err)
	}
}
