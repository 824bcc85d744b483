package sched

import (
	"cmpsched/internal/dag"
	"cmpsched/internal/minheap"
	"cmpsched/internal/obs"
	"cmpsched/internal/refs"
)

// SpaceBounded is a space-bounded scheduler in the spirit of Blelloch,
// Gibbons & Simhadri: every task is annotated with a working-set estimate,
// and a ready task is pinned to the smallest cache level or L2 slice whose
// capacity fits that working set — tasks that fit the private L1 are pinned
// to the core that enabled them (their parent's data is hot there), tasks
// that fit one L2 slice are pinned to the enabling core's slice, and larger
// tasks stay global.  Within each pool, tasks run in sequential (1DF) order,
// like PDF, so the scheduler degenerates to PDF with core affinity on the
// shared topology and becomes slice-aware exactly when the topology gives it
// slices to aim at.
//
// A task's working set is the number of distinct cache lines its recorded
// stream touches, times the line size: the footprint the coarsening pass's
// W ≤ K·C/(2P) criterion (package coarsen) reads from the LruTree profiler
// for a one-task group.  Reset counts it directly, once per distinct
// recording, in time linear in the recording's length; a test pins the
// count to the profiler's on every workload.
//
// One deliberate deviation from the literature: strict space-bounded
// scheduling may leave a core idle to protect a pinned task's cache slice.
// The simulator's contract is greedy scheduling (and its event loop only
// re-polls idle cores on task completions), so pinning is implemented as a
// preference order with deterministic overflow — an idle core that finds its
// own pools empty takes work from the nearest non-empty pool, nearest slice
// first.  The Metrics counters report how often pinning held ("pinned_l1",
// "pinned_slice", "pinned_global" placements) versus how often work ran away
// from its pool ("migrations").
type SpaceBounded struct {
	d       *dag.DAG
	raw     Machine // as given by SetMachine; normalised into m by Reset
	m       Machine
	ws      []int64 // per-task working-set bytes
	coreQ   []minheap.Heap[seqItem]
	sliceQ  []minheap.Heap[seqItem]
	globalQ minheap.Heap[seqItem]
	// sliceCores[s] lists the cores served by slice s, ascending.
	sliceCores [][]int

	assigned    int64
	pinnedL1    int64
	pinnedSlice int64
	pinnedGlob  int64
	migrations  int64
	tr          *obs.Tracer // pin/migrate-event sink; nil when tracing is off
}

// NewSpaceBounded returns a space-bounded scheduler.
func NewSpaceBounded() *SpaceBounded { return &SpaceBounded{} }

// Name implements Scheduler.
func (*SpaceBounded) Name() string { return "sb" }

// SetMachine implements MachineAware.
func (s *SpaceBounded) SetMachine(m Machine) { s.raw = m }

// Reset implements Scheduler.  It annotates every task with its working set
// (see SpaceBounded); counting only reads the DAG's recorded streams, so
// runs sharing the DAG are undisturbed.
func (s *SpaceBounded) Reset(d *dag.DAG, cores int) {
	s.d = d
	s.m = s.raw.forCores(cores)
	s.sizeTasks(d)

	s.coreQ = resetHeaps(s.coreQ, cores)
	s.sliceQ = resetHeaps(s.sliceQ, s.m.Slices)
	s.globalQ.Reset()
	s.sliceCores = s.m.coresBySlice()
	s.assigned, s.pinnedL1, s.pinnedSlice, s.pinnedGlob, s.migrations = 0, 0, 0, 0, 0
}

// resetHeaps returns a slice of n empty heaps, reusing prior storage (and
// the heaps' backing arrays) when possible.
func resetHeaps(h []minheap.Heap[seqItem], n int) []minheap.Heap[seqItem] {
	if cap(h) >= n {
		h = h[:n]
		for i := range h {
			h[i].Reset()
		}
		return h
	}
	return make([]minheap.Heap[seqItem], n)
}

// sizeTasks sets s.ws to every task's working set in bytes.  Tasks that
// share one recording (PageRank's chunk tasks two iterations apart) have
// its lines counted once.
func (s *SpaceBounded) sizeTasks(d *dag.DAG) {
	n := d.NumTasks()
	if cap(s.ws) >= n {
		s.ws = s.ws[:n]
	} else {
		s.ws = make([]int64, n)
	}
	lineBytes := s.m.LineBytes
	if lineBytes <= 0 {
		lineBytes = 128
	}
	var lines lineSet
	counted := make(map[*refs.Recorded]int64)
	for i, t := range d.Tasks() {
		distinct, ok := counted[t.Refs]
		if !ok {
			distinct = lines.count(t.Refs, uint64(lineBytes))
			counted[t.Refs] = distinct
		}
		s.ws[i] = distinct * lineBytes
	}
}

// lineSet counts the distinct cache lines of recorded streams.  It is an
// open-addressing hash set, kept at most half full, whose slots carry the
// generation that filled them: a new count starts by bumping the
// generation, so it costs nothing however large an earlier stream was.
type lineSet struct {
	slots []lineSlot // length a power of two
	// gen numbers the counts; one set serves one DAG, whose fewer than
	// 2^31 tasks (dag.TaskID) keep it from wrapping.
	gen uint32
	n   int // lines in the current generation
}

// lineSlot is one hash-set slot; it holds a line when gen is the set's.
type lineSlot struct {
	line uint64
	gen  uint32
}

// count returns the number of distinct lines of lineBytes bytes that the
// recording's references touch.
func (ls *lineSet) count(rec *refs.Recorded, lineBytes uint64) int64 {
	ls.gen++
	ls.n = 0
	var blk [64]refs.Ref
	rd := rec.Reader()
	for k := rd.Read(blk[:]); k > 0; k = rd.Read(blk[:]) {
		for i := range blk[:k] {
			ls.add(blk[i].Addr / lineBytes)
		}
	}
	return int64(ls.n)
}

// add inserts line into the current generation.
func (ls *lineSet) add(line uint64) {
	if 2*(ls.n+1) > len(ls.slots) {
		ls.grow()
	}
	mask := uint64(len(ls.slots) - 1)
	for h := hashLine(line) & mask; ; h = (h + 1) & mask {
		sl := &ls.slots[h]
		if sl.gen != ls.gen {
			*sl = lineSlot{line: line, gen: ls.gen}
			ls.n++
			return
		}
		if sl.line == line {
			return
		}
	}
}

// grow doubles the table, re-inserting the current generation's lines.
func (ls *lineSet) grow() {
	old := ls.slots
	ls.slots = make([]lineSlot, max(2*len(old), 1<<10))
	mask := uint64(len(ls.slots) - 1)
	for _, sl := range old {
		if sl.gen != ls.gen {
			continue
		}
		h := hashLine(sl.line) & mask
		for ls.slots[h].gen == ls.gen {
			h = (h + 1) & mask
		}
		ls.slots[h] = sl
	}
}

// hashLine spreads line numbers, which are dense and strided, over the
// table (Fibonacci hashing; the high bits mix best, so fold them down).
func hashLine(line uint64) uint64 {
	h := line * 0x9E3779B97F4A7C15
	return h ^ h>>32
}

// MakeReady implements Scheduler.  Each task is pinned to the smallest
// cache that fits its working set, anchored at the core whose completion
// enabled it (core -1, the DAG roots, anchor at core 0 where the sequential
// program would begin).
func (s *SpaceBounded) MakeReady(core int, tasks []dag.TaskID) {
	home := core
	if home < 0 {
		home = 0
	}
	if home >= s.m.Cores {
		home = home % s.m.Cores
	}
	for _, id := range tasks {
		item := seqItem{id: id, seq: s.d.Task(id).Seq}
		w := s.ws[id]
		switch {
		case w <= s.m.L1Bytes:
			s.coreQ[home].Push(item)
			s.pinnedL1++
			s.tr.Pin(int32(id), int32(home), obs.PinL1)
		case w <= s.m.L2SliceBytes:
			s.sliceQ[s.m.SliceOf(home)].Push(item)
			s.pinnedSlice++
			s.tr.Pin(int32(id), int32(home), obs.PinSlice)
		default:
			s.globalQ.Push(item)
			s.pinnedGlob++
			s.tr.Pin(int32(id), int32(home), obs.PinGlobal)
		}
	}
}

// Next implements Scheduler.  An idle core drains, in order: its own core
// pool, its slice's pool, the global pool; then — to keep the scheduler
// greedy — it overflows deterministically into the other pools of its own
// slice and finally into other slices by increasing slice distance.
func (s *SpaceBounded) Next(core int) (dag.TaskID, bool) {
	if core < 0 || core >= s.m.Cores {
		return dag.None, false
	}
	if s.coreQ[core].Len() > 0 {
		return s.take(&s.coreQ[core], core, false)
	}
	slice := s.m.SliceOf(core)
	if s.sliceQ[slice].Len() > 0 {
		return s.take(&s.sliceQ[slice], core, false)
	}
	if s.globalQ.Len() > 0 {
		return s.take(&s.globalQ, core, false)
	}
	// Overflow: other core pools within the own slice, scanning forward
	// from the idle core.
	mates := s.sliceCores[slice]
	pos := indexOf(mates, core)
	for i := 1; i < len(mates); i++ {
		c := mates[(pos+i)%len(mates)]
		if s.coreQ[c].Len() > 0 {
			return s.take(&s.coreQ[c], core, true)
		}
	}
	// Overflow: other slices by increasing slice distance — their slice
	// pool first, then their core pools in index order.
	for dist := 1; dist < s.m.Slices; dist++ {
		v := (slice + dist) % s.m.Slices
		if s.sliceQ[v].Len() > 0 {
			return s.take(&s.sliceQ[v], core, true)
		}
		for _, c := range s.sliceCores[v] {
			if s.coreQ[c].Len() > 0 {
				return s.take(&s.coreQ[c], core, true)
			}
		}
	}
	return dag.None, false
}

// take pops the sequentially earliest task of a pool for the given core,
// counting the assignment (and the migration, when the pool is not the
// core's own).
func (s *SpaceBounded) take(q *minheap.Heap[seqItem], core int, migrated bool) (dag.TaskID, bool) {
	item := q.Pop()
	s.assigned++
	if migrated {
		s.migrations++
		s.tr.Migrate(int32(item.id), int32(core))
	}
	return item.id, true
}

// indexOf returns the position of core in the ascending slice-core list.
func indexOf(cores []int, core int) int {
	for i, c := range cores {
		if c == core {
			return i
		}
	}
	return 0
}

// Pending implements Scheduler.
func (s *SpaceBounded) Pending() int {
	total := s.globalQ.Len()
	for i := range s.coreQ {
		total += s.coreQ[i].Len()
	}
	for i := range s.sliceQ {
		total += s.sliceQ[i].Len()
	}
	return total
}

// Metrics implements Scheduler.
func (s *SpaceBounded) Metrics() map[string]int64 {
	return map[string]int64{
		"assigned":      s.assigned,
		"pinned_l1":     s.pinnedL1,
		"pinned_slice":  s.pinnedSlice,
		"pinned_global": s.pinnedGlob,
		"migrations":    s.migrations,
	}
}

func init() {
	Register("sb", func() Scheduler { return NewSpaceBounded() })
}
