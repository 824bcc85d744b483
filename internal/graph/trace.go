package graph

import (
	"cmpsched/internal/refs"
)

// The simulated address-space layout of the kernel data structures.  Bases
// are spaced far apart so regions never alias, and sit above the workload
// package's bases (0x1..0xC_0000_0000).
const (
	baseOffsets uint64 = 0x20_0000_0000 // CSR offsets array, 8 B entries
	baseEdges   uint64 = 0x21_0000_0000 // CSR edge array, 4 B entries
	baseWeights uint64 = 0x22_0000_0000 // per-edge weights, 8 B entries
	baseFrontA  uint64 = 0x23_0000_0000 // frontier / active list, even levels
	baseFrontB  uint64 = 0x24_0000_0000 // frontier / active list, odd levels
	baseDist    uint64 = 0x25_0000_0000 // distance vector, 8 B entries
	baseRankA   uint64 = 0x26_0000_0000 // rank vector, even iterations
	baseRankB   uint64 = 0x27_0000_0000 // rank vector, odd iterations
	baseAccum   uint64 = 0x28_0000_0000 // per-task partial results
	baseComp    uint64 = 0x29_0000_0000 // final component labels, 8 B entries
	baseDeg     uint64 = 0x2A_0000_0000 // induced degrees / core numbers, 8 B
	basePrio    uint64 = 0x2B_0000_0000 // per-vertex priorities / LDD shifts
	baseState   uint64 = 0x2C_0000_0000 // per-vertex state flags, 8 B entries
	baseMatch   uint64 = 0x2D_0000_0000 // matched-partner vector, 8 B entries
	baseCOffA   uint64 = 0x2E_0000_0000 // contracted CSR offsets, even levels
	baseCOffB   uint64 = 0x2F_0000_0000 // contracted CSR offsets, odd levels
	baseCEdgeA  uint64 = 0x30_0000_0000 // contracted CSR edges, even levels
	baseCEdgeB  uint64 = 0x31_0000_0000 // contracted CSR edges, odd levels
	baseLabel   uint64 = 0x32_0000_0000 // per-level cluster labels, 8 B
)

const (
	offsetEntryBytes = 8
	edgeEntryBytes   = 4
	weightEntryBytes = 8
	vertexEntryBytes = 8 // distance / rank / frontier entries
)

func offsetAddr(v int64) uint64 { return baseOffsets + uint64(v)*offsetEntryBytes }
func edgeAddr(i int64) uint64   { return baseEdges + uint64(i)*edgeEntryBytes }
func weightAddr(i int64) uint64 { return baseWeights + uint64(i)*weightEntryBytes }
func distAddr(v int64) uint64   { return baseDist + uint64(v)*vertexEntryBytes }
func accumAddr(t int64) uint64  { return baseAccum + uint64(t)*vertexEntryBytes }
func frontBase(parity int) uint64 {
	if parity%2 == 0 {
		return baseFrontA
	}
	return baseFrontB
}
func frontAddr(parity int, slot int64) uint64 {
	return frontBase(parity) + uint64(slot)*vertexEntryBytes
}
func rankBase(parity int) uint64 {
	if parity%2 == 0 {
		return baseRankA
	}
	return baseRankB
}
func rankAddr(parity int, v int64) uint64 {
	return rankBase(parity) + uint64(v)*vertexEntryBytes
}
func compAddr(v int64) uint64  { return baseComp + uint64(v)*vertexEntryBytes }
func degAddr(v int64) uint64   { return baseDeg + uint64(v)*vertexEntryBytes }
func prioAddr(v int64) uint64  { return basePrio + uint64(v)*vertexEntryBytes }
func stateAddr(v int64) uint64 { return baseState + uint64(v)*vertexEntryBytes }
func matchAddr(v int64) uint64 { return baseMatch + uint64(v)*vertexEntryBytes }
func coffAddr(parity int, v int64) uint64 {
	if parity%2 == 0 {
		return baseCOffA + uint64(v)*offsetEntryBytes
	}
	return baseCOffB + uint64(v)*offsetEntryBytes
}
func cedgeAddr(parity int, j int64) uint64 {
	if parity%2 == 0 {
		return baseCEdgeA + uint64(j)*edgeEntryBytes
	}
	return baseCEdgeB + uint64(j)*edgeEntryBytes
}
func labelAddr(v int64) uint64 { return baseLabel + uint64(v)*vertexEntryBytes }

// trace accumulates one task's memory references at cache-line granularity:
// consecutive touches to the same line collapse into one reference (their
// instruction counts accumulate), matching how the regular workload
// generators emit one reference per line touched.
//
// The line arithmetic is hoisted to a precomputed shift when lineBytes is a
// power of two (it always is for the configured line sizes), so the host
// walks pay one shift per touch instead of two hardware divisions.  A kernel
// reuses one trace across its tasks via reset: dag.AddTask copies each
// task's references out of the buffer as it records them, keeping kernel
// builds free of per-task slice growth.
type trace struct {
	lineBytes int64
	lineShift uint // valid when pow2
	pow2      bool
	refs      []refs.Ref
	lastLine  uint64
	pending   int64 // instructions to charge before the next emitted ref
}

func newTrace(c Costs) *trace {
	t := &trace{lineBytes: c.LineBytes, lastLine: ^uint64(0)}
	if lb := uint64(c.LineBytes); lb&(lb-1) == 0 {
		t.pow2 = true
		for uint64(1)<<t.lineShift < lb {
			t.lineShift++
		}
	}
	return t
}

// reset rewinds the trace for the next task, reusing its buffer.
func (t *trace) reset() {
	t.refs = t.refs[:0]
	t.lastLine = ^uint64(0)
	t.pending = 0
}

// line maps an address to its line index.
func (t *trace) line(addr uint64) uint64 {
	if t.pow2 {
		return addr >> t.lineShift
	}
	return addr / uint64(t.lineBytes)
}

// lineAddr maps a line index back to its base address.
func (t *trace) lineAddr(line uint64) uint64 {
	if t.pow2 {
		return line << t.lineShift
	}
	return line * uint64(t.lineBytes)
}

// touch records an access to addr, charging instrs instructions before it.
func (t *trace) touch(addr uint64, write bool, instrs int64) {
	line := t.line(addr)
	t.pending += instrs
	if len(t.refs) > 0 && line == t.lastLine {
		if write {
			t.refs[len(t.refs)-1].Write = true
		}
		return
	}
	t.refs = append(t.refs, refs.Ref{
		Addr:   t.lineAddr(line),
		Write:  write,
		Instrs: refs.NarrowInstrs(t.pending),
	})
	t.pending = 0
	t.lastLine = line
}

// span records a sequential access to the region [addr, addr+bytes).
func (t *trace) span(addr uint64, bytes int64, write bool, instrsPerLine int64) {
	if bytes <= 0 {
		return
	}
	first := t.line(addr)
	last := t.line(addr + uint64(bytes) - 1)
	for line := first; line <= last; line++ {
		t.touch(t.lineAddr(line), write, instrsPerLine)
	}
}

// gen finalises the trace into the task's stream, charging tail
// instructions (plus any pending ones) after the final reference.  The
// stream reads the trace's buffer, so it must reach dag.AddTask, which
// records an encoded copy, before the next reset.
func (t *trace) gen(tail int64) *refs.Points {
	return refs.NewPoints(t.refs, tail+t.pending)
}

// bytes estimates the task's working set: one line per emitted reference.
// Consecutive-line dedupe makes this a slight overcount for re-touched lines
// and that is fine for a coarsening parameter.
func (t *trace) bytes() int64 { return int64(len(t.refs)) * t.lineBytes }

// Costs parameterise the kernels' reference granularity, task grain and
// instruction accounting.
type Costs struct {
	// LineBytes is the granularity of emitted references (default 128,
	// Table 1's line size).
	LineBytes int64
	// EdgesPerTask is the target number of edge traversals per task: the
	// task-granularity knob of the irregular kernels (default 4096).
	// Frontier chunks are cut greedily so each task stays near this budget.
	EdgesPerTask int64
	// InstrsPerEdge is the instruction cost per edge traversed (default 8).
	InstrsPerEdge int64
	// InstrsPerVertex is the instruction cost per vertex processed
	// (default 16).
	InstrsPerVertex int64
	// SpawnInstrs is the overhead charged to barrier/spawn tasks
	// (default 200).
	SpawnInstrs int64
}

func (c Costs) withDefaults() Costs {
	if c.LineBytes == 0 {
		c.LineBytes = 128
	}
	if c.EdgesPerTask == 0 {
		c.EdgesPerTask = 4096
	}
	if c.InstrsPerEdge == 0 {
		c.InstrsPerEdge = 8
	}
	if c.InstrsPerVertex == 0 {
		c.InstrsPerVertex = 16
	}
	if c.SpawnInstrs == 0 {
		c.SpawnInstrs = 200
	}
	return c
}

// chunk splits the index range [0, n) greedily so that each chunk's work —
// work(i), typically the vertex's degree — stays at or under budget while
// every chunk holds at least one index.  It returns half-open [start, end)
// ranges.
func chunk(n int64, budget int64, work func(i int64) int64) [][2]int64 {
	budget = max(1, budget)
	var out [][2]int64
	start := int64(0)
	acc := int64(0)
	for i := int64(0); i < n; i++ {
		w := work(i)
		if i > start && acc+w > budget {
			out = append(out, [2]int64{start, i})
			start, acc = i, 0
		}
		acc += w
	}
	if start < n {
		out = append(out, [2]int64{start, n})
	}
	return out
}
