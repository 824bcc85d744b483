package workload

import (
	"fmt"

	"cmpsched/internal/dag"
	"cmpsched/internal/imath"
	"cmpsched/internal/refs"
	"cmpsched/internal/taskgroup"
)

// MergesortConfig parameterises the parallel Mergesort benchmark.
//
// The benchmark follows the paper's description (§4.2): a recursive
// divide-and-conquer mergesort, structured after libpmsort but with the
// serial merge replaced by a parallel merge that picks k splitting points
// and merges the resulting k pairs of array chunks in parallel.  Sorting a
// sub-array of n bytes uses 2n bytes of memory (the source and destination
// buffers alternate by recursion level), which is the working-set rule the
// task-coarsening analysis relies on.
type MergesortConfig struct {
	// Elements is the number of keys to sort. The default, 1<<20 keys of
	// 4 bytes (4 MB), is the paper's 32M-key input divided by the default
	// capacity scale factor of 32.
	Elements int64
	// ElemBytes is the size of one key (default 4, as in the paper).
	ElemBytes int64
	// LineBytes is the granularity of emitted references (default 128).
	LineBytes int64
	// TaskWorkingSetBytes is the target per-task working set (the Figure 6
	// knob). Leaf sub-arrays are sized to half of it (sorting n bytes
	// touches 2n) and parallel-merge chunks to half of it. Default 16 KB,
	// the scaled equivalent of the paper's well-performing 512 KB tasks.
	TaskWorkingSetBytes int64
	// MergeTasksPerLevel is the minimum aggregate number of merge tasks
	// per DAG level (the paper uses 64 so that every core finds work).
	MergeTasksPerLevel int64
	// SpawnInstrs is the instruction overhead charged to each divide and
	// combine task, modelling spawn/sync and parallel-code overhead.
	SpawnInstrs int64
	// MergeInstrsPerElem is the instruction cost per element merged.
	MergeInstrsPerElem int64
	// SortInstrsPerElem is the instruction cost per element per pass of
	// the sequential leaf sort.
	SortInstrsPerElem int64
	// SerialMerge reproduces the original libpmsort behaviour of merging
	// two sorted sub-arrays with a single serial merge task instead of
	// the parallel k-way split merge; used by the §5.4 coarse- vs
	// fine-grained comparison.
	SerialMerge bool
}

// withDefaults fills zero fields with defaults.
func (c MergesortConfig) withDefaults() MergesortConfig {
	if c.Elements == 0 {
		c.Elements = 1 << 20
	}
	if c.ElemBytes == 0 {
		c.ElemBytes = 4
	}
	if c.LineBytes == 0 {
		c.LineBytes = DefaultLineBytes
	}
	if c.TaskWorkingSetBytes == 0 {
		c.TaskWorkingSetBytes = 16 << 10
	}
	if c.MergeTasksPerLevel == 0 {
		c.MergeTasksPerLevel = 64
	}
	if c.SpawnInstrs == 0 {
		c.SpawnInstrs = 200
	}
	if c.MergeInstrsPerElem == 0 {
		c.MergeInstrsPerElem = 8
	}
	if c.SortInstrsPerElem == 0 {
		c.SortInstrsPerElem = 6
	}
	return c
}

// Mergesort builds parallel Mergesort DAGs.
type Mergesort struct {
	cfg MergesortConfig
}

// NewMergesort returns a Mergesort workload; zero config fields take
// defaults.
func NewMergesort(cfg MergesortConfig) *Mergesort {
	return &Mergesort{cfg: cfg.withDefaults()}
}

// Name implements Workload.
func (m *Mergesort) Name() string { return "mergesort" }

// Config returns the effective (default-filled) configuration.
func (m *Mergesort) Config() MergesortConfig { return m.cfg }

// TotalBytes returns the size of the array being sorted.
func (m *Mergesort) TotalBytes() int64 { return m.cfg.Elements * m.cfg.ElemBytes }

// Build implements Workload.
func (m *Mergesort) Build() (*dag.DAG, *taskgroup.Tree, error) {
	c := m.cfg
	if c.Elements <= 0 || c.ElemBytes <= 0 {
		return nil, nil, fmt.Errorf("workload: mergesort: non-positive input size")
	}
	if c.TaskWorkingSetBytes < 2*c.LineBytes {
		return nil, nil, fmt.Errorf("workload: mergesort: TaskWorkingSetBytes %d smaller than two cache lines", c.TaskWorkingSetBytes)
	}
	d := dag.New(fmt.Sprintf("mergesort-%dK", c.Elements>>10))
	tree := taskgroup.New("mergesort")

	b := &msBuilder{cfg: c, d: d, tree: tree, totalBytes: c.Elements * c.ElemBytes}
	b.sort(tree.Root, 0, c.Elements, 0, true, 0)
	if err := d.Validate(); err != nil {
		return nil, nil, fmt.Errorf("workload: mergesort: %w", err)
	}
	if err := tree.Finalize(d); err != nil {
		return nil, nil, fmt.Errorf("workload: mergesort: %w", err)
	}
	return d, tree, nil
}

type msBuilder struct {
	cfg        MergesortConfig
	d          *dag.DAG
	tree       *taskgroup.Tree
	totalBytes int64
}

// leafElems returns the number of elements sorted sequentially in a leaf:
// half the target task working set (sorting n bytes touches 2n bytes).
func (b *msBuilder) leafElems() int64 {
	elems := (b.cfg.TaskWorkingSetBytes / 2) / b.cfg.ElemBytes
	if elems < 1 {
		elems = 1
	}
	return elems
}

// mergeChunkElems returns the output elements per parallel-merge task.
func (b *msBuilder) mergeChunkElems() int64 {
	elems := (b.cfg.TaskWorkingSetBytes / 2) / b.cfg.ElemBytes
	if elems < 1 {
		elems = 1
	}
	return elems
}

// region returns the byte range [addr, addr+len) of elements [lo, lo+n) in
// buffer A or B.
func (b *msBuilder) region(lo, n int64, inA bool) (uint64, int64) {
	base := baseArrayA
	if !inA {
		base = baseArrayB
	}
	return base + uint64(lo*b.cfg.ElemBytes), n * b.cfg.ElemBytes
}

// instrsPerLine converts a per-element instruction cost into a per-line
// cost at the configured reference granularity.
func (b *msBuilder) instrsPerLine(perElem int64) int64 {
	elemsPerLine := b.cfg.LineBytes / b.cfg.ElemBytes
	if elemsPerLine < 1 {
		elemsPerLine = 1
	}
	return perElem * elemsPerLine
}

// sort emits the DAG for sorting elements [lo, lo+n), leaving the result in
// buffer A when dstA is true (in B otherwise). depth is the recursion depth
// from the root (0 at the top) and phase is the group's phase within its
// parent.  It returns the entry and exit task IDs of the generated sub-DAG.
func (b *msBuilder) sort(parent *taskgroup.Node, lo, n int64, depth int, dstA bool, phase int) (dag.TaskID, dag.TaskID) {
	nBytes := n * b.cfg.ElemBytes
	group := b.tree.AddChild(parent, fmt.Sprintf("sort[%d:%d)", lo, lo+n), "mergesort.go:sort", float64(2*nBytes), phase)

	if n <= b.leafElems() {
		id := b.leafSort(lo, n, depth, dstA)
		b.tree.Own(group, id)
		return id, id
	}

	// Divide task: spawn overhead plus the k-way split-point selection
	// (binary searches) modelled as a handful of references at merge time.
	divide := b.d.AddComputeTask(fmt.Sprintf("divide[%d:%d)", lo, lo+n), b.cfg.SpawnInstrs)
	divide.Site = "mergesort.go:sort"
	divide.Param = float64(2 * nBytes)
	divide.Level = depth
	b.tree.Own(group, divide.ID)

	half := n / 2
	leftEntry, leftExit := b.sort(group, lo, half, depth+1, !dstA, 0)
	rightEntry, rightExit := b.sort(group, lo+half, n-half, depth+1, !dstA, 0)
	b.d.MustEdge(divide.ID, leftEntry)
	b.d.MustEdge(divide.ID, rightEntry)

	// Parallel merge of the two sorted halves (living in the opposite
	// buffer) into the destination buffer.
	mergeGroup := b.tree.AddChild(group, fmt.Sprintf("merge[%d:%d)", lo, lo+n), "mergesort.go:merge", float64(2*nBytes), 1)
	mergeIDs := b.parallelMerge(mergeGroup, lo, n, depth, dstA)
	for _, mid := range mergeIDs {
		b.d.MustEdge(leftExit, mid)
		b.d.MustEdge(rightExit, mid)
	}

	combine := b.d.AddComputeTask(fmt.Sprintf("combine[%d:%d)", lo, lo+n), b.cfg.SpawnInstrs)
	combine.Site = "mergesort.go:sort"
	combine.Param = float64(2 * nBytes)
	combine.Level = depth
	b.tree.Own(group, combine.ID)
	for _, mid := range mergeIDs {
		b.d.MustEdge(mid, combine.ID)
	}
	return divide.ID, combine.ID
}

// leafSort emits a single task that sorts elements [lo, lo+n) sequentially.
// It is modelled as ceil(log2 n) passes, each reading the current source
// region and writing the destination region (the two buffers alternate), so
// the task's working set is 2*nBytes, matching the paper's accounting.
func (b *msBuilder) leafSort(lo, n int64, depth int, dstA bool) dag.TaskID {
	passes := imath.Log2Ceil(n)
	if passes < 1 {
		passes = 1
	}
	srcAddr, nBytes := b.region(lo, n, !dstA)
	dstAddr, _ := b.region(lo, n, dstA)
	perLine := b.instrsPerLine(b.cfg.SortInstrsPerElem)
	onePass := refs.NewConcat(
		&refs.Scan{Base: srcAddr, Bytes: nBytes, LineBytes: b.cfg.LineBytes, InstrsPerRef: perLine},
		&refs.Scan{Base: dstAddr, Bytes: nBytes, LineBytes: b.cfg.LineBytes, Write: true, InstrsPerRef: perLine},
	)
	gen := refs.NewWithTail(refs.NewRepeat(onePass, int(passes)), b.cfg.SpawnInstrs)
	t := b.d.AddTask(fmt.Sprintf("sortleaf[%d:%d)", lo, lo+n), gen)
	t.Site = "mergesort.go:sortleaf"
	t.Param = float64(2 * nBytes)
	t.Level = depth
	return t.ID
}

// parallelMerge emits the k merge tasks that merge the two sorted halves of
// [lo, lo+n) from the source buffer into the destination buffer, splitting
// the output into chunks.  The chunk count is at least large enough to keep
// MergeTasksPerLevel tasks per DAG level in aggregate.
func (b *msBuilder) parallelMerge(group *taskgroup.Node, lo, n int64, depth int, dstA bool) []dag.TaskID {
	nBytes := n * b.cfg.ElemBytes
	mergesAtLevel := max(1, b.totalBytes/nBytes)
	k := imath.CeilDiv(n, b.mergeChunkElems())
	if minK := imath.CeilDiv(b.cfg.MergeTasksPerLevel, mergesAtLevel); k < minK {
		k = minK
	}
	if k > n {
		k = n
	}
	if b.cfg.SerialMerge {
		k = 1
	}
	perLine := b.instrsPerLine(b.cfg.MergeInstrsPerElem)
	ids := make([]dag.TaskID, 0, k)
	chunk := imath.CeilDiv(n, k)
	for start := int64(0); start < n; start += chunk {
		cnt := min(chunk, n-start)
		// A merge task reads roughly cnt elements spread over the two
		// source halves and writes cnt output elements. We model the
		// reads as two scans of cnt/2 elements at the matching offsets
		// of each half and the write as a scan of the output chunk,
		// plus a short binary-search probe for the split points.
		srcLoAddr, _ := b.region(lo+start/2, cnt/2+1, !dstA)
		srcHiAddr, _ := b.region(lo+n/2+start/2, cnt/2+1, !dstA)
		dstAddr, _ := b.region(lo+start, cnt, dstA)
		halfBytes := (cnt/2 + 1) * b.cfg.ElemBytes
		search := &refs.Strided{
			Base:         srcLoAddr,
			StrideBytes:  max(b.cfg.LineBytes, nBytes/16),
			Count:        min(8, max(1, imath.Log2Ceil(n))),
			InstrsPerRef: 12,
		}
		gen := refs.NewWithTail(refs.NewConcat(
			search,
			refs.NewInterleave(
				&refs.Scan{Base: srcLoAddr, Bytes: halfBytes, LineBytes: b.cfg.LineBytes, InstrsPerRef: perLine},
				&refs.Scan{Base: srcHiAddr, Bytes: halfBytes, LineBytes: b.cfg.LineBytes, InstrsPerRef: perLine},
			),
			&refs.Scan{Base: dstAddr, Bytes: cnt * b.cfg.ElemBytes, LineBytes: b.cfg.LineBytes, Write: true, InstrsPerRef: perLine / 2},
		), b.cfg.SpawnInstrs/4)
		t := b.d.AddTask(fmt.Sprintf("merge[%d:%d)+%d", lo, lo+n, start), gen)
		t.Site = "mergesort.go:merge"
		t.Param = float64(2 * nBytes)
		t.Level = depth
		b.tree.Own(group, t.ID)
		ids = append(ids, t.ID)
	}
	return ids
}
