package workload

import (
	"fmt"

	"cmpsched/internal/dag"
	"cmpsched/internal/imath"
	"cmpsched/internal/prng"
	"cmpsched/internal/refs"
	"cmpsched/internal/taskgroup"
)

// QuicksortConfig parameterises the parallel Quicksort benchmark (§5.5).
//
// Quicksort follows the recursive divide-and-conquer paradigm like
// Mergesort, but its "divide" step (the partition around a pivot) can split
// a sub-problem into two highly imbalanced parts, which is the property the
// paper calls out: PDF must handle irregular, dynamically spawned tasks.
// The generator draws pivot split fractions deterministically from a
// configurable range to model that imbalance.
type QuicksortConfig struct {
	// Elements is the number of 4-byte keys to sort. Default 1<<20.
	Elements int64
	// ElemBytes is the key size (default 4).
	ElemBytes int64
	// LineBytes is the reference granularity (default 128).
	LineBytes int64
	// LeafElems is the sub-array size sorted sequentially. Default 4096.
	LeafElems int64
	// MinSplit and MaxSplit bound the fraction of elements that fall on
	// the left of the pivot (defaults 0.25 and 0.75).
	MinSplit, MaxSplit float64
	// PartitionInstrsPerElem and SortInstrsPerElem are instruction costs.
	PartitionInstrsPerElem int64
	SortInstrsPerElem      int64
	// SpawnInstrs is the spawn/sync overhead per recursive call.
	SpawnInstrs int64
	// Seed drives the deterministic pivot choices.
	Seed uint64
}

func (c QuicksortConfig) withDefaults() QuicksortConfig {
	if c.Elements == 0 {
		c.Elements = 1 << 20
	}
	if c.ElemBytes == 0 {
		c.ElemBytes = 4
	}
	if c.LineBytes == 0 {
		c.LineBytes = DefaultLineBytes
	}
	if c.LeafElems == 0 {
		c.LeafElems = 4096
	}
	if c.MinSplit == 0 {
		c.MinSplit = 0.25
	}
	if c.MaxSplit == 0 {
		c.MaxSplit = 0.75
	}
	if c.PartitionInstrsPerElem == 0 {
		c.PartitionInstrsPerElem = 4
	}
	if c.SortInstrsPerElem == 0 {
		c.SortInstrsPerElem = 6
	}
	if c.SpawnInstrs == 0 {
		c.SpawnInstrs = 200
	}
	if c.Seed == 0 {
		c.Seed = 0x5eed_ca11
	}
	return c
}

// Quicksort builds parallel Quicksort DAGs.
type Quicksort struct {
	cfg QuicksortConfig
}

// NewQuicksort returns a Quicksort workload; zero fields take defaults.
func NewQuicksort(cfg QuicksortConfig) *Quicksort {
	return &Quicksort{cfg: cfg.withDefaults()}
}

// Name implements Workload.
func (q *Quicksort) Name() string { return "quicksort" }

// Config returns the effective configuration.
func (q *Quicksort) Config() QuicksortConfig { return q.cfg }

// Build implements Workload.
func (q *Quicksort) Build() (*dag.DAG, *taskgroup.Tree, error) {
	c := q.cfg
	if c.Elements <= 0 || c.LeafElems <= 0 {
		return nil, nil, fmt.Errorf("workload: quicksort: non-positive sizes")
	}
	if c.MinSplit <= 0 || c.MaxSplit >= 1 || c.MinSplit > c.MaxSplit {
		return nil, nil, fmt.Errorf("workload: quicksort: invalid split range [%f, %f]", c.MinSplit, c.MaxSplit)
	}
	d := dag.New(fmt.Sprintf("quicksort-%dK", c.Elements>>10))
	tree := taskgroup.New("quicksort")
	b := &qsBuilder{cfg: c, d: d, tree: tree, rng: prng.SplitMix64{State: c.Seed}}
	b.sort(tree.Root, 0, c.Elements, 0)
	if err := d.Validate(); err != nil {
		return nil, nil, fmt.Errorf("workload: quicksort: %w", err)
	}
	if err := tree.Finalize(d); err != nil {
		return nil, nil, fmt.Errorf("workload: quicksort: %w", err)
	}
	return d, tree, nil
}

type qsBuilder struct {
	cfg  QuicksortConfig
	d    *dag.DAG
	tree *taskgroup.Tree
	rng  prng.SplitMix64
}

// splitFraction returns a deterministic pseudo-random fraction in
// [MinSplit, MaxSplit].
func (b *qsBuilder) splitFraction() float64 {
	u := float64(b.rng.Next()>>11) / float64(1<<53)
	return b.cfg.MinSplit + u*(b.cfg.MaxSplit-b.cfg.MinSplit)
}

func (b *qsBuilder) instrsPerLine(perElem int64) int64 {
	elemsPerLine := b.cfg.LineBytes / b.cfg.ElemBytes
	if elemsPerLine < 1 {
		elemsPerLine = 1
	}
	return perElem * elemsPerLine
}

func (b *qsBuilder) region(lo, n int64) (uint64, int64) {
	return baseQuicksort + uint64(lo*b.cfg.ElemBytes), n * b.cfg.ElemBytes
}

// sort emits tasks sorting elements [lo, lo+n). It returns the entry task
// and the exit tasks (quicksort has no combine step, so a sub-DAG may have
// several sinks).
func (b *qsBuilder) sort(parent *taskgroup.Node, lo, n int64, depth int) (entry dag.TaskID, exits []dag.TaskID) {
	nBytes := n * b.cfg.ElemBytes
	group := b.tree.AddChild(parent, fmt.Sprintf("qsort[%d:%d)", lo, lo+n), "quicksort.go:sort", float64(nBytes), 0)

	if n <= b.cfg.LeafElems {
		addr, bytes := b.region(lo, n)
		passes := max(1, imath.Log2Ceil(n))
		onePass := refs.NewConcat(
			&refs.Scan{Base: addr, Bytes: bytes, LineBytes: b.cfg.LineBytes, InstrsPerRef: b.instrsPerLine(b.cfg.SortInstrsPerElem)},
			&refs.Scan{Base: addr, Bytes: bytes, LineBytes: b.cfg.LineBytes, Write: true, InstrsPerRef: b.instrsPerLine(b.cfg.SortInstrsPerElem) / 2},
		)
		t := b.d.AddTask(fmt.Sprintf("qsortleaf[%d:%d)", lo, lo+n), refs.NewWithTail(refs.NewRepeat(onePass, int(passes)), b.cfg.SpawnInstrs))
		t.Site = "quicksort.go:leaf"
		t.Param = float64(nBytes)
		t.Level = depth
		b.tree.Own(group, t.ID)
		return t.ID, []dag.TaskID{t.ID}
	}

	// Partition: one sequential pass reading and writing the region.
	addr, bytes := b.region(lo, n)
	part := b.d.AddTask(fmt.Sprintf("partition[%d:%d)", lo, lo+n), refs.NewWithTail(refs.NewInterleave(
		&refs.Scan{Base: addr, Bytes: bytes, LineBytes: b.cfg.LineBytes, InstrsPerRef: b.instrsPerLine(b.cfg.PartitionInstrsPerElem)},
		&refs.Scan{Base: addr, Bytes: bytes, LineBytes: b.cfg.LineBytes, Write: true, InstrsPerRef: b.instrsPerLine(b.cfg.PartitionInstrsPerElem) / 2},
	), b.cfg.SpawnInstrs))
	part.Site = "quicksort.go:partition"
	part.Param = float64(nBytes)
	part.Level = depth
	b.tree.Own(group, part.ID)

	// The divide point is chosen by the pivot, not for balance.
	leftN := int64(float64(n) * b.splitFraction())
	if leftN < 1 {
		leftN = 1
	}
	if leftN >= n {
		leftN = n - 1
	}
	leftEntry, leftExits := b.sort(group, lo, leftN, depth+1)
	rightEntry, rightExits := b.sort(group, lo+leftN, n-leftN, depth+1)
	b.d.MustEdge(part.ID, leftEntry)
	b.d.MustEdge(part.ID, rightEntry)
	return part.ID, append(leftExits, rightExits...)
}
