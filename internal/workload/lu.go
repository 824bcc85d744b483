package workload

import (
	"fmt"

	"cmpsched/internal/dag"
	"cmpsched/internal/refs"
	"cmpsched/internal/taskgroup"
)

// LUConfig parameterises the LU factorisation benchmark.
//
// LU is the paper's representative scientific benchmark: easy
// parallelisation and small per-task working sets (a few B×B blocks), so its
// L2 misses per instruction are tiny and PDF and WS perform alike.  The
// paper used the recursive Cilk LU; this generator uses the equivalent
// right-looking blocked factorisation, whose DAG has the same block-level
// tasks (diagonal factorisation, triangular solves, trailing matrix
// updates) and the same per-task working sets, which is what the cache
// comparison depends on (see DESIGN.md).
type LUConfig struct {
	// N is the matrix dimension in elements (doubles). The default, 512
	// (a 2 MB matrix), is the paper's 2K x 2K input scaled down with the
	// caches.
	N int64
	// BlockElems is the block size B controlling the grain of
	// parallelism; a smaller block creates more, smaller tasks.
	BlockElems int64
	// ElemBytes is the element size (8 for doubles).
	ElemBytes int64
	// LineBytes is the reference granularity (default 128).
	LineBytes int64
	// FlopsPerInstr scales floating-point work into retired instructions
	// (default 3: an in-order scalar core spends loads, address arithmetic
	// and stores alongside each floating-point operation).
	FlopsPerInstr int64
	// SpawnInstrs is the per-task spawn/sync overhead.
	SpawnInstrs int64
}

func (c LUConfig) withDefaults() LUConfig {
	if c.N == 0 {
		c.N = 512
	}
	if c.BlockElems == 0 {
		c.BlockElems = 32
	}
	if c.ElemBytes == 0 {
		c.ElemBytes = 8
	}
	if c.LineBytes == 0 {
		c.LineBytes = DefaultLineBytes
	}
	if c.FlopsPerInstr == 0 {
		c.FlopsPerInstr = 3
	}
	if c.SpawnInstrs == 0 {
		c.SpawnInstrs = 200
	}
	return c
}

// LU builds blocked LU-factorisation DAGs.
type LU struct {
	cfg LUConfig
}

// NewLU returns an LU workload; zero config fields take defaults.
func NewLU(cfg LUConfig) *LU { return &LU{cfg: cfg.withDefaults()} }

// Name implements Workload.
func (l *LU) Name() string { return "lu" }

// Config returns the effective configuration.
func (l *LU) Config() LUConfig { return l.cfg }

// MatrixBytes returns the size of the input matrix.
func (l *LU) MatrixBytes() int64 { return l.cfg.N * l.cfg.N * l.cfg.ElemBytes }

// Build implements Workload.
func (l *LU) Build() (*dag.DAG, *taskgroup.Tree, error) {
	c := l.cfg
	if c.N <= 0 || c.BlockElems <= 0 {
		return nil, nil, fmt.Errorf("workload: lu: non-positive sizes")
	}
	if c.N%c.BlockElems != 0 {
		return nil, nil, fmt.Errorf("workload: lu: N=%d not a multiple of block size %d", c.N, c.BlockElems)
	}
	nb := c.N / c.BlockElems
	d := dag.New(fmt.Sprintf("lu-%d", c.N))
	tree := taskgroup.New("lu")

	blockBytes := c.BlockElems * c.BlockElems * c.ElemBytes
	blockAddr := func(i, j int64) uint64 {
		return baseMatrixA + uint64((i*nb+j)*blockBytes)
	}
	// lastWriter[i*nb+j] is the task that last wrote block (i,j).
	lastWriter := make([]dag.TaskID, nb*nb)
	for i := range lastWriter {
		lastWriter[i] = dag.None
	}
	dependOn := func(t dag.TaskID, prev dag.TaskID) {
		if prev != dag.None && prev != t {
			d.MustEdge(prev, t)
		}
	}

	b := c.BlockElems
	linesPerBlock := max(1, blockBytes/c.LineBytes)
	// Per-reference instruction budgets chosen so the per-task totals
	// approximate the block kernels' flop counts.
	diagInstrs := (2 * b * b * b / 3) * c.FlopsPerInstr
	trsmInstrs := (b * b * b) * c.FlopsPerInstr
	gemmInstrs := (2 * b * b * b) * c.FlopsPerInstr

	blockScan := func(i, j int64, write bool, perRef int64) *refs.Scan {
		return &refs.Scan{Base: blockAddr(i, j), Bytes: blockBytes, LineBytes: c.LineBytes, Write: write, InstrsPerRef: perRef}
	}

	for k := int64(0); k < nb; k++ {
		group := tree.AddChild(tree.Root, fmt.Sprintf("iteration-%d", k), "lu.go:iteration", float64((nb-k)*(nb-k))*float64(blockBytes), 0)

		// Diagonal block factorisation.
		diag := d.AddTask(fmt.Sprintf("lu(%d,%d)", k, k), refs.NewWithTail(refs.NewConcat(
			blockScan(k, k, false, diagInstrs/(2*linesPerBlock)),
			blockScan(k, k, true, diagInstrs/(2*linesPerBlock)),
		), c.SpawnInstrs))
		diag.Site = "lu.go:diag"
		diag.Level = int(k)
		dependOn(diag.ID, lastWriter[k*nb+k])
		lastWriter[k*nb+k] = diag.ID
		tree.Own(group, diag.ID)

		// Row and column panel solves.
		rowSolves := make([]dag.TaskID, 0, nb-k-1)
		colSolves := make([]dag.TaskID, 0, nb-k-1)
		for j := k + 1; j < nb; j++ {
			t := d.AddTask(fmt.Sprintf("trsmU(%d,%d)", k, j), refs.NewWithTail(refs.NewConcat(
				blockScan(k, k, false, trsmInstrs/(3*linesPerBlock)),
				blockScan(k, j, false, trsmInstrs/(3*linesPerBlock)),
				blockScan(k, j, true, trsmInstrs/(3*linesPerBlock)),
			), c.SpawnInstrs))
			t.Site = "lu.go:trsm"
			t.Level = int(k)
			d.MustEdge(diag.ID, t.ID)
			dependOn(t.ID, lastWriter[k*nb+j])
			lastWriter[k*nb+j] = t.ID
			tree.Own(group, t.ID)
			rowSolves = append(rowSolves, t.ID)
		}
		for i := k + 1; i < nb; i++ {
			t := d.AddTask(fmt.Sprintf("trsmL(%d,%d)", i, k), refs.NewWithTail(refs.NewConcat(
				blockScan(k, k, false, trsmInstrs/(3*linesPerBlock)),
				blockScan(i, k, false, trsmInstrs/(3*linesPerBlock)),
				blockScan(i, k, true, trsmInstrs/(3*linesPerBlock)),
			), c.SpawnInstrs))
			t.Site = "lu.go:trsm"
			t.Level = int(k)
			d.MustEdge(diag.ID, t.ID)
			dependOn(t.ID, lastWriter[i*nb+k])
			lastWriter[i*nb+k] = t.ID
			tree.Own(group, t.ID)
			colSolves = append(colSolves, t.ID)
		}

		// Trailing-matrix update.
		for i := k + 1; i < nb; i++ {
			for j := k + 1; j < nb; j++ {
				t := d.AddTask(fmt.Sprintf("gemm(%d,%d,%d)", i, j, k), refs.NewWithTail(refs.NewConcat(
					blockScan(i, k, false, gemmInstrs/(4*linesPerBlock)),
					blockScan(k, j, false, gemmInstrs/(4*linesPerBlock)),
					blockScan(i, j, false, gemmInstrs/(4*linesPerBlock)),
					blockScan(i, j, true, gemmInstrs/(4*linesPerBlock)),
				), c.SpawnInstrs))
				t.Site = "lu.go:gemm"
				t.Level = int(k)
				d.MustEdge(colSolves[i-k-1], t.ID)
				d.MustEdge(rowSolves[j-k-1], t.ID)
				dependOn(t.ID, lastWriter[i*nb+j])
				lastWriter[i*nb+j] = t.ID
				tree.Own(group, t.ID)
			}
		}
	}

	if err := d.Validate(); err != nil {
		return nil, nil, fmt.Errorf("workload: lu: %w", err)
	}
	if err := tree.Finalize(d); err != nil {
		return nil, nil, fmt.Errorf("workload: lu: %w", err)
	}
	return d, tree, nil
}
