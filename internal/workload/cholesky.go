package workload

import (
	"fmt"

	"cmpsched/internal/dag"
	"cmpsched/internal/refs"
	"cmpsched/internal/taskgroup"
)

// CholeskyConfig parameterises the Cholesky factorisation benchmark, one of
// the additional numeric benchmarks of §5.5 (from the Cilk distribution).
// Like LU and Matrix Multiply it achieves good cache performance with a very
// small amount of data in cache, so PDF and WS perform alike on it; it is
// included to exercise that benchmark class alongside LU.
type CholeskyConfig struct {
	// N is the matrix dimension in elements (doubles). Default 512.
	N int64
	// BlockElems is the block size controlling the grain of parallelism.
	BlockElems int64
	// ElemBytes is the element size (8 for doubles).
	ElemBytes int64
	// LineBytes is the reference granularity (default 128).
	LineBytes int64
	// FlopsPerInstr scales floating-point work into retired instructions.
	FlopsPerInstr int64
	// SpawnInstrs is the per-task spawn/sync overhead.
	SpawnInstrs int64
}

func (c CholeskyConfig) withDefaults() CholeskyConfig {
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

// Cholesky builds blocked Cholesky-factorisation DAGs (right-looking, lower
// triangular): at step k, factor the diagonal block, solve the panel below
// it, then update the trailing lower-triangular matrix.
type Cholesky struct {
	cfg CholeskyConfig
}

// NewCholesky returns a Cholesky workload; zero config fields take defaults.
func NewCholesky(cfg CholeskyConfig) *Cholesky { return &Cholesky{cfg: cfg.withDefaults()} }

// Name implements Workload.
func (c *Cholesky) Name() string { return "cholesky" }

// Config returns the effective configuration.
func (c *Cholesky) Config() CholeskyConfig { return c.cfg }

// Build implements Workload.
func (ch *Cholesky) Build() (*dag.DAG, *taskgroup.Tree, error) {
	c := ch.cfg
	if c.N <= 0 || c.BlockElems <= 0 {
		return nil, nil, fmt.Errorf("workload: cholesky: non-positive sizes")
	}
	if c.N%c.BlockElems != 0 {
		return nil, nil, fmt.Errorf("workload: cholesky: N=%d not a multiple of block size %d", c.N, c.BlockElems)
	}
	nb := c.N / c.BlockElems
	d := dag.New(fmt.Sprintf("cholesky-%d", c.N))
	tree := taskgroup.New("cholesky")

	blockBytes := c.BlockElems * c.BlockElems * c.ElemBytes
	blockAddr := func(i, j int64) uint64 {
		return baseMatrixA + uint64((i*nb+j)*blockBytes)
	}
	lastWriter := make([]dag.TaskID, nb*nb)
	for i := range lastWriter {
		lastWriter[i] = dag.None
	}
	dependOn := func(t, prev dag.TaskID) {
		if prev != dag.None && prev != t {
			d.MustEdge(prev, t)
		}
	}

	b := c.BlockElems
	linesPerBlock := max(1, blockBytes/c.LineBytes)
	potrfInstrs := (b * b * b / 3) * c.FlopsPerInstr
	trsmInstrs := (b * b * b) * c.FlopsPerInstr
	updateInstrs := (2 * b * b * b) * c.FlopsPerInstr

	blockScan := func(i, j int64, write bool, perRef int64) *refs.Scan {
		return &refs.Scan{Base: blockAddr(i, j), Bytes: blockBytes, LineBytes: c.LineBytes, Write: write, InstrsPerRef: max(1, perRef)}
	}

	for k := int64(0); k < nb; k++ {
		group := tree.AddChild(tree.Root, fmt.Sprintf("iteration-%d", k), "cholesky.go:iteration", float64((nb-k)*(nb-k))*float64(blockBytes), 0)

		potrf := d.AddTask(fmt.Sprintf("potrf(%d)", k), refs.NewWithTail(refs.NewConcat(
			blockScan(k, k, false, potrfInstrs/(2*linesPerBlock)),
			blockScan(k, k, true, potrfInstrs/(2*linesPerBlock)),
		), c.SpawnInstrs))
		potrf.Site = "cholesky.go:potrf"
		potrf.Level = int(k)
		dependOn(potrf.ID, lastWriter[k*nb+k])
		lastWriter[k*nb+k] = potrf.ID
		tree.Own(group, potrf.ID)

		panel := make([]dag.TaskID, 0, nb-k-1)
		for i := k + 1; i < nb; i++ {
			t := d.AddTask(fmt.Sprintf("trsm(%d,%d)", i, k), refs.NewWithTail(refs.NewConcat(
				blockScan(k, k, false, trsmInstrs/(3*linesPerBlock)),
				blockScan(i, k, false, trsmInstrs/(3*linesPerBlock)),
				blockScan(i, k, true, trsmInstrs/(3*linesPerBlock)),
			), c.SpawnInstrs))
			t.Site = "cholesky.go:trsm"
			t.Level = int(k)
			d.MustEdge(potrf.ID, t.ID)
			dependOn(t.ID, lastWriter[i*nb+k])
			lastWriter[i*nb+k] = t.ID
			tree.Own(group, t.ID)
			panel = append(panel, t.ID)
		}

		// Trailing update of the lower triangle: block (i,j) with j <= i
		// is updated with panel blocks i and j (syrk on the diagonal,
		// gemm off the diagonal).
		for i := k + 1; i < nb; i++ {
			for j := k + 1; j <= i; j++ {
				kind := "gemm"
				instrs := updateInstrs
				if i == j {
					kind = "syrk"
					instrs = updateInstrs / 2
				}
				t := d.AddTask(fmt.Sprintf("%s(%d,%d,%d)", kind, i, j, k), refs.NewWithTail(refs.NewConcat(
					blockScan(i, k, false, instrs/(4*linesPerBlock)),
					blockScan(j, k, false, instrs/(4*linesPerBlock)),
					blockScan(i, j, false, instrs/(4*linesPerBlock)),
					blockScan(i, j, true, instrs/(4*linesPerBlock)),
				), c.SpawnInstrs))
				t.Site = "cholesky.go:update"
				t.Level = int(k)
				d.MustEdge(panel[i-k-1], t.ID)
				if j != i {
					d.MustEdge(panel[j-k-1], t.ID)
				}
				dependOn(t.ID, lastWriter[i*nb+j])
				lastWriter[i*nb+j] = t.ID
				tree.Own(group, t.ID)
			}
		}
	}

	if err := d.Validate(); err != nil {
		return nil, nil, fmt.Errorf("workload: cholesky: %w", err)
	}
	if err := tree.Finalize(d); err != nil {
		return nil, nil, fmt.Errorf("workload: cholesky: %w", err)
	}
	return d, tree, nil
}
