package workload

import (
	"fmt"

	"cmpsched/internal/dag"
	"cmpsched/internal/refs"
	"cmpsched/internal/taskgroup"
)

// MatMulConfig parameterises the blocked matrix-multiply benchmark, one of
// the additional numeric benchmarks summarised in §5.5: like LU it has a
// small per-task working set and a tiny L2 miss ratio, so PDF and WS behave
// alike on it.
type MatMulConfig struct {
	// N is the matrix dimension in elements (doubles). Default 256.
	N int64
	// BlockElems is the output-block size per task. Default 32.
	BlockElems int64
	// ElemBytes is the element size (8 for doubles).
	ElemBytes int64
	// LineBytes is the reference granularity (default 128).
	LineBytes int64
	// SpawnInstrs is the per-task spawn/sync overhead.
	SpawnInstrs int64
}

func (c MatMulConfig) withDefaults() MatMulConfig {
	if c.N == 0 {
		c.N = 256
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
	if c.SpawnInstrs == 0 {
		c.SpawnInstrs = 200
	}
	return c
}

// MatMul builds blocked matrix-multiply DAGs.
type MatMul struct {
	cfg MatMulConfig
}

// NewMatMul returns a MatMul workload; zero config fields take defaults.
func NewMatMul(cfg MatMulConfig) *MatMul { return &MatMul{cfg: cfg.withDefaults()} }

// Name implements Workload.
func (m *MatMul) Name() string { return "matmul" }

// Config returns the effective configuration.
func (m *MatMul) Config() MatMulConfig { return m.cfg }

// Build implements Workload.
func (m *MatMul) Build() (*dag.DAG, *taskgroup.Tree, error) {
	c := m.cfg
	if c.N <= 0 || c.BlockElems <= 0 || c.N%c.BlockElems != 0 {
		return nil, nil, fmt.Errorf("workload: matmul: N=%d must be a positive multiple of block size %d", c.N, c.BlockElems)
	}
	nb := c.N / c.BlockElems
	d := dag.New(fmt.Sprintf("matmul-%d", c.N))
	tree := taskgroup.New("matmul")

	blockBytes := c.BlockElems * c.BlockElems * c.ElemBytes
	panelBytes := c.BlockElems * c.N * c.ElemBytes
	b := c.BlockElems
	// One task computes C(i,j) += sum_k A(i,k)*B(k,j): it streams the
	// row panel of A and the column panel of B and read-writes one block
	// of C, performing 2*N*B^2 flops.
	taskInstrs := 2 * c.N * b * b
	linesTouched := max(1, (2*panelBytes+2*blockBytes)/c.LineBytes)
	perRef := max(1, taskInstrs/linesTouched)

	root := d.AddComputeTask("matmul-start", c.SpawnInstrs)
	tree.Own(tree.Root, root.ID)

	for i := int64(0); i < nb; i++ {
		rowGroup := tree.AddChild(tree.Root, fmt.Sprintf("row-%d", i), "matmul.go:row", float64(panelBytes), 0)
		for j := int64(0); j < nb; j++ {
			gen := refs.NewWithTail(refs.NewConcat(
				&refs.Scan{Base: baseMatrixA + uint64(i*panelBytes), Bytes: panelBytes, LineBytes: c.LineBytes, InstrsPerRef: perRef},
				&refs.Scan{Base: baseMatrixB + uint64(j*panelBytes), Bytes: panelBytes, LineBytes: c.LineBytes, InstrsPerRef: perRef},
				&refs.Scan{Base: baseMatrixC + uint64((i*nb+j)*blockBytes), Bytes: blockBytes, LineBytes: c.LineBytes, InstrsPerRef: perRef},
				&refs.Scan{Base: baseMatrixC + uint64((i*nb+j)*blockBytes), Bytes: blockBytes, LineBytes: c.LineBytes, Write: true, InstrsPerRef: perRef},
			), c.SpawnInstrs)
			t := d.AddTask(fmt.Sprintf("C(%d,%d)", i, j), gen)
			t.Site = "matmul.go:block"
			t.Level = int(i)
			t.Param = float64(2*panelBytes + blockBytes)
			d.MustEdge(root.ID, t.ID)
			tree.Own(rowGroup, t.ID)
		}
	}

	if err := d.Validate(); err != nil {
		return nil, nil, fmt.Errorf("workload: matmul: %w", err)
	}
	if err := tree.Finalize(d); err != nil {
		return nil, nil, fmt.Errorf("workload: matmul: %w", err)
	}
	return d, tree, nil
}
