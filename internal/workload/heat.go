package workload

import (
	"fmt"

	"cmpsched/internal/dag"
	"cmpsched/internal/imath"
	"cmpsched/internal/refs"
	"cmpsched/internal/taskgroup"
)

// HeatConfig parameterises the Heat diffusion (Jacobi stencil) benchmark,
// one of the scientific-simulation benchmarks summarised in §5.5.  Each time
// step updates every grid point from its neighbours in the previous-step
// buffer; the grid is split into row blocks that are updated by parallel
// tasks, with a synchronisation between steps.  When the two grid buffers
// fit in the shared L2 the benchmark has excellent reuse across steps and
// scheduling barely matters; when they do not, every step streams the grid
// from memory under either scheduler.
type HeatConfig struct {
	// Rows and Cols are the grid dimensions in elements (doubles).
	// Defaults 512 x 512 (a 2 MB grid).
	Rows, Cols int64
	// Steps is the number of time steps (default 20).
	Steps int64
	// RowsPerTask is the row-block height per task (default 32).
	RowsPerTask int64
	// ElemBytes is the element size (8 for doubles).
	ElemBytes int64
	// LineBytes is the reference granularity (default 128).
	LineBytes int64
	// InstrsPerElem is the instruction cost per grid point per step.
	InstrsPerElem int64
	// SpawnInstrs is the per-task and per-barrier overhead.
	SpawnInstrs int64
}

func (c HeatConfig) withDefaults() HeatConfig {
	if c.Rows == 0 {
		c.Rows = 512
	}
	if c.Cols == 0 {
		c.Cols = 512
	}
	if c.Steps == 0 {
		c.Steps = 20
	}
	if c.RowsPerTask == 0 {
		c.RowsPerTask = 32
	}
	if c.ElemBytes == 0 {
		c.ElemBytes = 8
	}
	if c.LineBytes == 0 {
		c.LineBytes = DefaultLineBytes
	}
	if c.InstrsPerElem == 0 {
		c.InstrsPerElem = 8
	}
	if c.SpawnInstrs == 0 {
		c.SpawnInstrs = 200
	}
	return c
}

// Heat builds Jacobi-stencil DAGs.
type Heat struct {
	cfg HeatConfig
}

// NewHeat returns a Heat workload; zero config fields take defaults.
func NewHeat(cfg HeatConfig) *Heat { return &Heat{cfg: cfg.withDefaults()} }

// Name implements Workload.
func (h *Heat) Name() string { return "heat" }

// Config returns the effective configuration.
func (h *Heat) Config() HeatConfig { return h.cfg }

// GridBytes returns the size of one grid buffer.
func (h *Heat) GridBytes() int64 { return h.cfg.Rows * h.cfg.Cols * h.cfg.ElemBytes }

// Build implements Workload.
func (h *Heat) Build() (*dag.DAG, *taskgroup.Tree, error) {
	c := h.cfg
	if c.Rows <= 0 || c.Cols <= 0 || c.Steps <= 0 || c.RowsPerTask <= 0 {
		return nil, nil, fmt.Errorf("workload: heat: non-positive sizes")
	}
	d := dag.New(fmt.Sprintf("heat-%dx%dx%d", c.Rows, c.Cols, c.Steps))
	tree := taskgroup.New("heat")

	rowBytes := c.Cols * c.ElemBytes
	blocks := imath.CeilDiv(c.Rows, c.RowsPerTask)
	perLine := max(1, c.InstrsPerElem*c.LineBytes/c.ElemBytes)

	prevBarrier := d.AddComputeTask("heat-init", c.SpawnInstrs)
	tree.Own(tree.Root, prevBarrier.ID)

	for step := int64(0); step < c.Steps; step++ {
		stepGroup := tree.AddChild(tree.Root, fmt.Sprintf("step-%d", step), "heat.go:step", float64(2*h.GridBytes()), 0)
		src, dst := baseGridA, baseGridB
		if step%2 == 1 {
			src, dst = dst, src
		}
		ids := make([]dag.TaskID, 0, blocks)
		for blk := int64(0); blk < blocks; blk++ {
			firstRow := blk * c.RowsPerTask
			rows := min(c.RowsPerTask, c.Rows-firstRow)
			// Read the block plus one halo row on each side; write the
			// block into the destination buffer.
			readFirst := max(0, firstRow-1)
			readRows := min(c.Rows, firstRow+rows+1) - readFirst
			gen := refs.NewWithTail(refs.NewConcat(
				&refs.Scan{Base: src + uint64(readFirst*rowBytes), Bytes: readRows * rowBytes, LineBytes: c.LineBytes, InstrsPerRef: perLine},
				&refs.Scan{Base: dst + uint64(firstRow*rowBytes), Bytes: rows * rowBytes, LineBytes: c.LineBytes, Write: true, InstrsPerRef: perLine / 4},
			), c.SpawnInstrs)
			t := d.AddTask(fmt.Sprintf("heat[%d].rows[%d:%d)", step, firstRow, firstRow+rows), gen)
			t.Site = "heat.go:block"
			t.Param = float64(readRows * rowBytes)
			t.Level = int(step)
			d.MustEdge(prevBarrier.ID, t.ID)
			tree.Own(stepGroup, t.ID)
			ids = append(ids, t.ID)
		}
		barrier := d.AddComputeTask(fmt.Sprintf("heat-sync-%d", step), c.SpawnInstrs)
		barrier.Site = "heat.go:step"
		barrier.Level = int(step)
		for _, id := range ids {
			d.MustEdge(id, barrier.ID)
		}
		tree.Own(stepGroup, barrier.ID)
		prevBarrier = barrier
	}

	if err := d.Validate(); err != nil {
		return nil, nil, fmt.Errorf("workload: heat: %w", err)
	}
	if err := tree.Finalize(d); err != nil {
		return nil, nil, fmt.Errorf("workload: heat: %w", err)
	}
	return d, tree, nil
}
