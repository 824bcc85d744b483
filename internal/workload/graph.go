package workload

import (
	"cmpsched/internal/dag"
	"cmpsched/internal/graph"
	"cmpsched/internal/taskgroup"
)

// GraphShape selects the input graph and the trace granularity shared by the
// irregular graph kernels (BFS, SSSP, PageRank, triangle counting,
// connectivity, k-core, MIS, maximal matching).  These
// are the "graph-shape parameters" of the workloads: unlike the regular
// benchmarks, the reference streams depend on the generated adjacency
// structure, not only on the input size.
type GraphShape struct {
	// Family is the generator family: "uniform", "grid" or "rmat"
	// (default "uniform").
	Family string
	// Vertices is the number of vertices (default kernel-specific; the
	// kernels' defaults are sized so a full default-table sweep finishes in
	// minutes, like the regular benchmarks).
	Vertices int64
	// AvgDegree is the target average degree (default 8).
	AvgDegree int64
	// Seed selects the pseudo-random edge set (default 1).
	Seed uint64
	// LineBytes is the granularity of emitted references (default 128).
	LineBytes int64
	// EdgesPerTask is the per-task edge-traversal budget, the
	// task-granularity knob (default 4096).
	EdgesPerTask int64
}

func (s GraphShape) withDefaults(vertices int64) GraphShape {
	if s.Family == "" {
		s.Family = graph.FamilyUniform
	}
	if s.Vertices == 0 {
		s.Vertices = vertices
	}
	if s.AvgDegree == 0 {
		s.AvgDegree = 8
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.LineBytes == 0 {
		s.LineBytes = DefaultLineBytes
	}
	if s.EdgesPerTask == 0 {
		s.EdgesPerTask = 4096
	}
	return s
}

// build generates the shape's graph.
func (s GraphShape) build() (*graph.CSR, error) {
	return graph.New(graph.Config{
		Family:    s.Family,
		Vertices:  s.Vertices,
		AvgDegree: s.AvgDegree,
		Seed:      s.Seed,
	})
}

// costs maps the shape to kernel cost parameters.
func (s GraphShape) costs() graph.Costs {
	return graph.Costs{LineBytes: s.LineBytes, EdgesPerTask: s.EdgesPerTask}
}

// BFSConfig parameterises the level-synchronous breadth-first search
// benchmark.
type BFSConfig struct {
	Shape GraphShape
	// Source is the search root (default 0).
	Source int64
}

// BFSWorkload builds BFS DAGs.
type BFSWorkload struct{ cfg BFSConfig }

// NewBFS returns a BFS workload; zero config fields take defaults.
func NewBFS(cfg BFSConfig) *BFSWorkload {
	cfg.Shape = cfg.Shape.withDefaults(1 << 15)
	return &BFSWorkload{cfg: cfg}
}

// Name implements Workload.
func (w *BFSWorkload) Name() string { return "bfs" }

// Config returns the effective (default-filled) configuration.
func (w *BFSWorkload) Config() BFSConfig { return w.cfg }

// Build implements Workload.
func (w *BFSWorkload) Build() (*dag.DAG, *taskgroup.Tree, error) {
	g, err := w.cfg.Shape.build()
	if err != nil {
		return nil, nil, err
	}
	return graph.BFS(g, w.cfg.Source, w.cfg.Shape.costs())
}

// SSSPConfig parameterises the round-based Bellman-Ford single-source
// shortest-paths benchmark.
type SSSPConfig struct {
	Shape GraphShape
	// Source is the search root (default 0).
	Source int64
	// MaxWeight bounds the deterministic per-edge weights (default 16).
	MaxWeight int64
	// MaxRounds caps the relaxation rounds (default 64; 0 keeps the
	// default — use a negative value to run to convergence).
	MaxRounds int64
}

// SSSPWorkload builds Bellman-Ford DAGs.
type SSSPWorkload struct{ cfg SSSPConfig }

// NewSSSP returns an SSSP workload; zero config fields take defaults.
func NewSSSP(cfg SSSPConfig) *SSSPWorkload {
	cfg.Shape = cfg.Shape.withDefaults(1 << 15)
	if cfg.MaxWeight == 0 {
		cfg.MaxWeight = 16
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 64
	}
	return &SSSPWorkload{cfg: cfg}
}

// Name implements Workload.
func (w *SSSPWorkload) Name() string { return "sssp" }

// Config returns the effective (default-filled) configuration.
func (w *SSSPWorkload) Config() SSSPConfig { return w.cfg }

// Build implements Workload.
func (w *SSSPWorkload) Build() (*dag.DAG, *taskgroup.Tree, error) {
	g, err := w.cfg.Shape.build()
	if err != nil {
		return nil, nil, err
	}
	rounds := w.cfg.MaxRounds
	if rounds < 0 {
		rounds = 0 // run to convergence
	}
	return graph.BellmanFord(g, w.cfg.Source, w.cfg.Shape.Seed, w.cfg.MaxWeight, rounds, w.cfg.Shape.costs())
}

// PageRankConfig parameterises the PageRank power-iteration benchmark.
type PageRankConfig struct {
	Shape GraphShape
	// Iterations is the number of power-iteration sweeps (default 8).
	Iterations int64
}

// PageRankWorkload builds PageRank DAGs.
type PageRankWorkload struct{ cfg PageRankConfig }

// NewPageRank returns a PageRank workload; zero config fields take defaults.
func NewPageRank(cfg PageRankConfig) *PageRankWorkload {
	cfg.Shape = cfg.Shape.withDefaults(1 << 13)
	if cfg.Iterations == 0 {
		cfg.Iterations = 8
	}
	return &PageRankWorkload{cfg: cfg}
}

// Name implements Workload.
func (w *PageRankWorkload) Name() string { return "pagerank" }

// Config returns the effective (default-filled) configuration.
func (w *PageRankWorkload) Config() PageRankConfig { return w.cfg }

// Build implements Workload.
func (w *PageRankWorkload) Build() (*dag.DAG, *taskgroup.Tree, error) {
	g, err := w.cfg.Shape.build()
	if err != nil {
		return nil, nil, err
	}
	return graph.PageRank(g, w.cfg.Iterations, w.cfg.Shape.costs())
}

// TrianglesConfig parameterises the triangle-counting benchmark.
type TrianglesConfig struct {
	Shape GraphShape
}

// TrianglesWorkload builds triangle-counting DAGs.
type TrianglesWorkload struct{ cfg TrianglesConfig }

// NewTriangles returns a triangle-counting workload; zero config fields take
// defaults.
func NewTriangles(cfg TrianglesConfig) *TrianglesWorkload {
	cfg.Shape = cfg.Shape.withDefaults(1 << 14)
	return &TrianglesWorkload{cfg: cfg}
}

// Name implements Workload.
func (w *TrianglesWorkload) Name() string { return "triangles" }

// Config returns the effective (default-filled) configuration.
func (w *TrianglesWorkload) Config() TrianglesConfig { return w.cfg }

// Build implements Workload.
func (w *TrianglesWorkload) Build() (*dag.DAG, *taskgroup.Tree, error) {
	g, err := w.cfg.Shape.build()
	if err != nil {
		return nil, nil, err
	}
	d, tree, _, err := graph.Triangles(g, w.cfg.Shape.costs())
	return d, tree, err
}

// ConnectivityConfig parameterises the low-diameter-decomposition
// connected-components benchmark.
type ConnectivityConfig struct {
	Shape GraphShape
}

// ConnectivityWorkload builds LDD connectivity DAGs.
type ConnectivityWorkload struct{ cfg ConnectivityConfig }

// NewConnectivity returns a connectivity workload; zero config fields take
// defaults.
func NewConnectivity(cfg ConnectivityConfig) *ConnectivityWorkload {
	cfg.Shape = cfg.Shape.withDefaults(1 << 15)
	return &ConnectivityWorkload{cfg: cfg}
}

// Name implements Workload.
func (w *ConnectivityWorkload) Name() string { return "connectivity" }

// Config returns the effective (default-filled) configuration.
func (w *ConnectivityWorkload) Config() ConnectivityConfig { return w.cfg }

// Build implements Workload.
func (w *ConnectivityWorkload) Build() (*dag.DAG, *taskgroup.Tree, error) {
	g, err := w.cfg.Shape.build()
	if err != nil {
		return nil, nil, err
	}
	d, tree, _, err := graph.Connectivity(g, w.cfg.Shape.Seed, w.cfg.Shape.costs())
	return d, tree, err
}

// KCoreConfig parameterises the bucketed-peeling k-core benchmark.
type KCoreConfig struct {
	Shape GraphShape
}

// KCoreWorkload builds k-core peeling DAGs.
type KCoreWorkload struct{ cfg KCoreConfig }

// NewKCore returns a k-core workload; zero config fields take defaults.
func NewKCore(cfg KCoreConfig) *KCoreWorkload {
	cfg.Shape = cfg.Shape.withDefaults(1 << 15)
	return &KCoreWorkload{cfg: cfg}
}

// Name implements Workload.
func (w *KCoreWorkload) Name() string { return "kcore" }

// Config returns the effective (default-filled) configuration.
func (w *KCoreWorkload) Config() KCoreConfig { return w.cfg }

// Build implements Workload.
func (w *KCoreWorkload) Build() (*dag.DAG, *taskgroup.Tree, error) {
	g, err := w.cfg.Shape.build()
	if err != nil {
		return nil, nil, err
	}
	d, tree, _, err := graph.KCore(g, w.cfg.Shape.costs())
	return d, tree, err
}

// MISConfig parameterises the random-priority maximal-independent-set
// benchmark.
type MISConfig struct {
	Shape GraphShape
}

// MISWorkload builds MIS DAGs.
type MISWorkload struct{ cfg MISConfig }

// NewMIS returns an MIS workload; zero config fields take defaults.
func NewMIS(cfg MISConfig) *MISWorkload {
	cfg.Shape = cfg.Shape.withDefaults(1 << 15)
	return &MISWorkload{cfg: cfg}
}

// Name implements Workload.
func (w *MISWorkload) Name() string { return "mis" }

// Config returns the effective (default-filled) configuration.
func (w *MISWorkload) Config() MISConfig { return w.cfg }

// Build implements Workload.
func (w *MISWorkload) Build() (*dag.DAG, *taskgroup.Tree, error) {
	g, err := w.cfg.Shape.build()
	if err != nil {
		return nil, nil, err
	}
	d, tree, _, err := graph.MIS(g, w.cfg.Shape.Seed, w.cfg.Shape.costs())
	return d, tree, err
}

// MatchingConfig parameterises the random-priority maximal-matching
// benchmark.
type MatchingConfig struct {
	Shape GraphShape
}

// MatchingWorkload builds maximal-matching DAGs.
type MatchingWorkload struct{ cfg MatchingConfig }

// NewMatching returns a maximal-matching workload; zero config fields take
// defaults.
func NewMatching(cfg MatchingConfig) *MatchingWorkload {
	cfg.Shape = cfg.Shape.withDefaults(1 << 15)
	return &MatchingWorkload{cfg: cfg}
}

// Name implements Workload.
func (w *MatchingWorkload) Name() string { return "matching" }

// Config returns the effective (default-filled) configuration.
func (w *MatchingWorkload) Config() MatchingConfig { return w.cfg }

// Build implements Workload.
func (w *MatchingWorkload) Build() (*dag.DAG, *taskgroup.Tree, error) {
	g, err := w.cfg.Shape.build()
	if err != nil {
		return nil, nil, err
	}
	d, tree, _, err := graph.MaximalMatching(g, w.cfg.Shape.Seed, w.cfg.Shape.costs())
	return d, tree, err
}

// The graph kernels self-register, like any future workload should.
func init() {
	Register("bfs", func() Workload { return NewBFS(BFSConfig{}) })
	Register("sssp", func() Workload { return NewSSSP(SSSPConfig{}) })
	Register("pagerank", func() Workload { return NewPageRank(PageRankConfig{}) })
	Register("triangles", func() Workload { return NewTriangles(TrianglesConfig{}) })
	Register("connectivity", func() Workload { return NewConnectivity(ConnectivityConfig{}) })
	Register("kcore", func() Workload { return NewKCore(KCoreConfig{}) })
	Register("mis", func() Workload { return NewMIS(MISConfig{}) })
	Register("matching", func() Workload { return NewMatching(MatchingConfig{}) })
}
