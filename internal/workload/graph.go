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

// Kernel is a graph-kernel workload: it generates its configuration's graph
// and runs the kernel's DAG builder on it.  C is the kernel's configuration
// type, e.g. BFSConfig.
type Kernel[C any] struct {
	name  string
	cfg   C
	shape GraphShape // cfg's Shape
	run   func(g *graph.CSR, costs graph.Costs) (*dag.DAG, *taskgroup.Tree, error)
}

// Name implements Workload.
func (k *Kernel[C]) Name() string { return k.name }

// Config returns the effective (default-filled) configuration.
func (k *Kernel[C]) Config() C { return k.cfg }

// Build implements Workload.
func (k *Kernel[C]) Build() (*dag.DAG, *taskgroup.Tree, error) {
	g, err := k.shape.build()
	if err != nil {
		return nil, nil, err
	}
	return k.run(g, k.shape.costs())
}

// dropResult returns a kernel's DAG, tree and error without its host-side
// result (a count, labelling or matching), which only tests inspect.
func dropResult[R any](d *dag.DAG, tree *taskgroup.Tree, _ R, err error) (*dag.DAG, *taskgroup.Tree, error) {
	return d, tree, err
}

// BFSConfig parameterises the level-synchronous breadth-first search
// benchmark.
type BFSConfig struct {
	Shape GraphShape
	// Source is the search root (default 0).
	Source int64
}

// NewBFS returns a BFS workload; zero config fields take defaults.
func NewBFS(cfg BFSConfig) *Kernel[BFSConfig] {
	cfg.Shape = cfg.Shape.withDefaults(1 << 15)
	return &Kernel[BFSConfig]{"bfs", cfg, cfg.Shape, func(g *graph.CSR, c graph.Costs) (*dag.DAG, *taskgroup.Tree, error) {
		return graph.BFS(g, cfg.Source, c)
	}}
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

// NewSSSP returns an SSSP workload; zero config fields take defaults.
func NewSSSP(cfg SSSPConfig) *Kernel[SSSPConfig] {
	cfg.Shape = cfg.Shape.withDefaults(1 << 15)
	if cfg.MaxWeight == 0 {
		cfg.MaxWeight = 16
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 64
	}
	return &Kernel[SSSPConfig]{"sssp", cfg, cfg.Shape, func(g *graph.CSR, c graph.Costs) (*dag.DAG, *taskgroup.Tree, error) {
		// BellmanFord takes 0 to mean "run to convergence".
		return graph.BellmanFord(g, cfg.Source, cfg.Shape.Seed, cfg.MaxWeight, max(cfg.MaxRounds, 0), c)
	}}
}

// PageRankConfig parameterises the PageRank power-iteration benchmark.
type PageRankConfig struct {
	Shape GraphShape
	// Iterations is the number of power-iteration sweeps (default 8).
	Iterations int64
}

// NewPageRank returns a PageRank workload; zero config fields take defaults.
func NewPageRank(cfg PageRankConfig) *Kernel[PageRankConfig] {
	cfg.Shape = cfg.Shape.withDefaults(1 << 13)
	if cfg.Iterations == 0 {
		cfg.Iterations = 8
	}
	return &Kernel[PageRankConfig]{"pagerank", cfg, cfg.Shape, func(g *graph.CSR, c graph.Costs) (*dag.DAG, *taskgroup.Tree, error) {
		return graph.PageRank(g, cfg.Iterations, c)
	}}
}

// TrianglesConfig parameterises the triangle-counting benchmark.
type TrianglesConfig struct {
	Shape GraphShape
}

// NewTriangles returns a triangle-counting workload; zero config fields take
// defaults.
func NewTriangles(cfg TrianglesConfig) *Kernel[TrianglesConfig] {
	cfg.Shape = cfg.Shape.withDefaults(1 << 14)
	return &Kernel[TrianglesConfig]{"triangles", cfg, cfg.Shape, func(g *graph.CSR, c graph.Costs) (*dag.DAG, *taskgroup.Tree, error) {
		return dropResult(graph.Triangles(g, c))
	}}
}

// ConnectivityConfig parameterises the low-diameter-decomposition
// connected-components benchmark.
type ConnectivityConfig struct {
	Shape GraphShape
}

// NewConnectivity returns a connectivity workload; zero config fields take
// defaults.
func NewConnectivity(cfg ConnectivityConfig) *Kernel[ConnectivityConfig] {
	cfg.Shape = cfg.Shape.withDefaults(1 << 15)
	return &Kernel[ConnectivityConfig]{"connectivity", cfg, cfg.Shape, func(g *graph.CSR, c graph.Costs) (*dag.DAG, *taskgroup.Tree, error) {
		return dropResult(graph.Connectivity(g, cfg.Shape.Seed, c))
	}}
}

// KCoreConfig parameterises the bucketed-peeling k-core benchmark.
type KCoreConfig struct {
	Shape GraphShape
}

// NewKCore returns a k-core workload; zero config fields take defaults.
func NewKCore(cfg KCoreConfig) *Kernel[KCoreConfig] {
	cfg.Shape = cfg.Shape.withDefaults(1 << 15)
	return &Kernel[KCoreConfig]{"kcore", cfg, cfg.Shape, func(g *graph.CSR, c graph.Costs) (*dag.DAG, *taskgroup.Tree, error) {
		return dropResult(graph.KCore(g, c))
	}}
}

// MISConfig parameterises the random-priority maximal-independent-set
// benchmark.
type MISConfig struct {
	Shape GraphShape
}

// NewMIS returns an MIS workload; zero config fields take defaults.
func NewMIS(cfg MISConfig) *Kernel[MISConfig] {
	cfg.Shape = cfg.Shape.withDefaults(1 << 15)
	return &Kernel[MISConfig]{"mis", cfg, cfg.Shape, func(g *graph.CSR, c graph.Costs) (*dag.DAG, *taskgroup.Tree, error) {
		return dropResult(graph.MIS(g, cfg.Shape.Seed, c))
	}}
}

// MatchingConfig parameterises the random-priority maximal-matching
// benchmark.
type MatchingConfig struct {
	Shape GraphShape
}

// NewMatching returns a maximal-matching workload; zero config fields take
// defaults.
func NewMatching(cfg MatchingConfig) *Kernel[MatchingConfig] {
	cfg.Shape = cfg.Shape.withDefaults(1 << 15)
	return &Kernel[MatchingConfig]{"matching", cfg, cfg.Shape, func(g *graph.CSR, c graph.Costs) (*dag.DAG, *taskgroup.Tree, error) {
		return dropResult(graph.MaximalMatching(g, cfg.Shape.Seed, c))
	}}
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
