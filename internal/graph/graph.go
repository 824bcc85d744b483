// Package graph is the irregular-workload subsystem: deterministic seeded
// graph generators materialised into a compact CSR representation, plus
// DAG-emitting parallel graph kernels (level-synchronous BFS, round-based
// Bellman-Ford SSSP, PageRank power iteration, triangle counting,
// low-diameter-decomposition connectivity, k-core peeling, maximal
// independent set and maximal matching).
//
// The paper evaluates constructive cache sharing on regular
// divide-and-conquer and numeric kernels; graph traversals are the canonical
// *data-dependent* scenario family: which memory a task touches is decided by
// the adjacency structure, not by the recursion shape.  Each kernel walks the
// real graph on the host to discover the data-dependent schedule (frontiers,
// relaxation rounds), then emits a computation DAG whose tasks carry
// refs.Gen memory-reference streams over the simulated CSR arrays (offsets,
// edges, weights, frontier, distance/rank vectors).  All eight emit one
// bulk-synchronous shape, a serial start and then rounds of chunk tasks
// between barriers, which one builder (rounds.go) wires.  The existing
// schedulers, cache topologies and the CMP simulator consume those DAGs
// unmodified.
package graph

import (
	"fmt"
	"slices"

	"cmpsched/internal/imath"
	"cmpsched/internal/prng"
)

// Family names accepted by Config.Family.
const (
	FamilyUniform = "uniform" // Erdős–Rényi-style uniform random edges
	FamilyGrid    = "grid"    // 2D 4-neighbour lattice (regular baseline)
	FamilyRMAT    = "rmat"    // RMAT/power-law (skewed degrees)
)

// Families lists the generator families, sorted.
func Families() []string { return []string{FamilyGrid, FamilyRMAT, FamilyUniform} }

// Config parameterises a graph generator.  The same Config always produces
// the identical CSR, on every platform: generation is seeded splitmix64.
type Config struct {
	// Family is one of FamilyUniform, FamilyGrid, FamilyRMAT (default
	// FamilyUniform).
	Family string
	// Vertices is the number of vertices (default 1<<15).  The grid family
	// rounds down to a square; RMAT rounds up to a power of two.
	Vertices int64
	// AvgDegree is the target average degree for the random families
	// (default 8; the grid's degree is fixed at 4).
	AvgDegree int64
	// Seed selects the pseudo-random edge set (default 1).
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Family == "" {
		c.Family = FamilyUniform
	}
	if c.Vertices == 0 {
		c.Vertices = 1 << 15
	}
	if c.AvgDegree == 0 {
		c.AvgDegree = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// CSR is a compact adjacency structure: the neighbours of vertex v are
// Edges[Offsets[v]:Offsets[v+1]], sorted ascending.  Graphs are undirected
// and stored symmetrically, with self loops and duplicate edges removed.
type CSR struct {
	// Name identifies the generated instance, e.g. "uniform-n32768-d8-s1".
	Name string
	// N is the number of vertices.
	N int64
	// Offsets has N+1 entries; Offsets[N] == len(Edges).
	Offsets []int64
	// Edges holds the concatenated adjacency lists.
	Edges []int32
}

// NumEdges returns the number of directed edge slots (twice the undirected
// edge count).
func (g *CSR) NumEdges() int64 { return int64(len(g.Edges)) }

// Degree returns the degree of v.
func (g *CSR) Degree(v int64) int64 { return g.Offsets[v+1] - g.Offsets[v] }

// Adj returns the sorted neighbour list of v (a view into Edges).
func (g *CSR) Adj(v int64) []int32 { return g.Edges[g.Offsets[v]:g.Offsets[v+1]] }

// MaxDegree returns the largest vertex degree.
func (g *CSR) MaxDegree() int64 {
	var m int64
	for v := int64(0); v < g.N; v++ {
		m = max(m, g.Degree(v))
	}
	return m
}

// New generates the graph described by cfg.
func New(cfg Config) (*CSR, error) {
	cfg = cfg.withDefaults()
	if cfg.Vertices < 2 {
		return nil, fmt.Errorf("graph: need at least 2 vertices, got %d", cfg.Vertices)
	}
	// Vertex ids are stored as int32 (CSR.Edges and the generator pair
	// lists); larger counts would wrap negative.  RMAT additionally rounds
	// the count up to a power of two, so bound it a doubling earlier.
	if cfg.Vertices > 1<<31-1 || (cfg.Family == FamilyRMAT && cfg.Vertices > 1<<30) {
		return nil, fmt.Errorf("graph: %d vertices exceed the int32 id space", cfg.Vertices)
	}
	if cfg.Family == FamilyGrid && cfg.Vertices < 4 {
		// The lattice rounds down to a square; below 2x2 it would collapse
		// to a single vertex, silently violating the check above.
		return nil, fmt.Errorf("graph: grid family needs at least 4 vertices (a 2x2 lattice), got %d", cfg.Vertices)
	}
	if cfg.AvgDegree < 1 {
		return nil, fmt.Errorf("graph: non-positive average degree %d", cfg.AvgDegree)
	}
	switch cfg.Family {
	case FamilyUniform:
		return uniform(cfg), nil
	case FamilyGrid:
		return grid2D(cfg), nil
	case FamilyRMAT:
		return rmat(cfg), nil
	default:
		return nil, fmt.Errorf("graph: unknown family %q (want one of %v)", cfg.Family, Families())
	}
}

// intn returns a uniform value in [0, n) drawn from r; modulo reduction is
// fine at graph sizes. n must be > 0.
func intn(r *prng.SplitMix64, n int64) int64 { return int64(r.Next() % uint64(n)) }

// uniform draws Vertices*AvgDegree/2 endpoint pairs uniformly at random.
func uniform(cfg Config) *CSR {
	n := cfg.Vertices
	r := &prng.SplitMix64{State: cfg.Seed}
	attempts := n * cfg.AvgDegree / 2
	pairs := make([][2]int32, 0, attempts)
	for i := int64(0); i < attempts; i++ {
		u, v := intn(r, n), intn(r, n)
		if u != v {
			pairs = append(pairs, [2]int32{int32(u), int32(v)})
		}
	}
	g := fromPairs(n, pairs)
	g.Name = fmt.Sprintf("uniform-n%d-d%d-s%d", n, cfg.AvgDegree, cfg.Seed)
	return g
}

// grid2D builds a rows x cols 4-neighbour lattice, rows = cols =
// floor(sqrt(Vertices)): the regular, high-locality baseline the irregular
// families are contrasted against.
func grid2D(cfg Config) *CSR {
	side := int64(1)
	for (side+1)*(side+1) <= cfg.Vertices {
		side++
	}
	n := side * side
	pairs := make([][2]int32, 0, 2*n)
	for row := int64(0); row < side; row++ {
		for col := int64(0); col < side; col++ {
			v := row*side + col
			if col+1 < side {
				pairs = append(pairs, [2]int32{int32(v), int32(v + 1)})
			}
			if row+1 < side {
				pairs = append(pairs, [2]int32{int32(v), int32(v + side)})
			}
		}
	}
	g := fromPairs(n, pairs)
	g.Name = fmt.Sprintf("grid-%dx%d", side, side)
	return g
}

// rmat draws edges by recursive quadrant descent with the Graph500
// probabilities (a, b, c, d) = (0.57, 0.19, 0.19, 0.05), yielding the
// power-law degree distribution that makes graph working sets skewed.
func rmat(cfg Config) *CSR {
	scale := imath.Log2Ceil(cfg.Vertices)
	if scale < 1 {
		scale = 1
	}
	n := int64(1) << scale
	r := &prng.SplitMix64{State: cfg.Seed}
	attempts := n * cfg.AvgDegree / 2
	pairs := make([][2]int32, 0, attempts)
	for i := int64(0); i < attempts; i++ {
		var u, v int64
		for bit := int64(0); bit < scale; bit++ {
			// Quadrant thresholds over a 0..99 draw: a=57, b=19, c=19, d=5.
			switch q := intn(r, 100); {
			case q < 57:
			case q < 76:
				v |= 1 << bit
			case q < 95:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u != v {
			pairs = append(pairs, [2]int32{int32(u), int32(v)})
		}
	}
	g := fromPairs(n, pairs)
	g.Name = fmt.Sprintf("rmat-n%d-d%d-s%d", n, cfg.AvgDegree, cfg.Seed)
	return g
}

// fromPairs symmetrises, deduplicates and sorts an endpoint-pair list into a
// CSR.
func fromPairs(n int64, pairs [][2]int32) *CSR {
	deg := make([]int64, n)
	for _, p := range pairs {
		deg[p[0]]++
		deg[p[1]]++
	}
	offsets := make([]int64, n+1)
	for v := int64(0); v < n; v++ {
		offsets[v+1] = offsets[v] + deg[v]
	}
	edges := make([]int32, offsets[n])
	fill := make([]int64, n)
	copy(fill, offsets[:n])
	for _, p := range pairs {
		edges[fill[p[0]]] = p[1]
		fill[p[0]]++
		edges[fill[p[1]]] = p[0]
		fill[p[1]]++
	}
	// Sort each adjacency list and drop duplicate neighbours in place.
	out := edges[:0]
	newOffsets := make([]int64, n+1)
	for v := int64(0); v < n; v++ {
		adj := edges[offsets[v]:offsets[v+1]]
		slices.Sort(adj)
		newOffsets[v] = int64(len(out))
		for i, w := range adj {
			if i > 0 && w == adj[i-1] {
				continue
			}
			out = append(out, w)
		}
	}
	newOffsets[n] = int64(len(out))
	return &CSR{N: n, Offsets: newOffsets, Edges: out[:len(out):len(out)]}
}
