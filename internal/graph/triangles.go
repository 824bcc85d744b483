package graph

import (
	"cmpsched/internal/dag"
	"cmpsched/internal/taskgroup"
)

// Triangles builds the computation DAG of an oriented triangle count: each
// undirected triangle {u, v, w} with u < v < w is counted exactly once by
// intersecting the forward (greater-id) adjacency lists of u and v.  The
// vertex range is cut into tasks by estimated intersection work, a spawn
// task fans out to the counting tasks and a reduction task folds the
// per-task partial counts — a single wide fork-join phase, the shape that
// gives schedulers the most freedom (and the least temporal structure to
// exploit).
//
// A counting task streams its own vertices' adjacency lists sequentially but
// re-reads, for every forward edge (u, v), the offset entry and the forward
// adjacency lines of v — list-sized, degree-skewed gathers.
//
// The second return value is the exact triangle count, used by tests (a grid
// has none; random families have predictably many).
func Triangles(g *CSR, costs Costs) (*dag.DAG, *taskgroup.Tree, int64, error) {
	n := g.N
	b := newBuilder("triangles", g, costs)
	c, tr := b.c, b.tr
	b.serial("triangles-spawn", "graph/triangles.go:spawn", c.SpawnInstrs, nil)

	// fwdLoc(v) is the position of v's first forward (greater-id) neighbour
	// within its adjacency list; Offsets[v]+fwdLoc(v) is the absolute index
	// of the forward suffix in the edge array.
	fwdLoc := make([]int64, n)
	for v := int64(0); v < n; v++ {
		adj := g.Adj(v)
		k := int64(0)
		for k < int64(len(adj)) && int64(adj[k]) <= v {
			k++
		}
		fwdLoc[v] = k
	}
	fwdDeg := func(v int64) int64 { return g.Degree(v) - fwdLoc[v] }

	work := func(u int64) int64 {
		w := 1 + g.Degree(u)
		for _, x := range g.Adj(u)[fwdLoc[u]:] {
			w += fwdDeg(u) + fwdDeg(int64(x))
		}
		return w
	}
	b.round("triangles-count", "graph/triangles.go:count", "triangles", "graph/triangles.go:count", 0)
	var total int64
	chunks := chunk(n, 4*c.EdgesPerTask, work)
	b.each(chunks, func(ci int, lo, hi int64) {
		var count int64
		for u := lo; u < hi; u++ {
			tr.touch(offsetAddr(u), false, c.InstrsPerVertex)
			tr.touch(offsetAddr(u+1), false, 0)
			adjU, baseU := g.Adj(u), g.Offsets[u]
			tr.span(edgeAddr(baseU), int64(len(adjU))*edgeEntryBytes, false, c.InstrsPerEdge)
			for jl := fwdLoc[u]; jl < int64(len(adjU)); jl++ {
				v := int64(adjU[jl])
				tr.touch(offsetAddr(v), false, 0)
				tr.touch(offsetAddr(v+1), false, 0)
				adjV, baseV := g.Adj(v), g.Offsets[v]
				// Merge-intersect fwd(u) (past jl) with fwd(v): the walk
				// re-touches u's suffix interleaved with v's list.
				p, q := jl+1, fwdLoc[v]
				for p < int64(len(adjU)) && q < int64(len(adjV)) {
					tr.touch(edgeAddr(baseU+p), false, 0)
					tr.touch(edgeAddr(baseV+q), false, c.InstrsPerEdge)
					switch {
					case adjU[p] == adjV[q]:
						count++
						p++
						q++
					case adjU[p] < adjV[q]:
						p++
					default:
						q++
					}
				}
			}
		}
		tr.touch(accumAddr(int64(ci)), true, 4)
		total += count
	})
	b.join("triangles-reduce", "graph/triangles.go:reduce", c.SpawnInstrs, func() {
		tr.span(accumAddr(0), int64(len(chunks))*vertexEntryBytes, false, 4)
		tr.touch(accumAddr(int64(len(chunks))), true, 2)
	})

	d, tree, err := b.finish()
	return d, tree, total, err
}
