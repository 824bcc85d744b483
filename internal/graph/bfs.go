package graph

import (
	"fmt"

	"cmpsched/internal/dag"
	"cmpsched/internal/taskgroup"
)

// BFS builds the computation DAG of a level-synchronous parallel
// breadth-first search from source.
//
// The host walks the real graph to discover the frontier of every level (the
// data-dependent part a static generator cannot know), then emits one DAG
// level per BFS level: the frontier is cut into tasks of roughly
// Costs.EdgesPerTask edge traversals, the tasks of a level run in parallel,
// and a barrier task separates consecutive levels — the classic
// level-synchronous structure.  Each task's reference stream touches the
// frontier slots it reads, the CSR offset and edge lines of its vertices,
// and the *scattered* distance-vector lines of every neighbour it inspects,
// writing the slots of newly discovered vertices and the next frontier.
func BFS(g *CSR, source int64, costs Costs) (*dag.DAG, *taskgroup.Tree, error) {
	if err := checkSource(g, source); err != nil {
		return nil, nil, fmt.Errorf("graph: bfs: %w", err)
	}
	levels, discoverer := bfsLevels(g, source)

	b := newBuilder("bfs", g, costs)
	c, tr := b.c, b.tr
	// Initialisation: write the distance vector and the first frontier.
	b.serial("bfs-init", "graph/bfs.go:init", c.SpawnInstrs, func() {
		tr.span(distAddr(0), g.N*vertexEntryBytes, true, 1)
		tr.touch(frontAddr(0, 0), true, c.InstrsPerVertex)
	})

	b.d.RecordMetric("bfs.levels", int64(len(levels)))
	for level, frontier := range levels {
		b.d.RecordMetric(fmt.Sprintf("bfs.frontier.level_%02d.vertices", level), int64(len(frontier)))
		parity := level % 2
		b.round(fmt.Sprintf("bfs-level%d", level), "graph/bfs.go:level", fmt.Sprintf("bfs-l%d", level), "graph/bfs.go:explore", level)
		nextSlot := int64(0) // slot counter in the next frontier
		b.each(b.frontierChunks(g, frontier), func(_ int, lo, hi int64) {
			for i := lo; i < hi; i++ {
				u := int64(frontier[i])
				tr.touch(frontAddr(parity, i), false, c.InstrsPerVertex)
				tr.touch(offsetAddr(u), false, 0)
				tr.touch(offsetAddr(u+1), false, 0)
				for j := g.Offsets[u]; j < g.Offsets[u+1]; j++ {
					v := int64(g.Edges[j])
					tr.touch(edgeAddr(j), false, c.InstrsPerEdge)
					tr.touch(distAddr(v), false, 0)
					if discoverer[v] == j {
						// This edge discovers v: claim it and append it to
						// the next frontier.
						tr.touch(distAddr(v), true, 2)
						tr.touch(frontAddr(1-parity, nextSlot), true, 1)
						nextSlot++
					}
				}
			}
		})
		b.close(fmt.Sprintf("bfs-advance%d", level), "graph/bfs.go:advance", c.SpawnInstrs, nil)
	}
	return b.finish()
}

// bfsLevels runs the breadth-first search on the host.  It returns the
// frontier of every level (in discovery order) and, for each vertex, the
// index of the edge that discovered it (-1 for the source and unreached
// vertices) — the tie-break a deterministic parallel BFS with in-order
// claiming would produce.
func bfsLevels(g *CSR, source int64) (levels [][]int32, discoverer []int64) {
	n := g.N
	discoverer = make([]int64, n)
	seen := make([]bool, n)
	for i := range discoverer {
		discoverer[i] = -1
	}
	seen[source] = true
	frontier := []int32{int32(source)}
	for len(frontier) > 0 {
		levels = append(levels, frontier)
		var next []int32
		for _, u32 := range frontier {
			u := int64(u32)
			for j := g.Offsets[u]; j < g.Offsets[u+1]; j++ {
				if v := g.Edges[j]; !seen[v] {
					seen[v] = true
					discoverer[v] = j
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return levels, discoverer
}

// checkSource validates a source vertex.
func checkSource(g *CSR, source int64) error {
	if source < 0 || source >= g.N {
		return fmt.Errorf("source %d out of range [0, %d)", source, g.N)
	}
	return nil
}
