package graph

import (
	"fmt"

	"cmpsched/internal/dag"
	"cmpsched/internal/refs"
	"cmpsched/internal/taskgroup"
)

// PageRank builds the computation DAG of a pull-based PageRank power
// iteration: iterations sweeps over all vertices, each sweep cut into tasks
// of roughly Costs.EdgesPerTask edge traversals, with a reduction barrier
// (the dangling-mass/normalisation step) between sweeps.  Rank vectors
// alternate between two buffers by iteration parity.
//
// A task owns a contiguous vertex range: it streams the range's CSR offsets
// and edge lines sequentially but gathers the previous-iteration ranks and
// the offset (degree) entries of its neighbours — the scattered,
// graph-dependent part of the access pattern — and writes its own vertices'
// next ranks sequentially.  Iterations i and i+2 use the same rank buffers,
// so from the third iteration on a chunk task takes its chunk's recording
// from two iterations back instead of walking the graph again.
func PageRank(g *CSR, iterations int64, costs Costs) (*dag.DAG, *taskgroup.Tree, error) {
	if iterations <= 0 {
		iterations = 8
	}

	b := newBuilder("pagerank", g, costs)
	c, tr := b.c, b.tr
	b.serial("pagerank-init", "graph/pagerank.go:init", c.SpawnInstrs, func() {
		tr.span(rankAddr(0, 0), g.N*vertexEntryBytes, true, 1)
	})

	chunks := chunk(g.N, c.EdgesPerTask, func(v int64) int64 { return 1 + g.Degree(v) })
	var recorded [2][]*refs.Recorded // the chunk recordings of iterations 0 and 1
	for iter := int64(0); iter < iterations; iter++ {
		parity := int(iter) % 2
		b.round(fmt.Sprintf("pagerank-iter%d", iter), "graph/pagerank.go:iter", fmt.Sprintf("pagerank-i%d", iter), "graph/pagerank.go:gather", int(iter))
		if iter < 2 {
			b.each(chunks, func(_ int, lo, hi int64) {
				for u := lo; u < hi; u++ {
					tr.touch(offsetAddr(u), false, c.InstrsPerVertex)
					tr.touch(offsetAddr(u+1), false, 0)
					for j := g.Offsets[u]; j < g.Offsets[u+1]; j++ {
						v := int64(g.Edges[j])
						tr.touch(edgeAddr(j), false, c.InstrsPerEdge)
						// Gather rank(v)/degree(v) from the previous iteration.
						tr.touch(rankAddr(parity, v), false, 0)
						tr.touch(offsetAddr(v), false, 0)
					}
					tr.touch(rankAddr(1-parity, u), true, 2)
				}
			})
			for _, id := range b.chunks {
				recorded[parity] = append(recorded[parity], b.d.Task(id).Refs)
			}
		} else {
			for ci, cr := range chunks {
				if rec := recorded[parity][ci]; rec != nil {
					b.task(cr[0], cr[1], rec, rec.Len()*c.LineBytes)
				} else { // its walk failed to record, which Validate reports
					b.task(cr[0], cr[1], nil, 0)
				}
			}
		}
		b.close(fmt.Sprintf("pagerank-reduce%d", iter), "graph/pagerank.go:reduce", c.SpawnInstrs+g.N/8, nil)
	}
	return b.finish()
}
