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
func PageRank(g Graph, iterations int64, costs Costs) (*dag.DAG, *taskgroup.Tree, error) {
	c := costs.withDefaults()
	if iterations <= 0 {
		iterations = 8
	}

	d := dag.New(fmt.Sprintf("pagerank-%s", g.GraphName()))
	tree := taskgroup.New("pagerank")

	init := newTrace(c)
	init.span(rankAddr(0, 0), g.NumVertices()*vertexEntryBytes, true, 1)
	initTask := d.AddTask("pagerank-init", init.gen(c.SpawnInstrs))
	initTask.Site = "graph/pagerank.go:init"
	initTask.Param = float64(init.bytes())
	tree.Own(tree.Root, initTask.ID)

	chunks := chunk(g.NumVertices(), c.EdgesPerTask, func(v int64) int64 { return 1 + g.Degree(v) })
	prevBarrier := initTask.ID
	tr := newTrace(c) // reused across gather tasks
	var adj []int32
	var recorded [2][]*refs.Recorded // the chunk recordings of iterations 0 and 1
	for iter := int64(0); iter < iterations; iter++ {
		parity := int(iter) % 2
		group := tree.AddChild(tree.Root, fmt.Sprintf("pagerank-iter%d", iter), "graph/pagerank.go:iter", 0, int(iter))
		var groupBytes int64

		chunkIDs := make([]dag.TaskID, 0, len(chunks))
		for ci, cr := range chunks {
			var gen refs.Gen
			var bytes int64
			if iter >= 2 && recorded[parity][ci] != nil { // nil: the walk failed to record
				rec := recorded[parity][ci]
				gen, bytes = rec, rec.Len()*c.LineBytes
			} else {
				tr.reset()
				for u := cr[0]; u < cr[1]; u++ {
					tr.touch(offsetAddr(u), false, c.InstrsPerVertex)
					tr.touch(offsetAddr(u+1), false, 0)
					adj = g.AdjInto(u, adj)
					j0 := g.FirstEdge(u)
					for k, w := range adj {
						j := j0 + int64(k)
						v := int64(w)
						tr.touch(edgeAddr(j), false, c.InstrsPerEdge)
						// Gather rank(v)/degree(v) from the previous iteration.
						tr.touch(rankAddr(parity, v), false, 0)
						tr.touch(offsetAddr(v), false, 0)
					}
					tr.touch(rankAddr(1-parity, u), true, 2)
				}
				gen, bytes = tr.gen(c.SpawnInstrs/4), tr.bytes()
			}
			t := d.AddTask(fmt.Sprintf("pagerank-i%d[%d:%d)", iter, cr[0], cr[1]), gen)
			if iter < 2 {
				recorded[parity] = append(recorded[parity], t.Refs)
			}
			t.Site = "graph/pagerank.go:gather"
			t.Param = float64(bytes)
			t.Level = int(iter)
			groupBytes += bytes
			tree.Own(group, t.ID)
			d.MustEdge(prevBarrier, t.ID)
			chunkIDs = append(chunkIDs, t.ID)
		}

		barrier := d.AddComputeTask(fmt.Sprintf("pagerank-reduce%d", iter), c.SpawnInstrs+g.NumVertices()/8)
		barrier.Site = "graph/pagerank.go:reduce"
		barrier.Level = int(iter)
		tree.Own(group, barrier.ID)
		for _, id := range chunkIDs {
			d.MustEdge(id, barrier.ID)
		}
		group.Param = float64(groupBytes)
		prevBarrier = barrier.ID
	}

	return finish(d, tree, "pagerank")
}
