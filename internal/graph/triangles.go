package graph

import (
	"fmt"

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
func Triangles(g Graph, costs Costs) (*dag.DAG, *taskgroup.Tree, int64, error) {
	c := costs.withDefaults()
	n := g.NumVertices()

	d := dag.New(fmt.Sprintf("triangles-%s", g.GraphName()))
	tree := taskgroup.New("triangles")

	spawn := d.AddComputeTask("triangles-spawn", c.SpawnInstrs)
	spawn.Site = "graph/triangles.go:spawn"
	tree.Own(tree.Root, spawn.ID)

	// fwdLoc(v) is the position of v's first forward (greater-id) neighbour
	// within its adjacency list; FirstEdge(v)+fwdLoc(v) is the absolute
	// index of the forward suffix in the simulated flat edge array.
	fwdLoc := make([]int64, n)
	var scan []int32
	for v := int64(0); v < n; v++ {
		scan = g.AdjInto(v, scan)
		k := int64(0)
		for k < int64(len(scan)) && int64(scan[k]) <= v {
			k++
		}
		fwdLoc[v] = k
	}
	fwdDeg := func(v int64) int64 { return g.Degree(v) - fwdLoc[v] }

	work := func(u int64) int64 {
		w := 1 + g.Degree(u)
		scan = g.AdjInto(u, scan)
		for _, x := range scan[fwdLoc[u]:] {
			w += fwdDeg(u) + fwdDeg(int64(x))
		}
		return w
	}
	group := tree.AddChild(tree.Root, "triangles-count", "graph/triangles.go:count", 0, 0)
	var total int64
	var groupBytes int64
	chunks := chunk(n, 4*c.EdgesPerTask, work)
	chunkIDs := make([]dag.TaskID, 0, len(chunks))
	tr := newTrace(c) // reused across counting tasks; see bfs.go
	var adjU, adjV []int32
	for ci, cr := range chunks {
		tr.reset()
		var count int64
		for u := cr[0]; u < cr[1]; u++ {
			tr.touch(offsetAddr(u), false, c.InstrsPerVertex)
			tr.touch(offsetAddr(u+1), false, 0)
			adjU = g.AdjInto(u, adjU)
			baseU := g.FirstEdge(u)
			tr.span(edgeAddr(baseU), int64(len(adjU))*edgeEntryBytes, false, c.InstrsPerEdge)
			for jl := fwdLoc[u]; jl < int64(len(adjU)); jl++ {
				v := int64(adjU[jl])
				tr.touch(offsetAddr(v), false, 0)
				tr.touch(offsetAddr(v+1), false, 0)
				adjV = g.AdjInto(v, adjV)
				baseV := g.FirstEdge(v)
				// Merge-intersect fwd(u) (past jl) with fwd(v): the walk
				// re-touches u's suffix interleaved with v's list.
				a, b := jl+1, fwdLoc[v]
				for a < int64(len(adjU)) && b < int64(len(adjV)) {
					tr.touch(edgeAddr(baseU+a), false, 0)
					tr.touch(edgeAddr(baseV+b), false, c.InstrsPerEdge)
					switch {
					case adjU[a] == adjV[b]:
						count++
						a++
						b++
					case adjU[a] < adjV[b]:
						a++
					default:
						b++
					}
				}
			}
		}
		tr.touch(accumAddr(int64(ci)), true, 4)
		t := d.AddTask(fmt.Sprintf("triangles[%d:%d)", cr[0], cr[1]), tr.gen(c.SpawnInstrs/4))
		t.Site = "graph/triangles.go:count"
		t.Param = float64(tr.bytes())
		groupBytes += tr.bytes()
		tree.Own(group, t.ID)
		d.MustEdge(spawn.ID, t.ID)
		chunkIDs = append(chunkIDs, t.ID)
		total += count
	}
	group.Param = float64(groupBytes)

	reduce := newTrace(c)
	reduce.span(accumAddr(0), int64(len(chunks))*vertexEntryBytes, false, 4)
	reduce.touch(accumAddr(int64(len(chunks))), true, 2)
	reduceTask := d.AddTask("triangles-reduce", reduce.gen(c.SpawnInstrs))
	reduceTask.Site = "graph/triangles.go:reduce"
	reduceTask.Param = float64(reduce.bytes())
	tree.Own(tree.Root, reduceTask.ID)
	for _, id := range chunkIDs {
		d.MustEdge(id, reduceTask.ID)
	}

	d2, t2, err := finish(d, tree, "triangles")
	return d2, t2, total, err
}
