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
func BFS(g Graph, source int64, costs Costs) (*dag.DAG, *taskgroup.Tree, error) {
	c := costs.withDefaults()
	if err := checkSource(g, source); err != nil {
		return nil, nil, fmt.Errorf("graph: bfs: %w", err)
	}
	levels, discoverer := bfsLevels(g, source)

	d := dag.New(fmt.Sprintf("bfs-%s", g.GraphName()))
	tree := taskgroup.New("bfs")

	// Initialisation: write the distance vector and the first frontier.
	init := newTrace(c)
	init.span(distAddr(0), g.NumVertices()*vertexEntryBytes, true, 1)
	init.touch(frontAddr(0, 0), true, c.InstrsPerVertex)
	initTask := d.AddTask("bfs-init", init.gen(c.SpawnInstrs))
	initTask.Site = "graph/bfs.go:init"
	initTask.Param = float64(init.bytes())
	tree.Own(tree.Root, initTask.ID)

	prevBarrier := initTask.ID
	d.RecordMetric("bfs.levels", int64(len(levels)))
	// One trace serves every explore task: dag.AddTask encodes each
	// finalised stream into its own arena, so the accumulation buffer is
	// reused across chunks.
	tr := newTrace(c)
	var adj []int32
	for level, frontier := range levels {
		d.RecordMetric(fmt.Sprintf("bfs.frontier.level_%02d.vertices", level), int64(len(frontier)))
		parity := level % 2
		group := tree.AddChild(tree.Root, fmt.Sprintf("bfs-level%d", level), "graph/bfs.go:level", 0, level)
		var groupBytes int64

		nextSlot := int64(0) // slot counter in the next frontier
		chunks := chunk(int64(len(frontier)), c.EdgesPerTask, func(i int64) int64 {
			return 1 + g.Degree(int64(frontier[i]))
		})
		chunkIDs := make([]dag.TaskID, 0, len(chunks))
		for _, cr := range chunks {
			tr.reset()
			for i := cr[0]; i < cr[1]; i++ {
				u := int64(frontier[i])
				tr.touch(frontAddr(parity, i), false, c.InstrsPerVertex)
				tr.touch(offsetAddr(u), false, 0)
				tr.touch(offsetAddr(u+1), false, 0)
				adj = g.AdjInto(u, adj)
				j0 := g.FirstEdge(u)
				for k, w := range adj {
					j := j0 + int64(k)
					v := int64(w)
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
			t := d.AddTask(fmt.Sprintf("bfs-l%d[%d:%d)", level, cr[0], cr[1]), tr.gen(c.SpawnInstrs/4))
			t.Site = "graph/bfs.go:explore"
			t.Param = float64(tr.bytes())
			t.Level = level
			groupBytes += tr.bytes()
			tree.Own(group, t.ID)
			d.MustEdge(prevBarrier, t.ID)
			chunkIDs = append(chunkIDs, t.ID)
		}

		barrier := d.AddComputeTask(fmt.Sprintf("bfs-advance%d", level), c.SpawnInstrs)
		barrier.Site = "graph/bfs.go:advance"
		barrier.Level = level
		tree.Own(group, barrier.ID)
		for _, id := range chunkIDs {
			d.MustEdge(id, barrier.ID)
		}
		group.Param = float64(groupBytes)
		prevBarrier = barrier.ID
	}

	return finish(d, tree, "bfs")
}

// bfsLevels runs the breadth-first search on the host.  It returns the
// frontier of every level (in discovery order) and, for each vertex, the
// index of the edge that discovered it (-1 for the source and unreached
// vertices) — the tie-break a deterministic parallel BFS with in-order
// claiming would produce.
func bfsLevels(g Graph, source int64) (levels [][]int32, discoverer []int64) {
	n := g.NumVertices()
	discoverer = make([]int64, n)
	seen := make([]bool, n)
	for i := range discoverer {
		discoverer[i] = -1
	}
	seen[source] = true
	frontier := []int32{int32(source)}
	var adj []int32
	for len(frontier) > 0 {
		levels = append(levels, frontier)
		var next []int32
		for _, u32 := range frontier {
			u := int64(u32)
			adj = g.AdjInto(u, adj)
			j0 := g.FirstEdge(u)
			for k, v := range adj {
				if !seen[v] {
					seen[v] = true
					discoverer[v] = j0 + int64(k)
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return levels, discoverer
}

// checkSource validates a source vertex.
func checkSource(g Graph, source int64) error {
	if source < 0 || source >= g.NumVertices() {
		return fmt.Errorf("source %d out of range [0, %d)", source, g.NumVertices())
	}
	return nil
}

// finish validates the DAG and finalises the group tree.
func finish(d *dag.DAG, tree *taskgroup.Tree, kernel string) (*dag.DAG, *taskgroup.Tree, error) {
	if err := d.Validate(); err != nil {
		return nil, nil, fmt.Errorf("graph: %s: %w", kernel, err)
	}
	if err := tree.Finalize(d); err != nil {
		return nil, nil, fmt.Errorf("graph: %s: %w", kernel, err)
	}
	return d, tree, nil
}
