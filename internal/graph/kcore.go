package graph

import (
	"fmt"

	"cmpsched/internal/dag"
	"cmpsched/internal/taskgroup"
)

// KCore builds the computation DAG of a bucketed peeling k-core
// decomposition (the Julienne/GBBS shape): stage k repeatedly extracts every
// live vertex whose induced degree has fallen to ≤ k, assigns it coreness k,
// and decrements its live neighbours — cascades within a stage run as
// sub-rounds with a barrier between them.  Peel tasks read the extracted
// frontier and the CSR offset/edge lines, then scatter read-modify-writes
// into the induced-degree vector (the irregular part) and write the state
// flags of the vertices they retire.
//
// The third return value is the coreness of every vertex, used by tests
// against a serial reference peeler.
func KCore(g *CSR, costs Costs) (*dag.DAG, *taskgroup.Tree, []int64, error) {
	c := costs.withDefaults()
	n := g.N

	d := dag.New(fmt.Sprintf("kcore-%s", g.Name))
	tree := taskgroup.New("kcore")

	// Initialisation: compute the starting induced degrees, clear states.
	init := newTrace(c)
	init.span(offsetAddr(0), (n+1)*offsetEntryBytes, false, 1)
	init.span(degAddr(0), n*vertexEntryBytes, true, 1)
	init.span(stateAddr(0), n*vertexEntryBytes, true, 1)
	initTask := d.AddTask("kcore-init", init.gen(c.SpawnInstrs))
	initTask.Site = "graph/kcore.go:init"
	initTask.Param = float64(init.bytes())
	tree.Own(tree.Root, initTask.ID)
	prevBarrier := initTask.ID

	deg := make([]int64, n)
	for v := int64(0); v < n; v++ {
		deg[v] = g.Degree(v)
	}
	core := make([]int64, n)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	remaining := n

	tr := newTrace(c)
	round := 0 // global sub-round counter, drives frontier parity
	var maxCore int64
	for k := int64(0); remaining > 0; k++ {
		for {
			// Extract the stage's current frontier: live vertices whose
			// induced degree has dropped to ≤ k, in ascending id order (the
			// deterministic order a parallel filter over the bucket yields).
			var frontier []int32
			for v := int64(0); v < n; v++ {
				if alive[v] && deg[v] <= k {
					frontier = append(frontier, int32(v))
				}
			}
			if len(frontier) == 0 {
				break
			}
			parity := round % 2
			group := tree.AddChild(tree.Root, fmt.Sprintf("kcore-k%d-r%d", k, round), "graph/kcore.go:peel", 0, round)
			var groupBytes int64
			nextSlot := int64(0)
			chunks := chunk(int64(len(frontier)), c.EdgesPerTask, func(i int64) int64 {
				return 1 + g.Degree(int64(frontier[i]))
			})
			chunkIDs := make([]dag.TaskID, 0, len(chunks))
			for _, cr := range chunks {
				tr.reset()
				for i := cr[0]; i < cr[1]; i++ {
					u := int64(frontier[i])
					alive[u] = false
					core[u] = k
					maxCore = k
					remaining--
					tr.touch(frontAddr(parity, i), false, c.InstrsPerVertex)
					tr.touch(stateAddr(u), true, 1) // retire u
					tr.touch(degAddr(u), true, 1)   // coreness lands in the degree slot
					tr.touch(offsetAddr(u), false, 0)
					tr.touch(offsetAddr(u+1), false, 0)
					for j := g.Offsets[u]; j < g.Offsets[u+1]; j++ {
						w := int64(g.Edges[j])
						tr.touch(edgeAddr(j), false, c.InstrsPerEdge)
						tr.touch(stateAddr(w), false, 0)
						if alive[w] {
							wasAbove := deg[w] > k
							deg[w]--
							tr.touch(degAddr(w), true, 2)
							if wasAbove && deg[w] <= k {
								// w just fell into the bucket: it joins the
								// next sub-round's frontier.
								tr.touch(frontAddr(1-parity, nextSlot), true, 1)
								nextSlot++
							}
						}
					}
				}
				t := d.AddTask(fmt.Sprintf("kcore-k%d-r%d[%d:%d)", k, round, cr[0], cr[1]), tr.gen(c.SpawnInstrs/4))
				t.Site = "graph/kcore.go:peel"
				t.Param = float64(tr.bytes())
				t.Level = round
				groupBytes += tr.bytes()
				tree.Own(group, t.ID)
				d.MustEdge(prevBarrier, t.ID)
				chunkIDs = append(chunkIDs, t.ID)
			}
			barrier := d.AddComputeTask(fmt.Sprintf("kcore-sync-k%d-r%d", k, round), c.SpawnInstrs)
			barrier.Site = "graph/kcore.go:sync"
			barrier.Level = round
			tree.Own(group, barrier.ID)
			for _, id := range chunkIDs {
				d.MustEdge(id, barrier.ID)
			}
			group.Param = float64(groupBytes)
			prevBarrier = barrier.ID
			round++
		}
	}
	d.RecordMetric("kcore.rounds", int64(round))
	d.RecordMetric("kcore.max_core", maxCore)

	d2, t2, err := finish(d, tree, "kcore")
	return d2, t2, core, err
}
