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
	n := g.N
	b := newBuilder("kcore", g, costs)
	c, tr := b.c, b.tr
	// Initialisation: compute the starting induced degrees, clear states.
	b.serial("kcore-init", "graph/kcore.go:init", c.SpawnInstrs, func() {
		tr.span(offsetAddr(0), (n+1)*offsetEntryBytes, false, 1)
		tr.span(degAddr(0), n*vertexEntryBytes, true, 1)
		tr.span(stateAddr(0), n*vertexEntryBytes, true, 1)
	})

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
			name := fmt.Sprintf("kcore-k%d-r%d", k, round)
			b.round(name, "graph/kcore.go:peel", name, "graph/kcore.go:peel", round)
			nextSlot := int64(0)
			b.each(b.frontierChunks(g, frontier), func(_ int, lo, hi int64) {
				for i := lo; i < hi; i++ {
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
			})
			b.close(fmt.Sprintf("kcore-sync-k%d-r%d", k, round), "graph/kcore.go:sync", c.SpawnInstrs, nil)
			round++
		}
	}
	b.d.RecordMetric("kcore.rounds", int64(round))
	b.d.RecordMetric("kcore.max_core", maxCore)

	d, tree, err := b.finish()
	return d, tree, core, err
}
