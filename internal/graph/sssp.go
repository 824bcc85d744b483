package graph

import (
	"fmt"

	"cmpsched/internal/dag"
	"cmpsched/internal/prng"
	"cmpsched/internal/taskgroup"
)

// WeightOf returns the deterministic weight of the undirected edge {u, v}
// under seed: 1 + hash(min, max, seed) mod maxWeight.  Weights live in a
// simulated per-edge array (the kernels touch its lines) but need no backing
// store on the host.
func WeightOf(u, v int64, seed uint64, maxWeight int64) int64 {
	lo, hi := u, v
	if lo > hi {
		lo, hi = hi, lo
	}
	return 1 + int64(prng.Mix64(seed^uint64(lo)<<32^uint64(hi))%uint64(maxWeight))
}

// BellmanFord builds the computation DAG of a round-based single-source
// shortest-paths computation: the frontier (Jacobi) variant of Bellman-Ford
// in which every round relaxes, in parallel, the out-edges of the vertices
// whose distance improved in the previous round, with a barrier between
// rounds.  maxRounds caps the number of rounds (0 means run to convergence);
// maxWeight bounds the per-edge weights drawn from the graph seed.
//
// Tasks read the active list, the CSR offsets/edges, the parallel weight
// array, and the scattered distance slots of their neighbours, writing the
// slots they improve plus the next active list.
func BellmanFord(g *CSR, source int64, seed uint64, maxWeight, maxRounds int64, costs Costs) (*dag.DAG, *taskgroup.Tree, error) {
	if err := checkSource(g, source); err != nil {
		return nil, nil, fmt.Errorf("graph: sssp: %w", err)
	}
	if maxWeight <= 0 {
		maxWeight = 16
	}

	const inf = int64(1) << 62
	dist := make([]int64, g.N)
	for i := range dist {
		dist[i] = inf
	}
	dist[source] = 0

	b := newBuilder("sssp", g, costs)
	c, tr := b.c, b.tr
	b.serial("sssp-init", "graph/sssp.go:init", c.SpawnInstrs, func() {
		tr.span(distAddr(0), g.N*vertexEntryBytes, true, 1)
		tr.touch(frontAddr(0, 0), true, c.InstrsPerVertex)
	})

	active := []int32{int32(source)}
	for round := 0; len(active) > 0 && (maxRounds == 0 || int64(round) < maxRounds); round++ {
		b.d.RecordMetric(fmt.Sprintf("sssp.active.round_%02d.vertices", round), int64(len(active)))
		b.d.RecordMetric("sssp.rounds", int64(round)+1)
		parity := round % 2
		b.round(fmt.Sprintf("sssp-round%d", round), "graph/sssp.go:round", fmt.Sprintf("sssp-r%d", round), "graph/sssp.go:relax", round)

		// Jacobi semantics: every relaxation in this round reads the
		// distances as they stood at the end of the previous round, so the
		// round's tasks are order-independent (they can run in parallel).
		// newDist collects the round's improvements; next collects the
		// improved vertices in the order their next-frontier slots are
		// claimed below, so the host's next active list matches the
		// modelled slot writes exactly.
		newDist := make(map[int64]int64)
		var next []int32
		nextSlot := int64(0)
		b.each(b.frontierChunks(g, active), func(_ int, lo, hi int64) {
			for i := lo; i < hi; i++ {
				u := int64(active[i])
				tr.touch(frontAddr(parity, i), false, c.InstrsPerVertex)
				tr.touch(offsetAddr(u), false, 0)
				tr.touch(offsetAddr(u+1), false, 0)
				tr.touch(distAddr(u), false, 0)
				for j := g.Offsets[u]; j < g.Offsets[u+1]; j++ {
					v := int64(g.Edges[j])
					tr.touch(edgeAddr(j), false, c.InstrsPerEdge)
					tr.touch(weightAddr(j), false, 0)
					tr.touch(distAddr(v), false, 0)
					cand := dist[u] + WeightOf(u, v, seed, maxWeight)
					best, improvedBefore := newDist[v]
					if cand < dist[v] && (!improvedBefore || cand < best) {
						if !improvedBefore {
							tr.touch(frontAddr(1-parity, nextSlot), true, 1)
							nextSlot++
							next = append(next, int32(v))
						}
						newDist[v] = cand
						tr.touch(distAddr(v), true, 2)
					}
				}
			}
		})
		b.close(fmt.Sprintf("sssp-sync%d", round), "graph/sssp.go:sync", c.SpawnInstrs, nil)

		// Commit the round.
		for v, dv := range newDist {
			dist[v] = dv
		}
		active = next
	}
	return b.finish()
}
