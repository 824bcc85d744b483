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
	c := costs.withDefaults()
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

	d := dag.New(fmt.Sprintf("sssp-%s", g.Name))
	tree := taskgroup.New("sssp")

	init := newTrace(c)
	init.span(distAddr(0), g.N*vertexEntryBytes, true, 1)
	init.touch(frontAddr(0, 0), true, c.InstrsPerVertex)
	initTask := d.AddTask("sssp-init", init.gen(c.SpawnInstrs))
	initTask.Site = "graph/sssp.go:init"
	initTask.Param = float64(init.bytes())
	tree.Own(tree.Root, initTask.ID)

	prevBarrier := initTask.ID
	tr := newTrace(c) // reused across relax tasks; see bfs.go
	active := []int32{int32(source)}
	for round := 0; len(active) > 0 && (maxRounds == 0 || int64(round) < maxRounds); round++ {
		d.RecordMetric(fmt.Sprintf("sssp.active.round_%02d.vertices", round), int64(len(active)))
		d.RecordMetric("sssp.rounds", int64(round)+1)
		parity := round % 2
		group := tree.AddChild(tree.Root, fmt.Sprintf("sssp-round%d", round), "graph/sssp.go:round", 0, round)
		var groupBytes int64

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
		chunks := chunk(int64(len(active)), c.EdgesPerTask, func(i int64) int64 {
			return 1 + g.Degree(int64(active[i]))
		})
		chunkIDs := make([]dag.TaskID, 0, len(chunks))
		for _, cr := range chunks {
			tr.reset()
			for i := cr[0]; i < cr[1]; i++ {
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
			t := d.AddTask(fmt.Sprintf("sssp-r%d[%d:%d)", round, cr[0], cr[1]), tr.gen(c.SpawnInstrs/4))
			t.Site = "graph/sssp.go:relax"
			t.Param = float64(tr.bytes())
			t.Level = round
			groupBytes += tr.bytes()
			tree.Own(group, t.ID)
			d.MustEdge(prevBarrier, t.ID)
			chunkIDs = append(chunkIDs, t.ID)
		}

		barrier := d.AddComputeTask(fmt.Sprintf("sssp-sync%d", round), c.SpawnInstrs)
		barrier.Site = "graph/sssp.go:sync"
		barrier.Level = round
		tree.Own(group, barrier.ID)
		for _, id := range chunkIDs {
			d.MustEdge(id, barrier.ID)
		}
		group.Param = float64(groupBytes)
		prevBarrier = barrier.ID

		// Commit the round.
		for v, dv := range newDist {
			dist[v] = dv
		}
		active = next
	}

	return finish(d, tree, "sssp")
}
