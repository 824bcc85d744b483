package graph

import (
	"fmt"

	"cmpsched/internal/dag"
	"cmpsched/internal/prng"
	"cmpsched/internal/taskgroup"
)

// edgePrio returns the deterministic random priority of the undirected edge
// {u, v} under seed; lower is stronger.  It lives in a simulated per-edge
// array (the weight region, reused — matching and SSSP never share a DAG)
// but needs no host backing store.
func edgePrio(u, v int64, seed uint64, n int64) uint64 {
	lo, hi := u, v
	if lo > hi {
		lo, hi = hi, lo
	}
	return prng.Mix64(seed ^ 0xD1B54A32D192ED03 ^ uint64(lo)*uint64(n) ^ uint64(hi))
}

// MaximalMatching builds the computation DAG of a random-priority maximal
// matching (the GBBS handshake shape): every round, each unmatched vertex
// points at its strongest (lowest-priority) live incident edge, and edges
// picked from both endpoints match their pair; survivors with live
// neighbours pack into the next round's list.  Round tasks read the active
// list, the CSR offset/edge lines, the per-edge priority lines and the
// scattered match-vector entries of their neighbours, writing the entries
// they claim.
//
// The third return value is the matched partner of every vertex (-1 if
// unmatched), used by tests for the validity and maximality invariants.
func MaximalMatching(g Graph, seed uint64, costs Costs) (*dag.DAG, *taskgroup.Tree, []int64, error) {
	c := costs.withDefaults()
	n := g.NumVertices()

	d := dag.New(fmt.Sprintf("matching-%s", g.GraphName()))
	tree := taskgroup.New("matching")

	// Initialisation: clear the match vector, seed the active list.
	init := newTrace(c)
	init.span(matchAddr(0), n*vertexEntryBytes, true, 1)
	init.touch(frontAddr(0, 0), true, c.InstrsPerVertex)
	initTask := d.AddTask("matching-init", init.gen(c.SpawnInstrs))
	initTask.Site = "graph/matching.go:init"
	initTask.Param = float64(init.bytes())
	tree.Own(tree.Root, initTask.ID)
	prevBarrier := initTask.ID

	match := make([]int64, n)
	for i := range match {
		match[i] = -1
	}
	// The starting active list: vertices with at least one neighbour.
	active := make([]int32, 0, n)
	for v := int64(0); v < n; v++ {
		if g.Degree(v) > 0 {
			active = append(active, int32(v))
		}
	}

	tr := newTrace(c)
	var adj []int32
	for round := 0; len(active) > 0; round++ {
		d.RecordMetric("matching.rounds", int64(round)+1)
		parity := round % 2
		group := tree.AddChild(tree.Root, fmt.Sprintf("matching-round%d", round), "graph/matching.go:round", 0, round)
		var groupBytes int64

		// Jacobi semantics: every vertex picks its strongest live edge
		// against the match vector as it stood at the round start; mutual
		// picks match.  The globally strongest live edge is always mutual,
		// so every round makes progress.
		best := make(map[int64]int64, len(active))
		for _, u32 := range active {
			u := int64(u32)
			adj = g.AdjInto(u, adj)
			bestW, bestP := int64(-1), ^uint64(0)
			for _, w32 := range adj {
				w := int64(w32)
				if match[w] != -1 {
					continue
				}
				if p := edgePrio(u, w, seed, n); bestW == -1 || p < bestP || (p == bestP && w < bestW) {
					bestW, bestP = w, p
				}
			}
			if bestW != -1 {
				best[u] = bestW
			}
		}

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
				adj = g.AdjInto(u, adj)
				j0 := g.FirstEdge(u)
				for k, w32 := range adj {
					j := j0 + int64(k)
					w := int64(w32)
					tr.touch(edgeAddr(j), false, c.InstrsPerEdge)
					tr.touch(matchAddr(w), false, 0)
					if match[w] == -1 {
						tr.touch(weightAddr(j), false, 0) // the edge's priority
					}
				}
				if w, ok := best[u]; ok && best[w] == u {
					// A mutual pick: u claims its own match entry (its
					// partner symmetrically claims the other).
					tr.touch(matchAddr(u), true, 2)
				}
			}
			t := d.AddTask(fmt.Sprintf("matching-r%d[%d:%d)", round, cr[0], cr[1]), tr.gen(c.SpawnInstrs/4))
			t.Site = "graph/matching.go:handshake"
			t.Param = float64(tr.bytes())
			t.Level = round
			groupBytes += tr.bytes()
			tree.Own(group, t.ID)
			d.MustEdge(prevBarrier, t.ID)
			chunkIDs = append(chunkIDs, t.ID)
		}

		// Commit the round's mutual picks, then pack the survivors that
		// still have a live neighbour.
		for _, u32 := range active {
			u := int64(u32)
			if w, ok := best[u]; ok && best[w] == u && match[u] == -1 && match[w] == -1 {
				match[u], match[w] = w, u
			}
		}
		pack := newTrace(c)
		for _, u32 := range active {
			u := int64(u32)
			if match[u] != -1 {
				continue
			}
			live := false
			adj = g.AdjInto(u, adj)
			for _, w32 := range adj {
				if match[w32] == -1 && int64(w32) != u {
					live = true
					break
				}
			}
			if live {
				pack.touch(frontAddr(1-parity, nextSlot), true, 1)
				nextSlot++
				next = append(next, u32)
			}
		}
		barrier := d.AddTask(fmt.Sprintf("matching-pack%d", round), pack.gen(c.SpawnInstrs))
		barrier.Site = "graph/matching.go:pack"
		barrier.Param = float64(pack.bytes())
		barrier.Level = round
		tree.Own(group, barrier.ID)
		for _, id := range chunkIDs {
			d.MustEdge(id, barrier.ID)
		}
		group.Param = float64(groupBytes)
		prevBarrier = barrier.ID
		active = next
	}
	var matched int64
	for _, w := range match {
		if w != -1 {
			matched++
		}
	}
	d.RecordMetric("matching.matched_vertices", matched)

	d2, t2, err := finish(d, tree, "matching")
	return d2, t2, match, err
}
