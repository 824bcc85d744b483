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
func MaximalMatching(g *CSR, seed uint64, costs Costs) (*dag.DAG, *taskgroup.Tree, []int64, error) {
	n := g.N
	b := newBuilder("matching", g, costs)
	c, tr := b.c, b.tr
	// Initialisation: clear the match vector, seed the active list.
	b.serial("matching-init", "graph/matching.go:init", c.SpawnInstrs, func() {
		tr.span(matchAddr(0), n*vertexEntryBytes, true, 1)
		tr.touch(frontAddr(0, 0), true, c.InstrsPerVertex)
	})

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

	for round := 0; len(active) > 0; round++ {
		b.d.RecordMetric("matching.rounds", int64(round)+1)
		parity := round % 2
		b.round(fmt.Sprintf("matching-round%d", round), "graph/matching.go:round", fmt.Sprintf("matching-r%d", round), "graph/matching.go:handshake", round)

		// Jacobi semantics: every vertex picks its strongest live edge
		// against the match vector as it stood at the round start; mutual
		// picks match.  The globally strongest live edge is always mutual,
		// so every round makes progress.
		best := make(map[int64]int64, len(active))
		for _, u32 := range active {
			u := int64(u32)
			bestW, bestP := int64(-1), ^uint64(0)
			for _, w32 := range g.Adj(u) {
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

		b.each(b.frontierChunks(g, active), func(_ int, lo, hi int64) {
			for i := lo; i < hi; i++ {
				u := int64(active[i])
				tr.touch(frontAddr(parity, i), false, c.InstrsPerVertex)
				tr.touch(offsetAddr(u), false, 0)
				tr.touch(offsetAddr(u+1), false, 0)
				for j := g.Offsets[u]; j < g.Offsets[u+1]; j++ {
					w := int64(g.Edges[j])
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
		})

		// Commit the round's mutual picks, then pack the survivors that
		// still have a live neighbour.
		for _, u32 := range active {
			u := int64(u32)
			if w, ok := best[u]; ok && best[w] == u && match[u] == -1 && match[w] == -1 {
				match[u], match[w] = w, u
			}
		}
		var next []int32
		b.close(fmt.Sprintf("matching-pack%d", round), "graph/matching.go:pack", c.SpawnInstrs, func() {
			for _, u32 := range active {
				u := int64(u32)
				if match[u] != -1 {
					continue
				}
				for _, w32 := range g.Adj(u) {
					if match[w32] == -1 && int64(w32) != u {
						tr.touch(frontAddr(1-parity, int64(len(next))), true, 1)
						next = append(next, u32)
						break
					}
				}
			}
		})
		active = next
	}
	var matched int64
	for _, w := range match {
		if w != -1 {
			matched++
		}
	}
	b.d.RecordMetric("matching.matched_vertices", matched)

	d, tree, err := b.finish()
	return d, tree, match, err
}
