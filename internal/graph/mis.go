package graph

import (
	"fmt"

	"cmpsched/internal/dag"
	"cmpsched/internal/prng"
	"cmpsched/internal/taskgroup"
)

// misPrio returns the deterministic random priority of vertex v under seed.
// Ties are broken by vertex id, so priorities form a strict total order.
func misPrio(seed uint64, v int64) uint64 {
	return prng.Mix64(seed ^ uint64(v)*0x9E3779B97F4A7C15)
}

// misBeats reports whether u's priority beats w's.
func misBeats(seed uint64, u, w int64) bool {
	pu, pw := misPrio(seed, u), misPrio(seed, w)
	return pu > pw || (pu == pw && u > w)
}

// MIS builds the computation DAG of a random-priority maximal-independent-
// set computation (the Blelloch–Fineman–Shun rootset shape): every round,
// each undecided vertex compares its hashed priority against its undecided
// neighbours'; local maxima enter the set and knock their neighbours out,
// and the survivors are packed into the next round's list.  Round tasks read
// the active list, the CSR offset/edge lines and the scattered priority and
// state lines of their neighbours, writing the state flags they decide.
//
// The third return value reports set membership per vertex, used by tests
// for the independence and maximality invariants.
func MIS(g *CSR, seed uint64, costs Costs) (*dag.DAG, *taskgroup.Tree, []bool, error) {
	n := g.N
	b := newBuilder("mis", g, costs)
	c, tr := b.c, b.tr
	// Initialisation: draw the priorities, clear states, seed the list.
	b.serial("mis-init", "graph/mis.go:init", c.SpawnInstrs, func() {
		tr.span(prioAddr(0), n*vertexEntryBytes, true, 1)
		tr.span(stateAddr(0), n*vertexEntryBytes, true, 1)
		tr.touch(frontAddr(0, 0), true, c.InstrsPerVertex)
	})

	const (
		undecided = iota
		inSet
		out
	)
	state := make([]int8, n)
	inMIS := make([]bool, n)
	active := make([]int32, 0, n)
	for v := int64(0); v < n; v++ {
		active = append(active, int32(v))
	}

	for round := 0; len(active) > 0; round++ {
		b.d.RecordMetric("mis.rounds", int64(round)+1)
		parity := round % 2
		b.round(fmt.Sprintf("mis-round%d", round), "graph/mis.go:round", fmt.Sprintf("mis-r%d", round), "graph/mis.go:decide", round)

		// Jacobi semantics: winners are decided against the states as they
		// stood at the round start, so the round's tasks commute.  A winner
		// is an undecided local maximum among its undecided neighbours —
		// two adjacent vertices can never both win.
		winner := make([]bool, len(active))
		for i, u32 := range active {
			u := int64(u32)
			win := true
			for _, w32 := range g.Adj(u) {
				w := int64(w32)
				if state[w] == undecided && misBeats(seed, w, u) {
					win = false
					break
				}
			}
			winner[i] = win
		}

		b.each(b.frontierChunks(g, active), func(_ int, lo, hi int64) {
			for i := lo; i < hi; i++ {
				u := int64(active[i])
				tr.touch(frontAddr(parity, i), false, c.InstrsPerVertex)
				tr.touch(prioAddr(u), false, 0)
				tr.touch(offsetAddr(u), false, 0)
				tr.touch(offsetAddr(u+1), false, 0)
				for j := g.Offsets[u]; j < g.Offsets[u+1]; j++ {
					w := int64(g.Edges[j])
					tr.touch(edgeAddr(j), false, c.InstrsPerEdge)
					tr.touch(stateAddr(w), false, 0)
					if state[w] == undecided {
						tr.touch(prioAddr(w), false, 0)
					}
				}
				if winner[i] {
					tr.touch(stateAddr(u), true, 2)
					// Knock the undecided neighbours out.
					for _, w32 := range g.Adj(u) {
						if state[int64(w32)] == undecided && int64(w32) != u {
							tr.touch(stateAddr(int64(w32)), true, 1)
						}
					}
				}
			}
		})

		// Commit the round on the host, then emit the survivor pack writes
		// as the sync barrier's trace.
		for i, u32 := range active {
			if winner[i] {
				state[u32] = inSet
				inMIS[u32] = true
			}
		}
		for _, u32 := range active {
			if state[u32] != inSet {
				continue
			}
			for _, w32 := range g.Adj(int64(u32)) {
				if state[w32] == undecided {
					state[w32] = out
				}
			}
		}
		var next []int32
		b.close(fmt.Sprintf("mis-pack%d", round), "graph/mis.go:pack", c.SpawnInstrs, func() {
			for _, u32 := range active {
				if state[u32] == undecided {
					tr.touch(frontAddr(1-parity, int64(len(next))), true, 1)
					next = append(next, u32)
				}
			}
		})
		active = next
	}

	d, tree, err := b.finish()
	return d, tree, inMIS, err
}
