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
func MIS(g Graph, seed uint64, costs Costs) (*dag.DAG, *taskgroup.Tree, []bool, error) {
	c := costs.withDefaults()
	n := g.NumVertices()

	d := dag.New(fmt.Sprintf("mis-%s", g.GraphName()))
	tree := taskgroup.New("mis")

	// Initialisation: draw the priorities, clear states, seed the list.
	init := newTrace(c)
	init.span(prioAddr(0), n*vertexEntryBytes, true, 1)
	init.span(stateAddr(0), n*vertexEntryBytes, true, 1)
	init.touch(frontAddr(0, 0), true, c.InstrsPerVertex)
	initTask := d.AddTask("mis-init", init.gen(c.SpawnInstrs))
	initTask.Site = "graph/mis.go:init"
	initTask.Param = float64(init.bytes())
	tree.Own(tree.Root, initTask.ID)
	prevBarrier := initTask.ID

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

	tr := newTrace(c)
	var adj []int32
	for round := 0; len(active) > 0; round++ {
		d.RecordMetric("mis.rounds", int64(round)+1)
		parity := round % 2
		group := tree.AddChild(tree.Root, fmt.Sprintf("mis-round%d", round), "graph/mis.go:round", 0, round)
		var groupBytes int64

		// Jacobi semantics: winners are decided against the states as they
		// stood at the round start, so the round's tasks commute.  A winner
		// is an undecided local maximum among its undecided neighbours —
		// two adjacent vertices can never both win.
		winner := make([]bool, len(active))
		for i, u32 := range active {
			u := int64(u32)
			win := true
			adj = g.AdjInto(u, adj)
			for _, w32 := range adj {
				w := int64(w32)
				if state[w] == undecided && misBeats(seed, w, u) {
					win = false
					break
				}
			}
			winner[i] = win
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
				tr.touch(prioAddr(u), false, 0)
				tr.touch(offsetAddr(u), false, 0)
				tr.touch(offsetAddr(u+1), false, 0)
				adj = g.AdjInto(u, adj)
				j0 := g.FirstEdge(u)
				for k, w32 := range adj {
					j := j0 + int64(k)
					w := int64(w32)
					tr.touch(edgeAddr(j), false, c.InstrsPerEdge)
					tr.touch(stateAddr(w), false, 0)
					if state[w] == undecided {
						tr.touch(prioAddr(w), false, 0)
					}
				}
				if winner[i] {
					tr.touch(stateAddr(u), true, 2)
					// Knock the undecided neighbours out.
					for _, w32 := range adj {
						if state[int64(w32)] == undecided && int64(w32) != u {
							tr.touch(stateAddr(int64(w32)), true, 1)
						}
					}
				}
			}
			t := d.AddTask(fmt.Sprintf("mis-r%d[%d:%d)", round, cr[0], cr[1]), tr.gen(c.SpawnInstrs/4))
			t.Site = "graph/mis.go:decide"
			t.Param = float64(tr.bytes())
			t.Level = round
			groupBytes += tr.bytes()
			tree.Own(group, t.ID)
			d.MustEdge(prevBarrier, t.ID)
			chunkIDs = append(chunkIDs, t.ID)
		}

		// Commit the round on the host, then emit the survivor pack writes
		// as part of the sync barrier's trace.
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
			u := int64(u32)
			adj = g.AdjInto(u, adj)
			for _, w32 := range adj {
				if state[w32] == undecided {
					state[w32] = out
				}
			}
		}
		pack := newTrace(c)
		for _, u32 := range active {
			if state[u32] == undecided {
				pack.touch(frontAddr(1-parity, nextSlot), true, 1)
				nextSlot++
				next = append(next, u32)
			}
		}
		barrier := d.AddTask(fmt.Sprintf("mis-pack%d", round), pack.gen(c.SpawnInstrs))
		barrier.Site = "graph/mis.go:pack"
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

	d2, t2, err := finish(d, tree, "mis")
	return d2, t2, inMIS, err
}
