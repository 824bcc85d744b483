package graph

import (
	"fmt"
	"sort"

	"cmpsched/internal/dag"
	"cmpsched/internal/imath"
	"cmpsched/internal/prng"
	"cmpsched/internal/taskgroup"
)

// lddView abstracts one level of the contraction hierarchy for the LDD
// walker: level 0 walks the input Graph and addresses the real CSR regions;
// deeper levels walk a host-built contracted CSR whose simulated offset and
// edge arrays live in the parity-selected contracted regions.
type lddView struct {
	n         int64
	deg       func(v int64) int64
	firstEdge func(v int64) int64
	adjInto   func(v int64, buf []int32) []int32
	offAddr   func(v int64) uint64
	edgAddr   func(j int64) uint64
}

func viewOfGraph(g Graph) lddView {
	return lddView{
		n:         g.NumVertices(),
		deg:       g.Degree,
		firstEdge: g.FirstEdge,
		adjInto:   g.AdjInto,
		offAddr:   offsetAddr,
		edgAddr:   edgeAddr,
	}
}

func viewOfContracted(cg *CSR, parity int) lddView {
	return lddView{
		n:         cg.N,
		deg:       cg.Degree,
		firstEdge: func(v int64) int64 { return cg.Offsets[v] },
		adjInto:   cg.AdjInto,
		offAddr:   func(v int64) uint64 { return coffAddr(parity, v) },
		edgAddr:   func(j int64) uint64 { return cedgeAddr(parity, j) },
	}
}

// geomShift draws vertex v's deterministic LDD start round: a geometric
// sample with p = 1/8 (so ~n/8 vertices wake as cluster centers in round 0
// and the stragglers stagger out), capped at cap rounds.
func geomShift(seed uint64, level int, v int64, cap int64) int64 {
	r := prng.SplitMix64{State: prng.Mix64(seed + uint64(level)*0xA24BAED4963EE407 + uint64(v)*0x9E3779B97F4A7C15)}
	for s := int64(0); s < cap; s++ {
		if r.Next() < 1<<61 {
			return s
		}
	}
	return cap
}

// Connectivity builds the computation DAG of a connected-components
// computation via recursive low-diameter decomposition (the GBBS / Shun–
// Dhulipala–Blelloch shape): each level runs an LDD — a staggered
// multi-source BFS whose sources wake on geometrically distributed rounds,
// so every cluster has O(log n) radius — then contracts clusters to a
// smaller graph and recurses until no inter-cluster edges remain.  Round
// tasks read the frontier, the level's offset/edge arrays and the scattered
// cluster-label lines of their neighbours, claiming unvisited vertices;
// contraction tasks stream the level's edges and emit the next level's edge
// list; a final relabel phase writes the component vector.
//
// The third return value is the per-vertex component labelling (labels are
// arbitrary but equal exactly for connected vertices), used by tests against
// a serial union-find reference.
func Connectivity(g Graph, seed uint64, costs Costs) (*dag.DAG, *taskgroup.Tree, []int64, error) {
	c := costs.withDefaults()
	n0 := g.NumVertices()

	d := dag.New(fmt.Sprintf("connectivity-%s", g.GraphName()))
	tree := taskgroup.New("connectivity")

	// Initialisation: clear the label vector, draw the level-0 shifts.
	init := newTrace(c)
	init.span(labelAddr(0), n0*vertexEntryBytes, true, 1)
	init.span(prioAddr(0), n0*vertexEntryBytes, true, 1)
	initTask := d.AddTask("conn-init", init.gen(c.SpawnInstrs))
	initTask.Site = "graph/connectivity.go:init"
	initTask.Param = float64(init.bytes())
	tree.Own(tree.Root, initTask.ID)
	prevBarrier := initTask.ID

	tr := newTrace(c)
	var adj []int32
	const maxLevels = 32
	lvl := viewOfGraph(g)
	var maps [][]int64 // per level: vertex -> next-level cluster index
	totalRounds := 0
	sequentialTail := false

	for level := 0; ; level++ {
		labels, rounds, err := lddPass(d, tree, &prevBarrier, tr, &adj, lvl, level, seed, c)
		if err != nil {
			return nil, nil, nil, err
		}
		totalRounds += rounds

		// Relabel clusters to [0, nc) in ascending-center order and collect
		// the inter-cluster edge set, emitting the contraction tasks.
		centers := make([]int64, 0)
		seenCenter := make(map[int64]bool)
		for v := int64(0); v < lvl.n; v++ {
			if !seenCenter[labels[v]] {
				seenCenter[labels[v]] = true
				centers = append(centers, labels[v])
			}
		}
		sort.Slice(centers, func(i, j int) bool { return centers[i] < centers[j] })
		cidx := make(map[int64]int64, len(centers))
		for i, ctr := range centers {
			cidx[ctr] = int64(i)
		}
		nc := int64(len(centers))
		m := make([]int64, lvl.n)
		for v := int64(0); v < lvl.n; v++ {
			m[v] = cidx[labels[v]]
		}
		maps = append(maps, m)

		pairs := contract(d, tree, &prevBarrier, tr, &adj, lvl, level, m, c)
		if len(pairs) == 0 {
			break
		}
		if nc >= lvl.n || level+1 >= maxLevels {
			// No contraction progress (vanishingly unlikely under the
			// geometric shifts) or the level cap: finish the remaining
			// merges with a sequential union-find, modelled as one task
			// streaming the residual edge list and label lines.
			maps = append(maps, unionFindTail(d, tree, &prevBarrier, c, nc, pairs, (level+1)%2))
			sequentialTail = true
			break
		}
		cg := fromPairs(nc, pairs)
		cg.Name = fmt.Sprintf("conn-contracted-l%d", level+1)
		lvl = viewOfContracted(cg, (level+1)%2)
	}

	// Compose the per-level mappings down to the original vertices and emit
	// the final relabel sweep.
	comp := make([]int64, n0)
	for v := int64(0); v < n0; v++ {
		id := v
		for _, m := range maps {
			id = m[id]
		}
		comp[v] = id
	}
	group := tree.AddChild(tree.Root, "conn-relabel", "graph/connectivity.go:relabel", 0, 0)
	var groupBytes int64
	chunks := chunk(n0, c.EdgesPerTask, func(int64) int64 { return 1 })
	chunkIDs := make([]dag.TaskID, 0, len(chunks))
	for _, cr := range chunks {
		tr.reset()
		tr.span(labelAddr(cr[0]), (cr[1]-cr[0])*vertexEntryBytes, false, 1)
		tr.span(compAddr(cr[0]), (cr[1]-cr[0])*vertexEntryBytes, true, 1)
		t := d.AddTask(fmt.Sprintf("conn-relabel[%d:%d)", cr[0], cr[1]), tr.gen(c.SpawnInstrs/4))
		t.Site = "graph/connectivity.go:relabel"
		t.Param = float64(tr.bytes())
		groupBytes += tr.bytes()
		tree.Own(group, t.ID)
		d.MustEdge(prevBarrier, t.ID)
		chunkIDs = append(chunkIDs, t.ID)
	}
	group.Param = float64(groupBytes)
	done := d.AddComputeTask("conn-done", c.SpawnInstrs)
	done.Site = "graph/connectivity.go:done"
	tree.Own(tree.Root, done.ID)
	for _, id := range chunkIDs {
		d.MustEdge(id, done.ID)
	}

	components := make(map[int64]bool)
	for _, id := range comp {
		components[id] = true
	}
	d.RecordMetric("conn.levels", int64(len(maps)))
	d.RecordMetric("conn.rounds", int64(totalRounds))
	d.RecordMetric("conn.components", int64(len(components)))
	if sequentialTail {
		d.RecordMetric("conn.sequential_tail", 1)
	}

	d2, t2, err := finish(d, tree, "connectivity")
	return d2, t2, comp, err
}

// lddPass runs one low-diameter decomposition over lvl on the host, emitting
// one DAG level per staggered-BFS round, and returns the cluster labelling
// (labels[v] = the center vertex whose ball claimed v) plus the round count.
func lddPass(d *dag.DAG, tree *taskgroup.Tree, prevBarrier *dag.TaskID, tr *trace, adj *[]int32, lvl lddView, level int, seed uint64, c Costs) ([]int64, int, error) {
	n := lvl.n
	shiftCap := 2*imath.Log2Ceil(n) + 8
	wake := make(map[int64][]int32)
	for v := int64(0); v < n; v++ {
		s := geomShift(seed, level, v, shiftCap)
		wake[s] = append(wake[s], int32(v))
	}

	labels := make([]int64, n)
	for i := range labels {
		labels[i] = -1
	}
	visited := int64(0)
	var claimed []int32 // claimed during the previous round, in claim order
	rounds := 0
	for r := int64(0); ; r++ {
		// The round's frontier: last round's claims first (their slots were
		// written then), then this round's newly woken centers appending
		// themselves.
		frontier := claimed
		nCarried := len(frontier)
		for _, v32 := range wake[r] {
			if labels[v32] == -1 {
				labels[int64(v32)] = int64(v32)
				visited++
				frontier = append(frontier, v32)
			}
		}
		if len(frontier) == 0 {
			if visited == n {
				break
			}
			continue // host-only skip: nobody woke or propagated this round
		}
		rounds++
		parity := int(r) % 2
		group := tree.AddChild(tree.Root, fmt.Sprintf("conn-l%d-round%d", level, r), "graph/connectivity.go:round", 0, int(r))
		var groupBytes int64

		var next []int32
		nextSlot := int64(0)
		chunks := chunk(int64(len(frontier)), c.EdgesPerTask, func(i int64) int64 {
			return 1 + lvl.deg(int64(frontier[i]))
		})
		chunkIDs := make([]dag.TaskID, 0, len(chunks))
		for _, cr := range chunks {
			tr.reset()
			for i := cr[0]; i < cr[1]; i++ {
				u := int64(frontier[i])
				if i >= int64(nCarried) {
					// A center seating itself: read its shift, claim its own
					// label, append itself to the frontier list.
					tr.touch(prioAddr(u), false, c.InstrsPerVertex)
					tr.touch(labelAddr(u), true, 1)
					tr.touch(frontAddr(parity, i), true, 1)
				} else {
					tr.touch(frontAddr(parity, i), false, c.InstrsPerVertex)
				}
				tr.touch(lvl.offAddr(u), false, 0)
				tr.touch(lvl.offAddr(u+1), false, 0)
				*adj = lvl.adjInto(u, *adj)
				j0 := lvl.firstEdge(u)
				for k, w32 := range *adj {
					j := j0 + int64(k)
					w := int64(w32)
					tr.touch(lvl.edgAddr(j), false, c.InstrsPerEdge)
					tr.touch(labelAddr(w), false, 0)
					if labels[w] == -1 {
						labels[w] = labels[u]
						visited++
						tr.touch(labelAddr(w), true, 2)
						tr.touch(frontAddr(1-parity, nextSlot), true, 1)
						nextSlot++
						next = append(next, w32)
					}
				}
			}
			t := d.AddTask(fmt.Sprintf("conn-l%d-r%d[%d:%d)", level, r, cr[0], cr[1]), tr.gen(c.SpawnInstrs/4))
			t.Site = "graph/connectivity.go:explore"
			t.Param = float64(tr.bytes())
			t.Level = int(r)
			groupBytes += tr.bytes()
			tree.Own(group, t.ID)
			d.MustEdge(*prevBarrier, t.ID)
			chunkIDs = append(chunkIDs, t.ID)
		}

		barrier := d.AddComputeTask(fmt.Sprintf("conn-l%d-advance%d", level, r), c.SpawnInstrs)
		barrier.Site = "graph/connectivity.go:advance"
		barrier.Level = int(r)
		tree.Own(group, barrier.ID)
		for _, id := range chunkIDs {
			d.MustEdge(id, barrier.ID)
		}
		group.Param = float64(groupBytes)
		*prevBarrier = barrier.ID
		claimed = next
	}
	return labels, rounds, nil
}

// contract emits the cluster-contraction phase for one level: chunked tasks
// stream the level's edges, read both endpoints' cluster labels and write
// each newly discovered inter-cluster edge into the next level's edge region.
// It returns the deduplicated inter-cluster endpoint pairs (in cluster ids).
func contract(d *dag.DAG, tree *taskgroup.Tree, prevBarrier *dag.TaskID, tr *trace, adj *[]int32, lvl lddView, level int, m []int64, c Costs) [][2]int32 {
	nextParity := (level + 1) % 2
	group := tree.AddChild(tree.Root, fmt.Sprintf("conn-l%d-contract", level), "graph/connectivity.go:contract", 0, 0)
	var groupBytes int64
	seen := make(map[[2]int32]bool)
	var pairs [][2]int32
	chunks := chunk(lvl.n, c.EdgesPerTask, func(v int64) int64 { return 1 + lvl.deg(v) })
	chunkIDs := make([]dag.TaskID, 0, len(chunks))
	for _, cr := range chunks {
		tr.reset()
		for u := cr[0]; u < cr[1]; u++ {
			tr.touch(lvl.offAddr(u), false, c.InstrsPerVertex)
			tr.touch(lvl.offAddr(u+1), false, 0)
			tr.touch(labelAddr(u), false, 0)
			*adj = lvl.adjInto(u, *adj)
			j0 := lvl.firstEdge(u)
			for k, w32 := range *adj {
				j := j0 + int64(k)
				w := int64(w32)
				tr.touch(lvl.edgAddr(j), false, c.InstrsPerEdge)
				tr.touch(labelAddr(w), false, 0)
				cu, cw := m[u], m[w]
				if cu == cw {
					continue
				}
				lo, hi := int32(cu), int32(cw)
				if lo > hi {
					lo, hi = hi, lo
				}
				key := [2]int32{lo, hi}
				if !seen[key] {
					seen[key] = true
					slot := int64(len(pairs))
					pairs = append(pairs, key)
					tr.touch(cedgeAddr(nextParity, 2*slot), true, 1)
					tr.touch(cedgeAddr(nextParity, 2*slot+1), true, 1)
				}
			}
		}
		t := d.AddTask(fmt.Sprintf("conn-l%d-contract[%d:%d)", level, cr[0], cr[1]), tr.gen(c.SpawnInstrs/4))
		t.Site = "graph/connectivity.go:contract"
		t.Param = float64(tr.bytes())
		groupBytes += tr.bytes()
		tree.Own(group, t.ID)
		d.MustEdge(*prevBarrier, t.ID)
		chunkIDs = append(chunkIDs, t.ID)
	}
	group.Param = float64(groupBytes)
	barrier := d.AddComputeTask(fmt.Sprintf("conn-l%d-build", level), c.SpawnInstrs+int64(len(pairs))/8)
	barrier.Site = "graph/connectivity.go:build"
	tree.Own(group, barrier.ID)
	for _, id := range chunkIDs {
		d.MustEdge(id, barrier.ID)
	}
	*prevBarrier = barrier.ID
	return pairs
}

// unionFindTail finishes the residual merges sequentially: one task streams
// the leftover inter-cluster edge list and folds it with a host union-find,
// returning the cluster -> representative mapping.
func unionFindTail(d *dag.DAG, tree *taskgroup.Tree, prevBarrier *dag.TaskID, c Costs, nc int64, pairs [][2]int32, parity int) []int64 {
	parent := make([]int64, nc)
	for i := range parent {
		parent[i] = int64(i)
	}
	var find func(x int64) int64
	find = func(x int64) int64 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	tr := newTrace(c)
	for i, p := range pairs {
		tr.touch(cedgeAddr(parity, 2*int64(i)), false, c.InstrsPerEdge)
		a, b := find(int64(p[0])), find(int64(p[1]))
		if a != b {
			parent[b] = a
			tr.touch(labelAddr(b), true, 2)
		}
	}
	m := make([]int64, nc)
	for i := range m {
		m[i] = find(int64(i))
	}
	t := d.AddTask("conn-seqtail", tr.gen(c.SpawnInstrs))
	t.Site = "graph/connectivity.go:seqtail"
	t.Param = float64(tr.bytes())
	tree.Own(tree.Root, t.ID)
	d.MustEdge(*prevBarrier, t.ID)
	*prevBarrier = t.ID
	return m
}
