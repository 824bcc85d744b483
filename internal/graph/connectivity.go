package graph

import (
	"fmt"
	"sort"

	"cmpsched/internal/dag"
	"cmpsched/internal/imath"
	"cmpsched/internal/prng"
	"cmpsched/internal/taskgroup"
)

// lddView is one level of the contraction hierarchy for the LDD walker: the
// level's CSR and the simulated base addresses of its offset and edge arrays.
// Level 0 walks the input graph in the real CSR regions; deeper levels walk a
// host-built contracted CSR in the parity-selected contracted regions.
type lddView struct {
	g                *CSR
	offBase, edgBase uint64
}

func (l lddView) offAddr(v int64) uint64 { return l.offBase + uint64(v)*offsetEntryBytes }
func (l lddView) edgAddr(j int64) uint64 { return l.edgBase + uint64(j)*edgeEntryBytes }

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
func Connectivity(g *CSR, seed uint64, costs Costs) (*dag.DAG, *taskgroup.Tree, []int64, error) {
	n0 := g.N
	b := newBuilder("connectivity", g, costs)
	c, tr := b.c, b.tr
	// Initialisation: clear the label vector, draw the level-0 shifts.
	b.serial("conn-init", "graph/connectivity.go:init", c.SpawnInstrs, func() {
		tr.span(labelAddr(0), n0*vertexEntryBytes, true, 1)
		tr.span(prioAddr(0), n0*vertexEntryBytes, true, 1)
	})

	const maxLevels = 32
	lvl := lddView{g: g, offBase: offsetAddr(0), edgBase: edgeAddr(0)}
	var maps [][]int64 // per level: vertex -> next-level cluster index
	totalRounds := 0
	sequentialTail := false

	for level := 0; ; level++ {
		labels, rounds := b.lddPass(lvl, level, seed)
		totalRounds += rounds

		// Relabel clusters to [0, nc) in ascending-center order and collect
		// the inter-cluster edge set, emitting the contraction tasks.
		centers := make([]int64, 0)
		seenCenter := make(map[int64]bool)
		for v := int64(0); v < lvl.g.N; v++ {
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
		m := make([]int64, lvl.g.N)
		for v := int64(0); v < lvl.g.N; v++ {
			m[v] = cidx[labels[v]]
		}
		maps = append(maps, m)

		pairs := b.contract(lvl, level, m)
		if len(pairs) == 0 {
			break
		}
		parity := (level + 1) % 2
		if nc >= lvl.g.N || level+1 >= maxLevels {
			// No contraction progress (vanishingly unlikely under the
			// geometric shifts) or the level cap: finish the remaining
			// merges with a sequential union-find, modelled as one task
			// streaming the residual edge list and label lines.
			maps = append(maps, b.unionFindTail(nc, pairs, parity))
			sequentialTail = true
			break
		}
		cg := fromPairs(nc, pairs)
		cg.Name = fmt.Sprintf("conn-contracted-l%d", level+1)
		lvl = lddView{g: cg, offBase: coffAddr(parity, 0), edgBase: cedgeAddr(parity, 0)}
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
	b.round("conn-relabel", "graph/connectivity.go:relabel", "conn-relabel", "graph/connectivity.go:relabel", 0)
	b.each(chunk(n0, c.EdgesPerTask, func(int64) int64 { return 1 }), func(_ int, lo, hi int64) {
		tr.span(labelAddr(lo), (hi-lo)*vertexEntryBytes, false, 1)
		tr.span(compAddr(lo), (hi-lo)*vertexEntryBytes, true, 1)
	})
	b.join("conn-done", "graph/connectivity.go:done", c.SpawnInstrs, nil)

	components := make(map[int64]bool)
	for _, id := range comp {
		components[id] = true
	}
	b.d.RecordMetric("conn.levels", int64(len(maps)))
	b.d.RecordMetric("conn.rounds", int64(totalRounds))
	b.d.RecordMetric("conn.components", int64(len(components)))
	if sequentialTail {
		b.d.RecordMetric("conn.sequential_tail", 1)
	}

	d, tree, err := b.finish()
	return d, tree, comp, err
}

// lddPass runs one low-diameter decomposition over lvl on the host, emitting
// one round per staggered-BFS round, and returns the cluster labelling
// (labels[v] = the center vertex whose ball claimed v) plus the round count.
func (b *builder) lddPass(lvl lddView, level int, seed uint64) ([]int64, int) {
	g, n, c, tr := lvl.g, lvl.g.N, b.c, b.tr
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
		b.round(fmt.Sprintf("conn-l%d-round%d", level, r), "graph/connectivity.go:round", fmt.Sprintf("conn-l%d-r%d", level, r), "graph/connectivity.go:explore", int(r))

		var next []int32
		b.each(b.frontierChunks(g, frontier), func(_ int, lo, hi int64) {
			for i := lo; i < hi; i++ {
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
				for j := g.Offsets[u]; j < g.Offsets[u+1]; j++ {
					w32 := g.Edges[j]
					w := int64(w32)
					tr.touch(lvl.edgAddr(j), false, c.InstrsPerEdge)
					tr.touch(labelAddr(w), false, 0)
					if labels[w] == -1 {
						labels[w] = labels[u]
						visited++
						tr.touch(labelAddr(w), true, 2)
						tr.touch(frontAddr(1-parity, int64(len(next))), true, 1)
						next = append(next, w32)
					}
				}
			}
		})
		b.close(fmt.Sprintf("conn-l%d-advance%d", level, r), "graph/connectivity.go:advance", c.SpawnInstrs, nil)
		claimed = next
	}
	return labels, rounds
}

// contract emits the cluster-contraction phase for one level: chunked tasks
// stream the level's edges, read both endpoints' cluster labels and write
// each newly discovered inter-cluster edge into the next level's edge region.
// It returns the deduplicated inter-cluster endpoint pairs (in cluster ids).
func (b *builder) contract(lvl lddView, level int, m []int64) [][2]int32 {
	g, c, tr := lvl.g, b.c, b.tr
	nextParity := (level + 1) % 2
	name := fmt.Sprintf("conn-l%d-contract", level)
	b.round(name, "graph/connectivity.go:contract", name, "graph/connectivity.go:contract", 0)
	seen := make(map[[2]int32]bool)
	var pairs [][2]int32
	b.each(chunk(g.N, c.EdgesPerTask, func(v int64) int64 { return 1 + g.Degree(v) }), func(_ int, lo, hi int64) {
		for u := lo; u < hi; u++ {
			tr.touch(lvl.offAddr(u), false, c.InstrsPerVertex)
			tr.touch(lvl.offAddr(u+1), false, 0)
			tr.touch(labelAddr(u), false, 0)
			for j := g.Offsets[u]; j < g.Offsets[u+1]; j++ {
				w := int64(g.Edges[j])
				tr.touch(lvl.edgAddr(j), false, c.InstrsPerEdge)
				tr.touch(labelAddr(w), false, 0)
				cu, cw := m[u], m[w]
				if cu == cw {
					continue
				}
				x, y := int32(cu), int32(cw)
				if x > y {
					x, y = y, x
				}
				key := [2]int32{x, y}
				if !seen[key] {
					seen[key] = true
					slot := int64(len(pairs))
					pairs = append(pairs, key)
					tr.touch(cedgeAddr(nextParity, 2*slot), true, 1)
					tr.touch(cedgeAddr(nextParity, 2*slot+1), true, 1)
				}
			}
		}
	})
	b.close(fmt.Sprintf("conn-l%d-build", level), "graph/connectivity.go:build", c.SpawnInstrs+int64(len(pairs))/8, nil)
	return pairs
}

// unionFindTail finishes the residual merges sequentially: one task streams
// the leftover inter-cluster edge list and folds it with a host union-find,
// returning the cluster -> representative mapping.
func (b *builder) unionFindTail(nc int64, pairs [][2]int32, parity int) []int64 {
	parent := make([]int64, nc)
	for i := range parent {
		parent[i] = int64(i)
	}
	find := func(x int64) int64 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	b.serial("conn-seqtail", "graph/connectivity.go:seqtail", b.c.SpawnInstrs, func() {
		for i, p := range pairs {
			b.tr.touch(cedgeAddr(parity, 2*int64(i)), false, b.c.InstrsPerEdge)
			x, y := find(int64(p[0])), find(int64(p[1]))
			if x != y {
				parent[y] = x
				b.tr.touch(labelAddr(y), true, 2)
			}
		}
	})
	m := make([]int64, nc)
	for i := range m {
		m[i] = find(int64(i))
	}
	return m
}
