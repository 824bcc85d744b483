package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// holderTestConfigs is a spread of hierarchy shapes for the holder-mask and
// link bookkeeping: small caches force heavy eviction traffic, and several
// topologies exercise multi-L1 slices.
func holderTestConfigs() []HierarchyConfig {
	l1 := Config{SizeBytes: 1 << 10, LineBytes: 64, Assoc: 2, HitLatency: 1}
	l2 := Config{SizeBytes: 8 << 10, LineBytes: 64, Assoc: 4, HitLatency: 10}
	return []HierarchyConfig{
		{Cores: 4, L1: l1, L2: l2},
		{Cores: 8, L1: l1, L2: l2},
		{Cores: 8, L1: l1, L2: l2, Topology: Topology{Kind: TopologyClustered, ClusterSize: 2}},
		{Cores: 8, L1: l1, L2: l2, Topology: Topology{Kind: TopologyPrivate}},
		{Cores: 8, L1: l1, L2: l2, Topology: Topology{Kind: TopologyClustered, ClusterSize: 4}},
	}
}

// refHierarchy is an independent reference for Hierarchy, built from one
// lruModel per L1 and per L2 slice.  It keeps no links or holder masks: a
// dirty L1 victim is written back by address lookup in the core's slice,
// and an inclusive L2 victim is invalidated by probing every L1 the slice
// serves.
type refHierarchy struct {
	l1s, l2s []*lruModel
	sliceOf  []int
}

func newRefHierarchy(cfg HierarchyConfig) *refHierarchy {
	r := &refHierarchy{}
	for c := 0; c < cfg.Cores; c++ {
		r.l1s = append(r.l1s, newLRUModel(cfg.L1))
		r.sliceOf = append(r.sliceOf, cfg.Topology.SliceOf(c, cfg.Cores))
	}
	for s := 0; s < cfg.Topology.Slices(cfg.Cores); s++ {
		r.l2s = append(r.l2s, newLRUModel(cfg.Topology.SliceConfig(cfg.L2, cfg.Cores)))
	}
	return r
}

func (r *refHierarchy) access(core int, addr uint64, write bool) HierarchyAccess {
	r1 := r.l1s[core].access(addr, write)
	if r1.Hit {
		return HierarchyAccess{Level: LevelL1}
	}
	slice := r.sliceOf[core]
	l2 := r.l2s[slice]
	if r1.Evicted && r1.EvictedDirty {
		l2.access(r1.EvictedAddr, true)
	}
	var out HierarchyAccess
	r2 := l2.access(addr, write)
	if r2.Evicted {
		for c, l1 := range r.l1s {
			if r.sliceOf[c] == slice {
				l1.invalidate(r2.EvictedAddr)
			}
		}
		if r2.EvictedDirty {
			out.OffChipTransfers++
		}
	}
	if r2.Hit {
		out.Level = LevelL2
		return out
	}
	out.Level = LevelMemory
	out.OffChipTransfers++
	return out
}

// TestHierarchyMatchesReferenceModel drives Hierarchy and refHierarchy in
// lockstep through one seeded stream of reads and writes and requires the
// same Level and OffChipTransfers after every access, the same residency of
// the touched line in the accessing core's L1, and identical per-core L1,
// per-slice L2 and aggregate statistics at the end; every 97 steps each
// valid slot's holder mask must equal its line's L1 residency.  It is the
// bit-identity claim behind the links and exact holder masks: writing back
// through a link and probing only the masked L1s must be indistinguishable
// from searching and probing everything.  Every shape's name ends in
// "-wi=false": no shape invalidates other L1s' copies on a write, because
// the hierarchy models no write-invalidate coherence.
func TestHierarchyMatchesReferenceModel(t *testing.T) {
	configs := append(holderTestConfigs(), HierarchyConfig{
		// 20 ways over 3 sets at both levels' line size: the
		// non-power-of-two indexing and a deep recency list.
		Cores: 4,
		L1:    Config{SizeBytes: 128 * 4 * 3, LineBytes: 128, Assoc: 4, HitLatency: 1},
		L2:    Config{SizeBytes: 128 * 20 * 3, LineBytes: 128, Assoc: 20, HitLatency: 10},
	})
	for ci, cfg := range configs {
		t.Run(fmt.Sprintf("%d-%dcores-%s-wi=false", ci, cfg.Cores, cfg.Topology), func(t *testing.T) {
			h, err := NewHierarchy(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefHierarchy(cfg)
			rng := rand.New(rand.NewSource(int64(100 + ci)))
			// A footprint a few times the L2 keeps hits, misses and
			// evictions all common; a handful of hot lines maximises
			// cross-core sharing.
			lineBytes := cfg.L2.LineBytes
			lines := 4 * cfg.L2.SizeBytes / lineBytes
			for step := 0; step < 200000; step++ {
				core := rng.Intn(cfg.Cores)
				line := rng.Int63n(lines)
				if rng.Intn(4) == 0 {
					line = rng.Int63n(16)
				}
				addr := uint64(line*lineBytes + rng.Int63n(lineBytes))
				write := rng.Intn(3) == 0
				got, want := h.Access(core, addr, write), ref.access(core, addr, write)
				if got != want {
					t.Fatalf("step %d (core %d addr %#x write %v): hierarchy %+v, reference %+v",
						step, core, addr, write, got, want)
				}
				if g, w := h.L1(core).Contains(addr), ref.l1s[core].contains(addr); g != w {
					t.Fatalf("step %d: core %d L1 holds %#x: hierarchy %v, reference %v", step, core, addr, g, w)
				}
				if step%97 == 0 {
					checkHoldersExact(t, step, h)
				}
			}
			var l1, l2 Stats
			for c, m := range ref.l1s {
				if g := h.L1(c).Stats(); g != m.stats {
					t.Errorf("core %d L1 stats: hierarchy %+v, reference %+v", c, g, m.stats)
				}
				l1.Add(m.stats)
			}
			for s, m := range ref.l2s {
				if g := h.L2SliceStats()[s]; g != m.stats {
					t.Errorf("slice %d L2 stats: hierarchy %+v, reference %+v", s, g, m.stats)
				}
				l2.Add(m.stats)
			}
			if g := h.L1Stats(); g != l1 {
				t.Errorf("L1 stats: hierarchy %+v, reference %+v", g, l1)
			}
			if g := h.L2Stats(); g != l2 {
				t.Errorf("L2 stats: hierarchy %+v, reference %+v", g, l2)
			}
		})
	}
}

// checkHoldersExact requires every valid L2 slot's holder mask to name
// exactly the cores, among those its slice serves, whose L1 holds the slot's
// line: the masks are the hierarchy's only record of L1 residency.
func checkHoldersExact(t *testing.T, step int, h *Hierarchy) {
	t.Helper()
	for s, l2 := range h.l2s {
		for slot, line := range l2.tags {
			if w, b := wayBit(slot); l2.valid[w]&b == 0 {
				continue
			}
			var want uint64
			for c, l1 := range h.l1s {
				if h.sliceOf[c] == s && l1.Contains(line) {
					want |= 1 << uint(c)
				}
			}
			if got := h.holders[s][slot]; got != want {
				t.Fatalf("step %d: slice %d slot %d (line %#x): holder mask %#x, L1 residency %#x", step, s, slot, line, got, want)
			}
		}
	}
}

// TestLastSlotIdentifiesResidentLine pins the Cache.LastSlot contract the
// holder masks are built on: after any Access, the slot holds the accessed
// line, and the slot is stable across re-touches until eviction.
func TestLastSlotIdentifiesResidentLine(t *testing.T) {
	c := MustNew(Config{SizeBytes: 1 << 10, LineBytes: 64, Assoc: 2, HitLatency: 1})
	rng := rand.New(rand.NewSource(7))
	slotOf := make(map[uint64]int)
	for step := 0; step < 20000; step++ {
		addr := uint64(rng.Intn(64)) * 64
		r := c.Access(addr, rng.Intn(2) == 0)
		slot := c.LastSlot()
		if slot < 0 || slot >= int(c.Config().Lines()) {
			t.Fatalf("step %d: slot %d out of range", step, slot)
		}
		if r.Hit {
			if want, ok := slotOf[addr]; ok && want != slot {
				t.Fatalf("step %d: line %#x moved slots %d -> %d without eviction", step, addr, want, slot)
			}
		}
		if r.Evicted {
			delete(slotOf, r.EvictedAddr)
		}
		slotOf[addr] = slot
	}
}
