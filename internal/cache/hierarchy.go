package cache

import (
	"fmt"
	"math/bits"
)

// Level identifies where in the hierarchy an access was satisfied.
type Level int

// Hierarchy levels.
const (
	LevelL1 Level = iota
	LevelL2
	LevelMemory
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelMemory:
		return "memory"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// HierarchyConfig configures a private-L1 / sliced-L2 hierarchy.  The zero
// Topology is the shared topology, so existing shared-L2 configurations are
// unchanged.
type HierarchyConfig struct {
	// Cores is the number of private L1 caches.
	Cores int
	// L1 is the per-core L1 configuration.  Its line size must equal the
	// L2's.
	L1 Config
	// L2 is the *total* L2 configuration; the topology divides it into
	// slices (see Topology.SliceConfig).
	L2 Config
	// Topology partitions the L2 capacity into slices and maps cores onto
	// them: shared (one slice, the paper's machine), private (one slice per
	// core) or clustered (ClusterSize cores per slice).
	Topology Topology
}

// HierarchyAccess is the outcome of one access through the hierarchy.
type HierarchyAccess struct {
	// Level is the level that satisfied the access (L1, L2, or memory).
	Level Level
	// OffChipTransfers is the number of off-chip line transfers triggered:
	// 1 for the fetch when the access missed in L2, plus 1 if a dirty L2
	// victim must be written back.
	OffChipTransfers int
}

// Hierarchy is a private-L1, sliced-L2 cache hierarchy.  With the shared
// topology (one slice) it is exactly the paper's machine.
//
// Each L1 way is linked to the L2 slot that backs its line, so the miss path
// never searches for a line whose place it knows.  links[core*l1Lines + w]
// is the slot, in core's slice, of the line in way w of core's L1.  It is set
// when the way fills and read only while the way is valid; inclusion keeps
// it right, because a slot is evicted only after every L1 copy of its line
// is invalidated.  holders[s][slot] is the mask of cores whose L1 holds the
// line in slot `slot` of slice s.  A core's bit is set when its L1 fills
// from the slot and cleared, through the link, when its L1 evicts the line;
// an inclusive invalidation, the only other way a line leaves an L1, empties
// the slot, and the slot's next fill resets the mask.  The mask is therefore
// exact, and it is the one record of which L1s hold a line.  An inclusive
// victim probes only the masked L1s, and a dirty L1 victim is written back
// to its linked slot with no tag search.
type Hierarchy struct {
	cfg      HierarchyConfig
	l1s      []*Cache
	l2s      []*Cache
	sliceOf  []int // core -> L2 slice index
	sliceCfg Config
	holders  [][]uint64 // slice -> slot -> cores whose L1 holds the line
	links    []int32    // core*l1Lines + L1 way -> L2 slot of the way's line
	l1Lines  int        // lines per L1
}

// NewHierarchy builds the hierarchy.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("cache: hierarchy needs at least one core, got %d", cfg.Cores)
	}
	if cfg.Cores > 64 {
		return nil, fmt.Errorf("cache: hierarchy supports at most 64 cores, got %d", cfg.Cores)
	}
	if cfg.L1.LineBytes != cfg.L2.LineBytes {
		return nil, fmt.Errorf("cache: L1 line size %d B differs from L2 line size %d B", cfg.L1.LineBytes, cfg.L2.LineBytes)
	}
	if err := cfg.Topology.Validate(cfg.Cores); err != nil {
		return nil, err
	}
	h := &Hierarchy{cfg: cfg}
	for i := 0; i < cfg.Cores; i++ {
		l1, err := New(cfg.L1)
		if err != nil {
			return nil, fmt.Errorf("cache: L1[%d]: %w", i, err)
		}
		h.l1s = append(h.l1s, l1)
	}
	h.sliceCfg = cfg.Topology.SliceConfig(cfg.L2, cfg.Cores)
	slices := cfg.Topology.Slices(cfg.Cores)
	for i := 0; i < slices; i++ {
		l2, err := New(h.sliceCfg)
		if err != nil {
			return nil, fmt.Errorf("cache: L2 slice[%d]: %w", i, err)
		}
		h.l2s = append(h.l2s, l2)
	}
	h.sliceOf = make([]int, cfg.Cores)
	for c := range h.sliceOf {
		h.sliceOf[c] = cfg.Topology.SliceOf(c, cfg.Cores)
	}
	h.holders = make([][]uint64, slices)
	for i := range h.holders {
		h.holders[i] = make([]uint64, h.sliceCfg.Lines())
	}
	h.l1Lines = int(cfg.L1.Lines())
	h.links = make([]int32, cfg.Cores*h.l1Lines)
	return h, nil
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// L1 returns core's private L1 cache.
func (h *Hierarchy) L1(core int) *Cache { return h.l1s[core] }

// L2 returns the first L2 slice; with the shared topology this is the one
// shared L2 cache.
func (h *Hierarchy) L2() *Cache { return h.l2s[0] }

// NumSlices returns the number of L2 slices.
func (h *Hierarchy) NumSlices() int { return len(h.l2s) }

// L2Slice returns the i-th L2 slice.
func (h *Hierarchy) L2Slice(i int) *Cache { return h.l2s[i] }

// SliceOf returns the L2 slice index serving core.
func (h *Hierarchy) SliceOf(core int) int { return h.sliceOf[core] }

// SliceMap returns the core-to-slice map, indexed by core.  It is the
// hierarchy's own slice: callers must not modify it.
func (h *Hierarchy) SliceMap() []int { return h.sliceOf }

// SliceConfig returns the per-slice L2 configuration (capacity and latency
// already divided by the topology).
func (h *Hierarchy) SliceConfig() Config { return h.sliceCfg }

// Access performs one memory access by core and classifies it.
func (h *Hierarchy) Access(core int, addr uint64, write bool) HierarchyAccess {
	if core < 0 || core >= len(h.l1s) {
		panic(fmt.Sprintf("cache: access from unknown core %d", core))
	}
	l1 := h.l1s[core]
	r1 := l1.Access(addr, write)
	if r1.Hit {
		return HierarchyAccess{Level: LevelL1}
	}

	slice := h.sliceOf[core]
	l2 := h.l2s[slice]
	holders := h.holders[slice]
	link := &h.links[core*h.l1Lines+l1.LastSlot()]
	if r1.Evicted {
		// The victim leaves this core's L1.  Its linked slot still holds it
		// (inclusion), so a dirty victim is written back there (on-chip
		// traffic only) without a tag search.
		holders[*link] &^= 1 << uint(core)
		if r1.EvictedDirty {
			l2.touch(int(*link), true)
		}
	}

	var out HierarchyAccess
	r2 := l2.Access(addr, write)
	slot := l2.LastSlot()
	*link = int32(slot)
	if r2.Evicted {
		// Inclusive L2 slices: drop the L1 copies of the victim line held by
		// the cores this slice serves, so the model never holds lines absent
		// from their backing slice.  The holder mask names every such core
		// (see Hierarchy).
		for m := holders[slot]; m != 0; m &= m - 1 {
			h.l1s[bits.TrailingZeros64(m)].Invalidate(r2.EvictedAddr)
		}
		if r2.EvictedDirty {
			out.OffChipTransfers++
		}
	}
	if r2.Hit {
		holders[slot] |= 1 << uint(core)
		out.Level = LevelL2
		return out
	}
	holders[slot] = 1 << uint(core)
	out.Level = LevelMemory
	out.OffChipTransfers++
	return out
}

// L1Stats returns the aggregate statistics over all private L1 caches.
func (h *Hierarchy) L1Stats() Stats {
	var total Stats
	for _, c := range h.l1s {
		total.Add(c.Stats())
	}
	return total
}

// L2Stats returns the aggregate L2 statistics over all slices (for the
// shared topology this is the single shared L2's statistics, as before).
func (h *Hierarchy) L2Stats() Stats {
	var total Stats
	for _, c := range h.l2s {
		total.Add(c.Stats())
	}
	return total
}

// L2SliceStats returns a copy of each slice's statistics, indexed by slice.
func (h *Hierarchy) L2SliceStats() []Stats {
	out := make([]Stats, len(h.l2s))
	for i, c := range h.l2s {
		out[i] = c.Stats()
	}
	return out
}

// ResetStats clears statistics on every cache.
func (h *Hierarchy) ResetStats() {
	for _, c := range h.l1s {
		c.ResetStats()
	}
	for _, c := range h.l2s {
		c.ResetStats()
	}
}
