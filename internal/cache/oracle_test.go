package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// lruModel is an independent reference for Cache: every set is a slice of
// resident lines kept most-recent-first, searched linearly, with
// move-to-front on a hit, eviction from the back when the set is full, and
// removal on invalidate.  It shares no code or layout with Cache, so it
// specifies true-LRU, write-back, write-allocate behaviour rather than
// pinning an implementation.
type lruModel struct {
	lineBytes uint64
	assoc     int
	sets      [][]modelLine
	stats     Stats
}

type modelLine struct {
	line  uint64
	dirty bool
}

func newLRUModel(cfg Config) *lruModel {
	return &lruModel{
		lineBytes: uint64(cfg.LineBytes),
		assoc:     cfg.Assoc,
		sets:      make([][]modelLine, cfg.Sets()),
	}
}

// locate returns the line base address of addr and the index of its set.
func (m *lruModel) locate(addr uint64) (line uint64, set int) {
	n := addr / m.lineBytes
	return n * m.lineBytes, int(n % uint64(len(m.sets)))
}

// find returns the position of line in set s, or -1.
func (m *lruModel) find(line uint64, s int) int {
	for i, l := range m.sets[s] {
		if l.line == line {
			return i
		}
	}
	return -1
}

func (m *lruModel) access(addr uint64, write bool) AccessResult {
	line, s := m.locate(addr)
	m.stats.Accesses++
	if write {
		m.stats.Writes++
	} else {
		m.stats.Reads++
	}
	set := m.sets[s]
	if i := m.find(line, s); i >= 0 {
		m.stats.Hits++
		l := set[i]
		l.dirty = l.dirty || write
		copy(set[1:i+1], set[:i])
		set[0] = l
		return AccessResult{Hit: true}
	}
	m.stats.Misses++
	var res AccessResult
	if len(set) == m.assoc {
		v := set[len(set)-1]
		set = set[:len(set)-1]
		res = AccessResult{Evicted: true, EvictedAddr: v.line, EvictedDirty: v.dirty}
		m.stats.Evictions++
		if v.dirty {
			m.stats.Writebacks++
		}
	}
	set = append(set, modelLine{})
	copy(set[1:], set)
	set[0] = modelLine{line: line, dirty: write}
	m.sets[s] = set
	return res
}

func (m *lruModel) invalidate(addr uint64) (present, dirty bool) {
	line, s := m.locate(addr)
	i := m.find(line, s)
	if i < 0 {
		return false, false
	}
	dirty = m.sets[s][i].dirty
	m.sets[s] = append(m.sets[s][:i], m.sets[s][i+1:]...)
	return true, dirty
}

func (m *lruModel) contains(addr uint64) bool {
	line, s := m.locate(addr)
	return m.find(line, s) >= 0
}

func (m *lruModel) flush() (dirty int64) {
	for s, set := range m.sets {
		for _, l := range set {
			if l.dirty {
				dirty++
			}
		}
		m.sets[s] = set[:0]
	}
	return dirty
}

func (m *lruModel) occupied() (n int64) {
	for _, set := range m.sets {
		n += int64(len(set))
	}
	return n
}

// oracleGeometries spans the shapes the simulator and profiler build:
// power-of-two and non-power-of-two set counts and line sizes, high
// associativity, direct-mapped, and fully associative.
func oracleGeometries() []Config {
	return []Config{
		{SizeBytes: 64 * 4 * 16, LineBytes: 64, Assoc: 4},    // 16 sets
		{SizeBytes: 128 * 20 * 3, LineBytes: 128, Assoc: 20}, // 3 sets
		{SizeBytes: 96 * 16 * 8, LineBytes: 96, Assoc: 16},   // 96 B lines
		{SizeBytes: 64 * 1 * 64, LineBytes: 64, Assoc: 1},    // direct-mapped
		{SizeBytes: 64 * 64 * 1, LineBytes: 64, Assoc: 64},   // fully associative
	}
}

// TestCacheMatchesLRUOracle drives Cache and the reference model through
// the same seeded stream of reads, writes, invalidations and rare flushes
// over a footprint about three times the capacity, and requires identical
// outcomes after every operation: each AccessResult, each Invalidate and
// Flush result, residency of the touched line, occupancy and Stats.
func TestCacheMatchesLRUOracle(t *testing.T) {
	const ops = 200000
	for gi, cfg := range oracleGeometries() {
		t.Run(fmt.Sprintf("%dB-%dway-%dsets", cfg.LineBytes, cfg.Assoc, cfg.Sets()), func(t *testing.T) {
			c := MustNew(cfg)
			m := newLRUModel(cfg)
			rng := rand.New(rand.NewSource(int64(31 + gi)))
			footprint := 3 * cfg.Lines()
			// A base above 4 GiB keeps the upper tag bits in play.
			const base = uint64(5) << 32
			for step := 0; step < ops; step++ {
				addr := base + uint64(rng.Int63n(footprint))*uint64(cfg.LineBytes) + uint64(rng.Int63n(cfg.LineBytes))
				switch r := rng.Intn(20000); {
				case r == 0:
					if got, want := c.Flush(), m.flush(); got != want {
						t.Fatalf("step %d: Flush = %d dirty, oracle %d", step, got, want)
					}
				case r < 1000:
					gp, gd := c.Invalidate(addr)
					wp, wd := m.invalidate(addr)
					if gp != wp || gd != wd {
						t.Fatalf("step %d: Invalidate(%#x) = (%v, %v), oracle (%v, %v)", step, addr, gp, gd, wp, wd)
					}
				default:
					write := rng.Intn(3) == 0
					got, want := c.Access(addr, write), m.access(addr, write)
					if got != want {
						t.Fatalf("step %d: Access(%#x, %v) = %+v, oracle %+v", step, addr, write, got, want)
					}
				}
				if got, want := c.Contains(addr), m.contains(addr); got != want {
					t.Fatalf("step %d: Contains(%#x) = %v, oracle %v", step, addr, got, want)
				}
				if got, want := c.Stats(), m.stats; got != want {
					t.Fatalf("step %d: Stats = %+v, oracle %+v", step, got, want)
				}
				if got, want := c.OccupiedLines(), m.occupied(); got != want {
					t.Fatalf("step %d: OccupiedLines = %d, oracle %d", step, got, want)
				}
			}
		})
	}
}
