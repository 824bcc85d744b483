// Package cache models set-associative caches with LRU replacement and the
// two-level (private L1, shared L2) hierarchy used by the CMP simulator.
//
// The model is functional rather than cycle-accurate: each access classifies
// as a hit or a miss at each level and reports the victim line (for
// write-back traffic accounting).  Latencies are attached by the caller
// (package cmpsim) from the configuration tables in package config.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int64
	// LineBytes is the cache-line size.
	LineBytes int64
	// Assoc is the set associativity (ways).
	Assoc int
	// HitLatency is the access latency in cycles charged on a hit.
	HitLatency int64
}

// Sets returns the number of sets implied by the configuration (at least 1).
func (c Config) Sets() int {
	if c.LineBytes <= 0 || c.Assoc <= 0 {
		return 1
	}
	sets := c.SizeBytes / (c.LineBytes * int64(c.Assoc))
	if sets < 1 {
		sets = 1
	}
	return int(sets)
}

// Lines returns the total number of lines the cache holds.
func (c Config) Lines() int64 { return int64(c.Sets()) * int64(c.Assoc) }

// EffectiveBytes returns the capacity actually modelled (Sets*Assoc*Line),
// which may be slightly below SizeBytes when SizeBytes is not an exact
// multiple of LineBytes*Assoc.
func (c Config) EffectiveBytes() int64 { return c.Lines() * c.LineBytes }

// Validate reports obviously inconsistent configurations.
func (c Config) Validate() error {
	if c.LineBytes <= 0 {
		return fmt.Errorf("cache: LineBytes must be positive, got %d", c.LineBytes)
	}
	if c.Assoc <= 0 {
		return fmt.Errorf("cache: Assoc must be positive, got %d", c.Assoc)
	}
	if c.SizeBytes < c.LineBytes*int64(c.Assoc) {
		return fmt.Errorf("cache: SizeBytes %d smaller than one set (%d)", c.SizeBytes, c.LineBytes*int64(c.Assoc))
	}
	if c.HitLatency < 0 {
		return fmt.Errorf("cache: negative HitLatency %d", c.HitLatency)
	}
	return nil
}

// Stats accumulates access counts for one cache.
type Stats struct {
	Accesses   int64
	Hits       int64
	Misses     int64
	Reads      int64
	Writes     int64
	Evictions  int64
	Writebacks int64
}

// MissRate returns Misses/Accesses, or 0 when there were no accesses.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Accesses += other.Accesses
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.Evictions += other.Evictions
	s.Writebacks += other.Writebacks
}

// Cache is a set-associative cache with true-LRU replacement and a
// write-back, write-allocate policy.
//
// Way metadata is stored structure-of-arrays in flat set-major slices (set i
// occupies index range [i*assoc, (i+1)*assoc)): the 8-byte tags live apart
// from everything else so the hit scan — the single hottest loop in the
// simulator — streams only tags instead of dragging padded per-way structs
// through the host cache.  Recency is a circular doubly-linked list per set
// (prev/next hold flat way indices, heads the most recently used way), with
// invalid ways kept at the LRU end, so the way behind the head is always the
// one a miss fills: a hit moves its way to the front, a miss makes the
// victim the head with a single write, and Invalidate moves its way to the
// back.  Replacement therefore costs O(1) whatever the associativity.  A
// set's list is linked on its first miss; until then the set holds no valid
// line, so nothing reads its links, and a new cache is two zeroed
// allocations however many sets it never touches.  Line/set arithmetic uses
// shifts and masks whenever the line size and set count are powers of two —
// every access otherwise pays two hardware integer divisions.  Neither
// layout nor arithmetic affects classification: the modelled geometry and
// LRU behaviour are identical.
type Cache struct {
	cfg Config
	// tags[i] is the line base address held by flat way i (valid only when
	// way i's valid bit is set; invalid ways may hold stale tags).
	tags []uint64
	// prev[i] and next[i] are the flat indices of way i's neighbours on its
	// set's recency list, towards the MRU and LRU end respectively; the
	// list is circular, so prev of the head is the LRU way.  prev, next,
	// heads, valid and dirty share one backing array.
	prev, next []int32
	// heads[s] is 1 + the flat index of set s's most recently used way, or
	// 0 while the set has never missed and its list is not linked yet.
	heads []int32
	// valid and dirty are per-way bitmaps, bit i%32 of word i/32 for flat
	// way i (see wayBit).  Bits rather than a word per way keep a cache at
	// about 16 bytes a line, which matters where caches are built fresh
	// per measurement (profile.SetAssoc builds four per task group).
	valid, dirty []int32
	assoc        int
	numSets      int
	setMask      uint64
	// Per-access counters.  Hits and Reads are derived in Stats()
	// (Hits = Accesses-Misses, Reads = Accesses-Writes), so a hit bumps
	// only accesses.
	accesses   int64
	misses     int64
	writes     int64
	evictions  int64
	writebacks int64
	// power2 records whether the set count is a power of two, enabling
	// mask-based indexing.
	power2 bool
	// linePow2/lineShift/lineMask enable shift/mask line arithmetic when
	// LineBytes is a power of two.
	linePow2  bool
	lineShift uint
	lineMask  uint64
	// lastSlot is the flat way index (set*assoc + way) touched by the most
	// recent Access: the hit way, or the filled victim on a miss.  Exposed
	// via LastSlot so the hierarchy can key per-line bookkeeping off the
	// slot a line occupies without an extra lookup.
	lastSlot int
}

// wayBit returns the word index and mask of flat way w in a per-way bitmap.
func wayBit(w int) (int, int32) { return w >> 5, 1 << (w & 31) }

// AccessResult describes the outcome of a single cache access.
type AccessResult struct {
	// Hit reports whether the line was present.
	Hit bool
	// Evicted reports whether a valid line was displaced to make room.
	Evicted bool
	// EvictedAddr is the base address of the displaced line when Evicted.
	EvictedAddr uint64
	// EvictedDirty reports whether the displaced line was dirty (requires
	// a write-back).
	EvictedDirty bool
}

// New returns an empty cache with the given configuration.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Sets()
	lines := n * cfg.Assoc
	words := (lines + 31) / 32
	meta := make([]int32, 2*lines+n+2*words)
	meta, prev := meta[lines:], meta[:lines:lines]
	meta, next := meta[lines:], meta[:lines:lines]
	meta, heads := meta[n:], meta[:n:n]
	c := &Cache{
		cfg:     cfg,
		tags:    make([]uint64, lines),
		prev:    prev,
		next:    next,
		heads:   heads,
		valid:   meta[:words:words],
		dirty:   meta[words:],
		assoc:   cfg.Assoc,
		numSets: n,
		power2:  n&(n-1) == 0,
	}
	if c.power2 {
		c.setMask = uint64(n - 1)
	}
	if lb := uint64(cfg.LineBytes); lb&(lb-1) == 0 {
		c.linePow2 = true
		c.lineMask = ^(lb - 1)
		for 1<<c.lineShift < lb {
			c.lineShift++
		}
	}
	return c, nil
}

// MustNew is New but panics on error; for use with known-good configs.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats {
	return Stats{
		Accesses:   c.accesses,
		Hits:       c.accesses - c.misses,
		Misses:     c.misses,
		Reads:      c.accesses - c.writes,
		Writes:     c.writes,
		Evictions:  c.evictions,
		Writebacks: c.writebacks,
	}
}

// ResetStats clears the statistics without touching cache contents.
func (c *Cache) ResetStats() {
	c.accesses, c.misses, c.writes, c.evictions, c.writebacks = 0, 0, 0, 0, 0
}

// lineAddr returns the base address of the line containing addr.
func (c *Cache) lineAddr(addr uint64) uint64 {
	if c.linePow2 {
		return addr & c.lineMask
	}
	return addr - addr%uint64(c.cfg.LineBytes)
}

func (c *Cache) setIndex(lineAddr uint64) int {
	var idx uint64
	if c.linePow2 {
		idx = lineAddr >> c.lineShift
	} else {
		idx = lineAddr / uint64(c.cfg.LineBytes)
	}
	if c.power2 {
		return int(idx & c.setMask)
	}
	return int(idx % uint64(c.numSets))
}

// find returns the flat index of the valid way holding line la in set, or
// -1.  The tag is compared first — a stale tag on an invalid way is the only
// false positive, so the valid bit is consulted only on a match.
func (c *Cache) find(la uint64, set int) int {
	base := set * c.assoc
	tags := c.tags[base : base+c.assoc]
	for i := range tags {
		if tags[i] == la {
			if wd, m := wayBit(base + i); c.valid[wd]&m != 0 {
				return base + i
			}
		}
	}
	return -1
}

// Access performs a read or write of addr, allocating on miss, and returns
// the outcome.
func (c *Cache) Access(addr uint64, write bool) AccessResult {
	la := c.lineAddr(addr)
	set := c.setIndex(la)
	c.accesses++
	if write {
		c.writes++
	}
	if w := c.find(la, set); w >= 0 {
		if write {
			wd, m := wayBit(w)
			c.dirty[wd] |= m
		}
		if h := c.heads[set] - 1; int32(w) != h {
			// Once w sits behind the head, taking the head makes it MRU.
			c.moveBefore(int32(w), h)
			c.heads[set] = int32(w) + 1
		}
		c.lastSlot = w
		return AccessResult{Hit: true}
	}
	// Miss: the way behind the head is invalid if any way is, otherwise the
	// LRU way.  It fills, and on a circular list becoming the MRU way is
	// just becoming the head.
	c.misses++
	h := c.heads[set]
	if h == 0 {
		h = c.link(set)
	}
	victim := c.prev[h-1]
	c.heads[set] = victim + 1
	res := AccessResult{}
	wd, m := wayBit(int(victim))
	if c.valid[wd]&m != 0 {
		res.Evicted = true
		res.EvictedAddr = c.tags[victim]
		res.EvictedDirty = c.dirty[wd]&m != 0
		c.evictions++
		if res.EvictedDirty {
			c.writebacks++
		}
	}
	c.tags[victim] = la
	c.valid[wd] |= m
	if write {
		c.dirty[wd] |= m
	} else {
		c.dirty[wd] &^= m
	}
	c.lastSlot = int(victim)
	return res
}

// link builds set's recency list in way order on its first miss (every way
// is still invalid, so any order is LRU-correct) and returns its head,
// encoded as in heads.
func (c *Cache) link(set int) int32 {
	first := int32(set * c.assoc)
	last := first + int32(c.assoc) - 1
	for w := first; w <= last; w++ {
		c.prev[w] = w - 1
		c.next[w] = w + 1
	}
	c.prev[first] = last
	c.next[last] = first
	return first + 1
}

// moveBefore splices way w out of its set's recency list and back in just
// before way h (w != h); with h the head, w becomes the LRU way.  A w
// already behind h gets its links rewritten to the same values, so that
// case needs no branch.
func (c *Cache) moveBefore(w, h int32) {
	prev, next := c.prev, c.next
	p, n := prev[w], next[w]
	next[p] = n
	prev[n] = p
	t := prev[h]
	prev[w] = t
	next[w] = h
	next[t] = w
	prev[h] = w
}

// toBack makes way w, which is on set's list, the least recently used.
func (c *Cache) toBack(set int, w int32) {
	h := c.heads[set] - 1
	if w == h {
		// Rotating the head forward leaves w behind it, at the LRU end.
		c.heads[set] = c.next[w] + 1
		return
	}
	c.moveBefore(w, h)
}

// LastSlot returns the flat slot index (set*assoc + way) of the line touched
// by the most recent Access: the way that hit, or the way filled on a miss.
// Slot indices are stable identifiers for resident lines — a line stays in
// its slot until evicted — so callers can maintain per-resident-line state in
// a dense array of Config.Lines() entries.
func (c *Cache) LastSlot() int { return c.lastSlot }

// Contains reports whether the line holding addr is present, without
// affecting LRU state or statistics.
func (c *Cache) Contains(addr uint64) bool {
	la := c.lineAddr(addr)
	return c.find(la, c.setIndex(la)) >= 0
}

// Invalidate removes the line holding addr if present, returning whether it
// was present and dirty.  The emptied way moves to the LRU end of its set,
// where the next miss in the set fills it.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	la := c.lineAddr(addr)
	set := c.setIndex(la)
	w := c.find(la, set)
	if w < 0 {
		return false, false
	}
	wd, m := wayBit(w)
	dirty = c.dirty[wd]&m != 0
	c.valid[wd] &^= m
	c.toBack(set, int32(w))
	return true, dirty
}

// Flush invalidates every line, returning the number of dirty lines that
// would have been written back.  With every way invalid, each set's
// recency list is valid in whatever order it is left.
func (c *Cache) Flush() (dirty int64) {
	for i, v := range c.valid {
		dirty += int64(bits.OnesCount32(uint32(v & c.dirty[i])))
	}
	clear(c.valid)
	return dirty
}

// OccupiedLines returns the number of valid lines currently resident.
func (c *Cache) OccupiedLines() int64 {
	var n int64
	for _, v := range c.valid {
		n += int64(bits.OnesCount32(uint32(v)))
	}
	return n
}
