package cache

import "testing"

func testHierarchy(t *testing.T, cores int, writeInv bool) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(HierarchyConfig{
		Cores:           cores,
		L1:              Config{SizeBytes: 1024, LineBytes: 64, Assoc: 2, HitLatency: 1},
		L2:              Config{SizeBytes: 16 * 1024, LineBytes: 64, Assoc: 4, HitLatency: 10},
		WriteInvalidate: writeInv,
	})
	if err != nil {
		t.Fatalf("NewHierarchy: %v", err)
	}
	return h
}

func TestHierarchyLevels(t *testing.T) {
	h := testHierarchy(t, 2, false)
	// Cold: must go to memory.
	r := h.Access(0, 4096, false)
	if r.Level != LevelMemory || r.OffChipTransfers != 1 {
		t.Fatalf("cold access = %+v", r)
	}
	// Same core, same line: L1 hit.
	r = h.Access(0, 4096+8, false)
	if r.Level != LevelL1 {
		t.Fatalf("second access level = %v, want L1", r.Level)
	}
	// Different core, same line: misses its own L1, hits shared L2.
	r = h.Access(1, 4096, false)
	if r.Level != LevelL2 {
		t.Fatalf("cross-core access level = %v, want L2 (constructive sharing)", r.Level)
	}
	if r.OffChipTransfers != 0 {
		t.Fatalf("L2 hit should not use off-chip bandwidth, got %d transfers", r.OffChipTransfers)
	}
}

func TestHierarchyStatsAggregation(t *testing.T) {
	h := testHierarchy(t, 4, false)
	for core := 0; core < 4; core++ {
		for i := 0; i < 10; i++ {
			h.Access(core, uint64(i*64), false)
		}
	}
	l1 := h.L1Stats()
	if l1.Accesses != 40 {
		t.Fatalf("L1 accesses = %d, want 40", l1.Accesses)
	}
	l2 := h.L2Stats()
	// Core 0 misses all 10 in L1 and L2; later cores hit in L2.
	if l2.Misses != 10 {
		t.Fatalf("L2 misses = %d, want 10", l2.Misses)
	}
	if l2.Hits != l2.Accesses-10 {
		t.Fatalf("L2 hits = %d, accesses = %d", l2.Hits, l2.Accesses)
	}
	h.ResetStats()
	if h.L1Stats().Accesses != 0 || h.L2Stats().Accesses != 0 {
		t.Fatalf("ResetStats did not clear")
	}
}

func TestHierarchyDirtyL2EvictionCostsBandwidth(t *testing.T) {
	// Tiny L2 to force evictions of dirty lines.
	h, err := NewHierarchy(HierarchyConfig{
		Cores: 1,
		L1:    Config{SizeBytes: 128, LineBytes: 64, Assoc: 2, HitLatency: 1},
		L2:    Config{SizeBytes: 256, LineBytes: 64, Assoc: 2, HitLatency: 10},
	})
	if err != nil {
		t.Fatalf("NewHierarchy: %v", err)
	}
	transfers := 0
	// Write a long stream; dirty victims must be written back off-chip.
	for i := 0; i < 64; i++ {
		r := h.Access(0, uint64(i*64), true)
		transfers += r.OffChipTransfers
	}
	// 64 fetches plus a substantial number of dirty write-backs.
	if transfers <= 64 {
		t.Fatalf("transfers = %d, want > 64 (write-backs must consume bandwidth)", transfers)
	}
}

func TestHierarchyInclusionInvalidatesL1(t *testing.T) {
	h, err := NewHierarchy(HierarchyConfig{
		Cores: 1,
		L1:    Config{SizeBytes: 4096, LineBytes: 64, Assoc: 4, HitLatency: 1},
		L2:    Config{SizeBytes: 256, LineBytes: 64, Assoc: 2, HitLatency: 10},
	})
	if err != nil {
		t.Fatalf("NewHierarchy: %v", err)
	}
	h.Access(0, 0, false)
	// Fill the L2 set containing line 0 to force its eviction from L2.
	for i := 1; i <= 8; i++ {
		h.Access(0, uint64(i*256), false) // same L2 set (2 sets of 64B lines => stride 128; use 256 to be safe for both sets)
	}
	if h.L1(0).Contains(0) && !h.L2().Contains(0) {
		t.Fatalf("inclusion violated: line 0 in L1 but not in L2")
	}
}

func TestHierarchyWriteInvalidate(t *testing.T) {
	h := testHierarchy(t, 2, true)
	h.Access(0, 4096, false)
	h.Access(1, 4096, false)
	// Core 1 writes: core 0's copy must be invalidated.
	h.Access(1, 4096, true)
	if h.L1(0).Contains(4096) {
		t.Fatalf("stale copy left in core 0's L1")
	}
	if h.Invalidations() != 1 {
		t.Fatalf("total invalidations = %d, want 1", h.Invalidations())
	}
}

func TestHierarchyConfigErrors(t *testing.T) {
	_, err := NewHierarchy(HierarchyConfig{Cores: 0})
	if err == nil {
		t.Fatalf("accepted zero cores")
	}
	_, err = NewHierarchy(HierarchyConfig{Cores: 65,
		L1: Config{SizeBytes: 1024, LineBytes: 64, Assoc: 2},
		L2: Config{SizeBytes: 1024, LineBytes: 64, Assoc: 2}})
	if err == nil {
		t.Fatalf("accepted 65 cores")
	}
	_, err = NewHierarchy(HierarchyConfig{Cores: 1,
		L1: Config{},
		L2: Config{SizeBytes: 1024, LineBytes: 64, Assoc: 2}})
	if err == nil {
		t.Fatalf("accepted invalid L1")
	}
	_, err = NewHierarchy(HierarchyConfig{Cores: 1,
		L1: Config{SizeBytes: 1024, LineBytes: 64, Assoc: 2},
		L2: Config{}})
	if err == nil {
		t.Fatalf("accepted invalid L2")
	}
	_, err = NewHierarchy(HierarchyConfig{Cores: 1,
		L1: Config{SizeBytes: 1024, LineBytes: 64, Assoc: 2},
		L2: Config{SizeBytes: 4096, LineBytes: 128, Assoc: 2}})
	if err == nil {
		t.Fatalf("accepted L1 and L2 line sizes that differ")
	}
}

func TestLevelString(t *testing.T) {
	if LevelL1.String() != "L1" || LevelL2.String() != "L2" || LevelMemory.String() != "memory" {
		t.Fatalf("Level.String wrong")
	}
	if Level(9).String() == "" {
		t.Fatalf("unknown level should still format")
	}
}
