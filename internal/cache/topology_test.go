package cache

import "testing"

func TestTopologyParseStringRoundTrip(t *testing.T) {
	for _, enc := range []string{"shared", "private", "clustered:4", "clustered:1"} {
		topo, err := ParseTopology(enc)
		if err != nil {
			t.Fatalf("ParseTopology(%q): %v", enc, err)
		}
		if got := topo.String(); got != enc {
			t.Errorf("round trip %q -> %q", enc, got)
		}
	}
	for _, bad := range []string{"", "l3", "clustered", "clustered:", "clustered:0", "clustered:-2", "clustered:x"} {
		if _, err := ParseTopology(bad); err == nil {
			t.Errorf("ParseTopology(%q) accepted", bad)
		}
	}
}

func TestTopologyZeroValueIsShared(t *testing.T) {
	var topo Topology
	if topo != Shared() {
		t.Fatalf("zero Topology = %v, want shared", topo)
	}
	if topo.String() != "shared" {
		t.Fatalf("zero Topology string = %q", topo.String())
	}
}

func TestTopologySlicesAndSliceOf(t *testing.T) {
	cases := []struct {
		topo   Topology
		cores  int
		slices int
		// sliceOf[core] for every core
		want []int
	}{
		{Shared(), 4, 1, []int{0, 0, 0, 0}},
		{Private(), 4, 4, []int{0, 1, 2, 3}},
		{Clustered(2), 4, 2, []int{0, 0, 1, 1}},
		{Clustered(2), 5, 3, []int{0, 0, 1, 1, 2}},
		{Clustered(4), 4, 1, []int{0, 0, 0, 0}},
		{Clustered(8), 4, 1, []int{0, 0, 0, 0}}, // k > P clamps to shared
		{Clustered(1), 3, 3, []int{0, 1, 2}},
	}
	for _, c := range cases {
		if got := c.topo.Slices(c.cores); got != c.slices {
			t.Errorf("%v.Slices(%d) = %d, want %d", c.topo, c.cores, got, c.slices)
		}
		for core, want := range c.want {
			if got := c.topo.SliceOf(core, c.cores); got != want {
				t.Errorf("%v.SliceOf(%d, %d) = %d, want %d", c.topo, core, c.cores, got, want)
			}
		}
	}
}

func TestTopologyValidate(t *testing.T) {
	if err := Shared().Validate(0); err == nil {
		t.Errorf("accepted zero cores")
	}
	if err := Clustered(0).Validate(4); err == nil {
		t.Errorf("accepted cluster size 0")
	}
	if err := (Topology{Kind: TopologyKind(99)}).Validate(4); err == nil {
		t.Errorf("accepted unknown kind")
	}
	for _, topo := range []Topology{Shared(), Private(), Clustered(3)} {
		if err := topo.Validate(8); err != nil {
			t.Errorf("%v.Validate(8): %v", topo, err)
		}
	}
}

func TestTopologySliceConfig(t *testing.T) {
	total := Config{SizeBytes: 8 << 20, LineBytes: 128, Assoc: 16, HitLatency: 13}

	// One slice: the total configuration is returned untouched.
	if got := Shared().SliceConfig(total, 8); got != total {
		t.Errorf("shared slice config %+v != total %+v", got, total)
	}

	// Private on 8 cores: capacity /8, latency -2*log2(8)=6, floored at 7.
	got := Private().SliceConfig(total, 8)
	if got.SizeBytes != (8<<20)/8 {
		t.Errorf("private slice size = %d, want %d", got.SizeBytes, (8<<20)/8)
	}
	if got.HitLatency != 7 {
		t.Errorf("private slice latency = %d, want 7 (13-6)", got.HitLatency)
	}
	if got.Assoc != total.Assoc || got.LineBytes != total.LineBytes {
		t.Errorf("slice config changed assoc/line: %+v", got)
	}

	// Clustered:4 on 8 cores: 2 slices, capacity /2, latency 13-2=11.
	got = Clustered(4).SliceConfig(total, 8)
	if got.SizeBytes != (8<<20)/2 || got.HitLatency != 11 {
		t.Errorf("clustered:4 slice = %+v, want size %d latency 11", got, (8<<20)/2)
	}

	// The latency floor holds even for extreme slicing.
	tiny := Config{SizeBytes: 1 << 20, LineBytes: 128, Assoc: 16, HitLatency: 7}
	got = Private().SliceConfig(tiny, 64)
	if got.HitLatency != MinL2HitLatency {
		t.Errorf("sliced latency = %d, want floor %d", got.HitLatency, MinL2HitLatency)
	}

	// When a slice's share cannot hold a full set, associativity shrinks
	// instead of the capacity floor inflating: the aggregate sliced
	// capacity must never exceed the total by more than one line per slice
	// (the equal-area guarantee), and the slice must stay valid.
	scaled := Config{SizeBytes: 5120, LineBytes: 128, Assoc: 20, HitLatency: 13}
	got = Private().SliceConfig(scaled, 32)
	if got.Assoc != 1 || got.SizeBytes != 160 {
		t.Errorf("undersized slice = %+v, want 160 B direct-mapped", got)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("undersized slice invalid: %v", err)
	}
	for _, cores := range []int{2, 8, 32, 64} {
		for _, topo := range []Topology{Private(), Clustered(2), Clustered(4)} {
			slices := topo.Slices(cores)
			sl := topo.SliceConfig(scaled, cores)
			if agg, bound := sl.SizeBytes*int64(slices), scaled.SizeBytes+scaled.LineBytes*int64(slices); agg > bound {
				t.Errorf("%v on %d cores: aggregate slice capacity %d exceeds total %d (+1 line/slice bound %d)",
					topo, cores, agg, scaled.SizeBytes, bound)
			}
		}
	}
}

// TestHierarchyPrivateSliceIsolation checks that with private slices one
// core's traffic cannot displace another core's L2 lines — the defining
// property that forfeits constructive sharing.
func TestHierarchyPrivateSliceIsolation(t *testing.T) {
	cfg := HierarchyConfig{
		Cores:    2,
		L1:       Config{SizeBytes: 512, LineBytes: 64, Assoc: 2, HitLatency: 1},
		L2:       Config{SizeBytes: 8 << 10, LineBytes: 64, Assoc: 4, HitLatency: 9},
		Topology: Private(),
	}
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumSlices() != 2 {
		t.Fatalf("NumSlices = %d, want 2", h.NumSlices())
	}
	// Core 0 loads a line; core 1 then streams far more data than one slice
	// holds.  Core 0's slice must still contain the line.
	h.Access(0, 0x1000, false)
	for i := 0; i < 1024; i++ {
		h.Access(1, uint64(0x100000+i*64), false)
	}
	if !h.L2Slice(0).Contains(0x1000) {
		t.Errorf("core 1's traffic evicted core 0's private-slice line")
	}
	if h.L2Slice(1).Contains(0x1000) {
		t.Errorf("core 0's line leaked into core 1's slice")
	}
	// Per-slice stats attribute the traffic to the right slice.
	stats := h.L2SliceStats()
	if stats[0].Accesses != 1 || stats[1].Accesses != 1024 {
		t.Errorf("slice accesses = %d/%d, want 1/1024", stats[0].Accesses, stats[1].Accesses)
	}
	agg := h.L2Stats()
	if agg.Accesses != 1025 {
		t.Errorf("aggregate accesses = %d, want 1025", agg.Accesses)
	}
}

// TestHierarchyClusteredSharingWithinCluster checks that cores in the same
// cluster share a slice (constructive sharing) while cores in different
// clusters do not.
func TestHierarchyClusteredSharingWithinCluster(t *testing.T) {
	cfg := HierarchyConfig{
		Cores:    4,
		L1:       Config{SizeBytes: 256, LineBytes: 64, Assoc: 2, HitLatency: 1},
		L2:       Config{SizeBytes: 16 << 10, LineBytes: 64, Assoc: 4, HitLatency: 9},
		Topology: Clustered(2),
	}
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumSlices() != 2 {
		t.Fatalf("NumSlices = %d, want 2", h.NumSlices())
	}
	// Core 0 fetches a line (misses to memory, fills slice 0).
	if acc := h.Access(0, 0x2000, false); acc.Level != LevelMemory || h.L2Slice(0).Stats().Misses != 1 {
		t.Fatalf("first access: %+v, slice 0 %+v", acc, h.L2Slice(0).Stats())
	}
	// Cluster-mate core 1 hits it in the shared slice.
	if acc := h.Access(1, 0x2000, false); acc.Level != LevelL2 || h.L2Slice(0).Stats().Hits != 1 {
		t.Errorf("cluster-mate access should hit slice 0's L2, got %+v, slice 0 %+v", acc, h.L2Slice(0).Stats())
	}
	// Core 2 (other cluster) misses all the way to memory.
	if acc := h.Access(2, 0x2000, false); acc.Level != LevelMemory || h.L2Slice(1).Stats().Misses != 1 {
		t.Errorf("cross-cluster access should miss to memory on slice 1, got %+v, slice 1 %+v", acc, h.L2Slice(1).Stats())
	}
}

// TestHierarchyInclusiveInvalidationPerSlice checks that an inclusive-L2
// victim invalidates L1 copies only in the cores the evicting slice serves.
func TestHierarchyInclusiveInvalidationPerSlice(t *testing.T) {
	// Tiny direct-ish L2 slices force evictions quickly.
	cfg := HierarchyConfig{
		Cores:    2,
		L1:       Config{SizeBytes: 4 << 10, LineBytes: 64, Assoc: 4, HitLatency: 1},
		L2:       Config{SizeBytes: 512, LineBytes: 64, Assoc: 2, HitLatency: 9},
		Topology: Private(),
	}
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Both cores load the same address into their own slice and L1.
	h.Access(0, 0x40, false)
	h.Access(1, 0x40, false)
	// Core 0 thrashes its own tiny slice (4 lines per slice: 512/64/2 = 4
	// sets... actually 512/(64*2) = 4 sets of 2 ways = 8 lines).
	for i := 1; i < 64; i++ {
		h.Access(0, uint64(0x40+i*64*4), false)
	}
	// Core 0's copy must be gone from its L1 (inclusion), core 1's intact.
	if h.L1(0).Contains(0x40) && !h.L2Slice(0).Contains(0x40) {
		t.Errorf("core 0's L1 kept a line its slice evicted (inclusion violated)")
	}
	if !h.L1(1).Contains(0x40) {
		t.Errorf("slice 0's eviction invalidated core 1's L1 line in another slice")
	}
}
