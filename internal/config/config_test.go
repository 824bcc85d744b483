package config

import (
	"fmt"
	"strings"
	"testing"

	"cmpsched/internal/cache"
)

func TestCommonParamsTable1(t *testing.T) {
	c := CommonParams()
	if c.L1SizeBytes != 64*KB || c.LineBytes != 128 || c.L1Assoc != 4 || c.L1HitLatency != 1 {
		t.Fatalf("L1 parameters wrong: %+v", c)
	}
	if c.MemLatency != 300 || c.MemServiceInterval != 30 {
		t.Fatalf("memory parameters wrong: %+v", c)
	}
}

func TestDefaultTable2(t *testing.T) {
	want := []struct {
		cores int
		tech  int
		l2MB  int64
		assoc int
		l2Hit int64
	}{
		{1, 90, 10, 20, 15},
		{2, 90, 8, 16, 13},
		{4, 90, 4, 16, 11},
		{8, 65, 8, 16, 13},
		{16, 45, 20, 20, 19},
		{32, 32, 40, 20, 23},
	}
	if len(DefaultCores()) != len(want) {
		t.Fatalf("DefaultCores length %d", len(DefaultCores()))
	}
	for _, w := range want {
		c, err := Default(w.cores)
		if err != nil {
			t.Fatalf("Default(%d): %v", w.cores, err)
		}
		if c.TechnologyNM != w.tech {
			t.Errorf("%d cores: tech = %d, want %d", w.cores, c.TechnologyNM, w.tech)
		}
		if c.L2.SizeBytes != w.l2MB*MB {
			t.Errorf("%d cores: L2 = %d, want %d MB", w.cores, c.L2.SizeBytes, w.l2MB)
		}
		if c.L2.Assoc != w.assoc {
			t.Errorf("%d cores: assoc = %d, want %d", w.cores, c.L2.Assoc, w.assoc)
		}
		if c.L2.HitLatency != w.l2Hit {
			t.Errorf("%d cores: L2 hit = %d, want %d", w.cores, c.L2.HitLatency, w.l2Hit)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%d cores: Validate: %v", w.cores, err)
		}
	}
	if _, err := Default(3); err == nil {
		t.Fatalf("Default(3) should fail")
	}
}

func TestSingleTech45Table3(t *testing.T) {
	cores := SingleTech45Cores()
	l2MB := []int64{48, 44, 40, 36, 32, 32, 28, 24, 20, 16, 12, 9, 5, 1}
	assoc := []int{24, 22, 20, 18, 16, 16, 28, 24, 20, 16, 24, 18, 20, 16}
	hit := []int64{25, 25, 23, 23, 21, 21, 21, 19, 19, 17, 15, 15, 13, 7}
	if len(cores) != 14 {
		t.Fatalf("expected 14 configurations, got %d", len(cores))
	}
	for i, p := range cores {
		c, err := SingleTech45(p)
		if err != nil {
			t.Fatalf("SingleTech45(%d): %v", p, err)
		}
		if c.TechnologyNM != 45 {
			t.Errorf("%d cores: tech %d", p, c.TechnologyNM)
		}
		if c.L2.SizeBytes != l2MB[i]*MB {
			t.Errorf("%d cores: L2 %d, want %d MB", p, c.L2.SizeBytes, l2MB[i])
		}
		if c.L2.Assoc != assoc[i] {
			t.Errorf("%d cores: assoc %d, want %d", p, c.L2.Assoc, assoc[i])
		}
		if c.L2.HitLatency != hit[i] {
			t.Errorf("%d cores: hit %d, want %d", p, c.L2.HitLatency, hit[i])
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%d cores: Validate: %v", p, err)
		}
	}
	if _, err := SingleTech45(3); err == nil {
		t.Fatalf("SingleTech45(3) should fail")
	}
	if len(SingleTech45All()) != 14 || len(Defaults()) != 6 {
		t.Fatalf("All accessors wrong lengths")
	}
}

func TestL2CacheShrinksAsCoresGrow45nm(t *testing.T) {
	// The single-technology trade-off: more cores, less cache.
	prev := int64(1 << 62)
	for _, p := range SingleTech45Cores() {
		c := MustSingleTech45(p)
		if c.L2.SizeBytes > prev {
			t.Fatalf("L2 size grew from %d to %d at %d cores", prev, c.L2.SizeBytes, p)
		}
		prev = c.L2.SizeBytes
	}
}

func TestScaled(t *testing.T) {
	c := MustDefault(8)
	s := c.Scaled(32)
	if s.L2.SizeBytes != c.L2.SizeBytes/32 {
		t.Fatalf("scaled L2 = %d", s.L2.SizeBytes)
	}
	if s.L1.SizeBytes != c.L1.SizeBytes/32 {
		t.Fatalf("scaled L1 = %d", s.L1.SizeBytes)
	}
	if s.Scale != 32 {
		t.Fatalf("Scale = %d", s.Scale)
	}
	if s.L2.HitLatency != c.L2.HitLatency || s.Memory.LatencyCycles != c.Memory.LatencyCycles {
		t.Fatalf("latencies must not change under scaling")
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("scaled config invalid: %v", err)
	}
	// Scaling by 1 or less is the identity.
	if got := c.Scaled(1); got.L2.SizeBytes != c.L2.SizeBytes || got.Name != c.Name {
		t.Fatalf("Scaled(1) should be identity")
	}
	// Extreme scaling clamps to at least one set.
	tiny := c.Scaled(1 << 30)
	if err := tiny.Validate(); err != nil {
		t.Fatalf("extreme scaling produced invalid config: %v", err)
	}
}

func TestWithOverrides(t *testing.T) {
	c := MustDefault(16)
	h := c.WithL2HitLatency(7)
	if h.L2.HitLatency != 7 || c.L2.HitLatency != 19 {
		t.Fatalf("WithL2HitLatency mutated original or failed")
	}
	m := c.WithMemLatency(1100)
	if m.Memory.LatencyCycles != 1100 || c.Memory.LatencyCycles != 300 {
		t.Fatalf("WithMemLatency mutated original or failed")
	}
}

func TestHierarchyConfig(t *testing.T) {
	c := MustDefault(4)
	h := c.HierarchyConfig()
	if h.Cores != 4 || h.L1 != c.L1 || h.L2 != c.L2 {
		t.Fatalf("HierarchyConfig mismatch: %+v", h)
	}
}

func TestSweeps(t *testing.T) {
	if got := L2HitLatencySweep(); len(got) != 2 || got[0] != 7 || got[1] != 19 {
		t.Fatalf("L2HitLatencySweep = %v", got)
	}
	mem := MemLatencySweep()
	if len(mem) != 6 || mem[0] != 100 || mem[len(mem)-1] != 1100 {
		t.Fatalf("MemLatencySweep = %v", mem)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	c := MustDefault(1)
	c.Cores = 0
	if err := c.Validate(); err == nil {
		t.Fatalf("accepted zero cores")
	}
	c = MustDefault(1)
	c.L2.Assoc = 0
	if err := c.Validate(); err == nil {
		t.Fatalf("accepted invalid L2")
	}
	c = MustDefault(1)
	c.L1.LineBytes = 64
	if err := c.Validate(); err == nil {
		t.Fatalf("accepted L1 and L2 line sizes that differ")
	}
	c = MustDefault(1)
	c.Memory.LatencyCycles = -5
	if err := c.Validate(); err == nil {
		t.Fatalf("accepted invalid memory")
	}
}

func TestMustPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MustDefault(7) should panic")
		}
	}()
	MustDefault(7)
}

func TestWithTopology(t *testing.T) {
	base := MustDefault(8)
	if base.Topology != cache.Shared() {
		t.Fatalf("table configurations must default to the shared topology, got %v", base.Topology)
	}

	priv := base.WithTopology(cache.Private())
	if priv.Topology != cache.Private() {
		t.Errorf("WithTopology did not set the topology")
	}
	if priv.Name != "default-8core/private" {
		t.Errorf("private name = %q", priv.Name)
	}
	if priv.L2 != base.L2 || priv.Cores != base.Cores {
		t.Errorf("WithTopology changed unrelated fields")
	}
	if err := priv.Validate(); err != nil {
		t.Errorf("private config invalid: %v", err)
	}

	// Re-selecting shared keeps the canonical name.
	if got := base.WithTopology(cache.Shared()); got.Name != base.Name {
		t.Errorf("shared topology renamed the config to %q", got.Name)
	}

	// Re-applying a topology replaces the name suffix, never stacks or
	// strands it.
	if got := priv.WithTopology(cache.Shared()); got.Name != base.Name || got.Topology != cache.Shared() {
		t.Errorf("shared-after-private = %q (%v), want %q", got.Name, got.Topology, base.Name)
	}
	if got := priv.WithTopology(cache.Clustered(2)); got.Name != base.Name+"/clustered:2" {
		t.Errorf("clustered-after-private name = %q", got.Name)
	}

	// The canonical topology encoding is part of the configuration
	// fingerprint used by sweep content-address keys.
	for _, topo := range []cache.Topology{cache.Shared(), cache.Private(), cache.Clustered(4)} {
		fp := fmt.Sprintf("%+v", base.WithTopology(topo))
		if !strings.Contains(fp, topo.String()) {
			t.Errorf("fingerprint for %v does not contain %q: %s", topo, topo.String(), fp)
		}
	}

	// HierarchyConfig threads the topology through to the cache layer.
	if hc := priv.HierarchyConfig(); hc.Topology != cache.Private() {
		t.Errorf("HierarchyConfig dropped the topology: %+v", hc)
	}

	// Validate rejects topologies whose slices would be invalid.
	bad := base.WithTopology(cache.Clustered(0))
	if err := bad.Validate(); err == nil {
		t.Errorf("accepted cluster size 0")
	}
}
