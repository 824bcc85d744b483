// Package config encodes the CMP configurations evaluated in the paper:
// Table 1 (parameters common to all configurations), Table 2 (default,
// scaling-technology configurations for 1–32 cores) and Table 3 (the 45 nm
// single-technology design space for 1–26 cores).  It also provides the
// down-scaling rule used to keep simulations laptop-sized while preserving
// the paper's capacity ratios, and parameter-sweep helpers for the
// sensitivity studies (Figures 4 and 5).
package config

import (
	"fmt"
	"strings"

	"cmpsched/internal/cache"
	"cmpsched/internal/memsys"
)

// Byte-size constants.
const (
	KB int64 = 1 << 10
	MB int64 = 1 << 20
)

// DefaultScale is the factor by which cache capacities and workload inputs
// are divided in the repository's default experiment runs.  Scaling both by
// the same factor preserves the input-to-cache and working-set-to-cache
// ratios that drive the paper's results while keeping traces small enough to
// simulate in seconds.
const DefaultScale int64 = 32

// Common holds the parameters shared by every configuration (Table 1).
type Common struct {
	// L1SizeBytes is the per-core private L1 capacity (64 KB).
	L1SizeBytes int64
	// LineBytes is the cache-line size for both levels (128 B).
	LineBytes int64
	// L1Assoc is the L1 associativity (4).
	L1Assoc int
	// L1HitLatency is the L1 hit latency in cycles (1).
	L1HitLatency int64
	// MemLatency is the main-memory latency in cycles (300).
	MemLatency int64
	// MemServiceInterval is the off-chip service rate in cycles per line
	// transfer (30).
	MemServiceInterval int64
}

// CommonParams returns Table 1.
func CommonParams() Common {
	return Common{
		L1SizeBytes:        64 * KB,
		LineBytes:          128,
		L1Assoc:            4,
		L1HitLatency:       1,
		MemLatency:         300,
		MemServiceInterval: 30,
	}
}

// CMP is a complete machine configuration for the simulator.
type CMP struct {
	// Name identifies the configuration, e.g. "default-8core" or
	// "45nm-18core".
	Name string
	// Cores is the number of processing cores P.
	Cores int
	// TechnologyNM is the process technology in nanometres.
	TechnologyNM int
	// L1 is the per-core private L1 configuration.
	L1 cache.Config
	// L2 is the total on-chip L2 configuration.  Topology decides how that
	// capacity is organised (one shared cache, per-core private slices, or
	// clustered slices).
	L2 cache.Config
	// Topology partitions the L2 among the cores.  The zero value is the
	// shared topology — the paper's machine — so the configuration tables
	// behave exactly as before the topology layer existed.  Its canonical
	// string form ("shared", "private", "clustered:<k>") is part of the
	// configuration's fingerprint, so sweep content-address keys always
	// distinguish topologies.
	Topology cache.Topology
	// Memory is the off-chip memory configuration.
	Memory memsys.Config
	// Scale records the factor by which capacities were divided relative
	// to the paper (1 = full size).
	Scale int64
}

// Validate checks the configuration for consistency.
func (c CMP) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("config: %s: cores must be positive, got %d", c.Name, c.Cores)
	}
	if err := c.L1.Validate(); err != nil {
		return fmt.Errorf("config: %s: L1: %w", c.Name, err)
	}
	if err := c.L2.Validate(); err != nil {
		return fmt.Errorf("config: %s: L2: %w", c.Name, err)
	}
	if c.L1.LineBytes != c.L2.LineBytes {
		// The hierarchy links each L1 way to the one L2 slot backing it.
		return fmt.Errorf("config: %s: L1 line size %d B differs from L2 line size %d B", c.Name, c.L1.LineBytes, c.L2.LineBytes)
	}
	if err := c.Topology.Validate(c.Cores); err != nil {
		return fmt.Errorf("config: %s: topology: %w", c.Name, err)
	}
	if err := c.Topology.SliceConfig(c.L2, c.Cores).Validate(); err != nil {
		return fmt.Errorf("config: %s: L2 slice (%s): %w", c.Name, c.Topology, err)
	}
	if err := c.Memory.Validate(); err != nil {
		return fmt.Errorf("config: %s: memory: %w", c.Name, err)
	}
	return nil
}

// Scaled returns a copy of the configuration with L1 and L2 capacities
// divided by factor (minimum one set each). Latencies are unchanged: the
// paper's latency parameters are architectural, not capacity-derived, and
// keeping them fixed preserves the on-chip/off-chip gap that matters.
func (c CMP) Scaled(factor int64) CMP {
	if factor <= 1 {
		return c
	}
	out := c
	out.Name = fmt.Sprintf("%s/scale%d", c.Name, factor)
	out.Scale = c.Scale * factor
	out.L1.SizeBytes = maxInt64(c.L1.SizeBytes/factor, c.L1.LineBytes*int64(c.L1.Assoc))
	out.L2.SizeBytes = maxInt64(c.L2.SizeBytes/factor, c.L2.LineBytes*int64(c.L2.Assoc))
	return out
}

// WithTopology returns a copy with the cache topology replaced.  Non-shared
// topologies are recorded in the name (any previous topology suffix is
// replaced, never stacked); selecting the shared topology restores the
// canonical table name.
func (c CMP) WithTopology(t cache.Topology) CMP {
	out := c
	out.Name = strings.TrimSuffix(c.Name, "/"+c.Topology.String())
	out.Topology = t
	if t.Kind != cache.TopologyShared {
		out.Name = fmt.Sprintf("%s/%s", out.Name, t)
	}
	return out
}

// WithL2HitLatency returns a copy with the L2 hit latency replaced; used by
// the Figure 4 sensitivity study (7 vs 19 cycles).
func (c CMP) WithL2HitLatency(cycles int64) CMP {
	out := c
	out.Name = fmt.Sprintf("%s/l2hit%d", c.Name, cycles)
	out.L2.HitLatency = cycles
	return out
}

// WithMemLatency returns a copy with the main-memory latency replaced; used
// by the Figure 5 sensitivity study (100–1100 cycles).
func (c CMP) WithMemLatency(cycles int64) CMP {
	out := c
	out.Name = fmt.Sprintf("%s/mem%d", c.Name, cycles)
	out.Memory.LatencyCycles = cycles
	return out
}

// HierarchyConfig converts the CMP configuration into the cache-hierarchy
// configuration consumed by the simulator.
func (c CMP) HierarchyConfig() cache.HierarchyConfig {
	return cache.HierarchyConfig{
		Cores:    c.Cores,
		L1:       c.L1,
		L2:       c.L2,
		Topology: c.Topology,
	}
}

func newCMP(name string, cores, techNM int, l2Bytes int64, l2Assoc int, l2Hit int64) CMP {
	common := CommonParams()
	return CMP{
		Name:         name,
		Cores:        cores,
		TechnologyNM: techNM,
		Scale:        1,
		L1: cache.Config{
			SizeBytes:  common.L1SizeBytes,
			LineBytes:  common.LineBytes,
			Assoc:      common.L1Assoc,
			HitLatency: common.L1HitLatency,
		},
		L2: cache.Config{
			SizeBytes:  l2Bytes,
			LineBytes:  common.LineBytes,
			Assoc:      l2Assoc,
			HitLatency: l2Hit,
		},
		Memory: memsys.Config{
			LatencyCycles:         common.MemLatency,
			ServiceIntervalCycles: common.MemServiceInterval,
		},
	}
}

// defaultTable is Table 2: the default (scaling-technology) configurations.
var defaultTable = []CMP{
	newCMP("default-1core", 1, 90, 10*MB, 20, 15),
	newCMP("default-2core", 2, 90, 8*MB, 16, 13),
	newCMP("default-4core", 4, 90, 4*MB, 16, 11),
	newCMP("default-8core", 8, 65, 8*MB, 16, 13),
	newCMP("default-16core", 16, 45, 20*MB, 20, 19),
	newCMP("default-32core", 32, 32, 40*MB, 20, 23),
}

// DefaultCores lists the core counts available in Table 2.
func DefaultCores() []int { return []int{1, 2, 4, 8, 16, 32} }

// Default returns the Table 2 configuration with the given core count.
func Default(cores int) (CMP, error) {
	for _, c := range defaultTable {
		if c.Cores == cores {
			return c, nil
		}
	}
	return CMP{}, fmt.Errorf("config: no default configuration with %d cores (have %v)", cores, DefaultCores())
}

// MustDefault is Default but panics on error.
func MustDefault(cores int) CMP {
	c, err := Default(cores)
	if err != nil {
		panic(err)
	}
	return c
}

// Defaults returns all Table 2 configurations in core order.
func Defaults() []CMP {
	out := make([]CMP, len(defaultTable))
	copy(out, defaultTable)
	return out
}

// singleTech45Table is Table 3: the 45 nm single-technology design space.
var singleTech45Table = []CMP{
	newCMP("45nm-1core", 1, 45, 48*MB, 24, 25),
	newCMP("45nm-2core", 2, 45, 44*MB, 22, 25),
	newCMP("45nm-4core", 4, 45, 40*MB, 20, 23),
	newCMP("45nm-6core", 6, 45, 36*MB, 18, 23),
	newCMP("45nm-8core", 8, 45, 32*MB, 16, 21),
	newCMP("45nm-10core", 10, 45, 32*MB, 16, 21),
	newCMP("45nm-12core", 12, 45, 28*MB, 28, 21),
	newCMP("45nm-14core", 14, 45, 24*MB, 24, 19),
	newCMP("45nm-16core", 16, 45, 20*MB, 20, 19),
	newCMP("45nm-18core", 18, 45, 16*MB, 16, 17),
	newCMP("45nm-20core", 20, 45, 12*MB, 24, 15),
	newCMP("45nm-22core", 22, 45, 9*MB, 18, 15),
	newCMP("45nm-24core", 24, 45, 5*MB, 20, 13),
	newCMP("45nm-26core", 26, 45, 1*MB, 16, 7),
}

// SingleTech45Cores lists the core counts available in Table 3.
func SingleTech45Cores() []int {
	return []int{1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26}
}

// SingleTech45 returns the Table 3 configuration with the given core count.
func SingleTech45(cores int) (CMP, error) {
	for _, c := range singleTech45Table {
		if c.Cores == cores {
			return c, nil
		}
	}
	return CMP{}, fmt.Errorf("config: no 45nm configuration with %d cores (have %v)", cores, SingleTech45Cores())
}

// MustSingleTech45 is SingleTech45 but panics on error.
func MustSingleTech45(cores int) CMP {
	c, err := SingleTech45(cores)
	if err != nil {
		panic(err)
	}
	return c
}

// SingleTech45All returns all Table 3 configurations in core order.
func SingleTech45All() []CMP {
	out := make([]CMP, len(singleTech45Table))
	copy(out, singleTech45Table)
	return out
}

// L2HitLatencySweep returns the L2 hit latencies evaluated in Figure 4.
func L2HitLatencySweep() []int64 { return []int64{7, 19} }

// MemLatencySweep returns the main-memory latencies evaluated in Figure 5.
func MemLatencySweep() []int64 { return []int64{100, 300, 500, 700, 900, 1100} }

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
