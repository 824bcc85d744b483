// Package workload generates the benchmark computation DAGs studied in the
// paper as synthetic DAG + memory-reference models: Mergesort, Hash Join and
// LU (the three benchmarks analysed in detail in §5), plus Matrix Multiply,
// Quicksort and a Heat stencil from the broader benchmark suite (§5.5), and
// eight irregular graph kernels (BFS, SSSP, PageRank, triangle counting,
// connectivity, k-core, maximal independent set and maximal matching) that
// extend the study to data-dependent access patterns; Names lists every
// registered workload.
//
// Each workload builds (a) a computation DAG whose tasks carry reference
// streams modelling the data structures and access patterns of the original
// program, and (b) a task-group tree describing the natural hierarchical
// grouping of tasks (used by the working-set profiler and the automatic
// task-coarsening pass).
//
// The generators take the place of the paper's binary instrumentation and
// trace collection: the schedulers and the cache simulator only ever observe
// the DAG and the reference streams, so generating those streams directly
// from the algorithms preserves the behaviour being measured while keeping
// the repository self-contained (see DESIGN.md, "Substitutions").
package workload

import (
	"fmt"
	"sort"
	"sync"

	"cmpsched/internal/dag"
	"cmpsched/internal/taskgroup"
)

// Workload builds a benchmark instance.
type Workload interface {
	// Name returns the benchmark name, e.g. "mergesort".
	Name() string
	// Build generates the computation DAG and its task-group tree. The
	// tree may be nil for workloads without a meaningful hierarchy.
	Build() (*dag.DAG, *taskgroup.Tree, error)
}

// Default address-space bases for the synthetic data structures, spaced far
// apart so regions never alias.
const (
	baseArrayA    uint64 = 0x1_0000_0000
	baseArrayB    uint64 = 0x2_0000_0000
	baseBuild     uint64 = 0x3_0000_0000
	baseProbe     uint64 = 0x4_0000_0000
	baseHash      uint64 = 0x5_0000_0000
	baseOutput    uint64 = 0x6_0000_0000
	baseMatrixA   uint64 = 0x7_0000_0000
	baseMatrixB   uint64 = 0x8_0000_0000
	baseMatrixC   uint64 = 0x9_0000_0000
	baseGridA     uint64 = 0xA_0000_0000
	baseGridB     uint64 = 0xB_0000_0000
	baseQuicksort uint64 = 0xC_0000_0000
)

// DefaultLineBytes is the cache-line granularity at which reference streams
// are emitted; it matches Table 1's 128-byte lines.
const DefaultLineBytes int64 = 128

// Factory constructs a workload instance with its default (scaled)
// parameters.
type Factory func() Workload

// registry maps workload names to factories.  Workload files self-register
// from init functions, so the table — not a hardcoded switch — decides what
// New accepts and what Names reports.  The mutex also admits late
// registrations (the facade exports Register), e.g. from a program that
// adds a custom workload while sweeps run on other goroutines.
var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

// Register adds a named workload factory.  It panics on duplicate or empty
// names: both are programming errors in a workload file's init.
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("workload: Register requires a name and a factory")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("workload: duplicate registration of %q", name))
	}
	registry[name] = f
}

// The classic benchmark suite registers here; the graph kernels register in
// graph.go.  New workloads only need their own Register call.
func init() {
	for _, e := range []struct {
		name string
		f    Factory
	}{
		{"mergesort", func() Workload { return NewMergesort(MergesortConfig{}) }},
		{"hashjoin", func() Workload { return NewHashJoin(HashJoinConfig{}) }},
		{"lu", func() Workload { return NewLU(LUConfig{}) }},
		{"matmul", func() Workload { return NewMatMul(MatMulConfig{}) }},
		{"cholesky", func() Workload { return NewCholesky(CholeskyConfig{}) }},
		{"quicksort", func() Workload { return NewQuicksort(QuicksortConfig{}) }},
		{"heat", func() Workload { return NewHeat(HeatConfig{}) }},
	} {
		Register(e.name, e.f)
	}
}

// New constructs a registered workload by name with its default (scaled)
// parameters. See Names for the available names.
func New(name string) (Workload, error) {
	registryMu.RLock()
	f, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("workload: unknown workload %q (want one of %v)", name, Names())
	}
	return f(), nil
}

// Names lists the registered workloads in sorted order.
func Names() []string {
	registryMu.RLock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	registryMu.RUnlock()
	sort.Strings(names)
	return names
}
