package experiments

import (
	"cmpsched/internal/cache"
	"cmpsched/internal/graph"
	"cmpsched/internal/sweep"
)

// IrregularResult holds every row of the irregularity study: each graph
// kernel on each generator family (a row's Input), core count and L2
// topology under PDF and WS.
type IrregularResult struct{ Table }

// IrregularFamilies lists the generator families the study sweeps, ordered
// from regular to most skewed: the 2D lattice is the regular baseline whose
// access pattern a static schedule could predict, the uniform random graph
// scatters neighbours evenly, and RMAT adds a power-law degree skew.
func IrregularFamilies() []string {
	return []string{graph.FamilyGrid, graph.FamilyUniform, graph.FamilyRMAT}
}

// IrregularTopologies lists the cache organisations the study contrasts:
// the paper's shared L2 and the per-core private slices that remove the
// possibility of constructive sharing.
func IrregularTopologies() []cache.Topology {
	return []cache.Topology{cache.Shared(), cache.Private()}
}

// IrregularComparison runs the PDF-vs-WS irregularity study: the paper's
// central question — does fine-grained PDF scheduling keep working sets
// shared? — asked on workloads whose access patterns are data-dependent.
// Every graph kernel runs on every generator family, under both schedulers,
// on a shared and on a private L2 of equal total capacity.
//
// The regular benchmarks' result (PDF's L2-miss advantage on a shared L2,
// collapsing on private slices) is probed here per kernel and family: the
// level-synchronous kernels (BFS, SSSP, PageRank) co-schedule tasks that
// share the frontier, the CSR arrays and the hot vertex-vector lines, while
// triangle counting is one wide fork-join phase with list-sized gathers.
func IrregularComparison(opts Options) (*IrregularResult, error) {
	t, err := opts.sweepTable("irregular comparison", sweep.Spec{
		Workloads:  GraphKernels(),
		Topologies: topologyNames(IrregularTopologies()),
		Cores:      opts.coresOrDefault([]int{8}),
	}, IrregularFamilies()...)
	if err != nil {
		return nil, err
	}
	return &IrregularResult{t}, nil
}

// String renders one panel per kernel: families and topologies down, PDF
// and WS side by side.
func (r *IrregularResult) String() string {
	return r.pdfVersusWS("Irregularity study", GraphKernels(), "family")
}
