package cmpsched

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"cmpsched/internal/experiments"
	"cmpsched/internal/graph"
	"cmpsched/internal/profile"
	"cmpsched/internal/sched"
	"cmpsched/internal/sweep"
	"cmpsched/internal/workload"

	"cmpsched/internal/cmpsim"
)

// The benchmarks below regenerate each of the paper's tables and figures at
// the quick (test) scale; `cmd/experiments` runs the same harness at full
// scale.  Custom metrics report the headline shape numbers next to the
// timing, e.g. the PDF-over-WS relative speedup for Figure 2.

func quickOpts(cores ...int) experiments.Options {
	return experiments.Options{Quick: true, Cores: cores}
}

func BenchmarkFigure1MergesortMissPicture(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure1(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.WSTotal)/float64(res.PDFTotal), "ws/pdf-misses")
	}
}

func BenchmarkFigure2DefaultConfigs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure2(quickOpts(1, 8, 32))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Speedup(experiments.Point{Workload: "hashjoin", Cores: 32}, "pdf", "ws"), "hashjoin-pdf/ws")
		b.ReportMetric(res.Speedup(experiments.Point{Workload: "mergesort", Cores: 32}, "pdf", "ws"), "mergesort-pdf/ws")
	}
}

func BenchmarkFigure3SingleTechnology45nm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3(quickOpts(2, 8, 18, 26))
		if err != nil {
			b.Fatal(err)
		}
		best, _ := res.BestCores("hashjoin", "pdf")
		b.ReportMetric(float64(best), "hashjoin-best-cores")
	}
}

func BenchmarkFigure4L2HitTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure4(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Speedup(experiments.Point{Workload: "hashjoin", Cores: 16, Param: 19}, "pdf", "ws"), "hashjoin-pdf/ws@19cyc")
	}
}

func BenchmarkFigure5MemoryLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Speedup(experiments.Point{Workload: "hashjoin", Cores: 16, Param: 1100}, "pdf", "ws"), "hashjoin-pdf/ws@1100cyc")
	}
}

func BenchmarkFigure6TaskGranularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure6(quickOpts(16))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MissSpread(16, "pdf"), "pdf-miss-spread")
		b.ReportMetric(res.MissSpread(16, "ws"), "ws-miss-spread")
	}
}

func BenchmarkFigure8AutomaticCoarsening(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure8(quickOpts(16, 8))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.WorstNormalized(experiments.SchemeActual), "actual-normalized-worst")
	}
}

func BenchmarkGranularityCoarseVsFine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Granularity(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FineSpeedup("mergesort", "pdf"), "mergesort-fine/coarse")
	}
}

// Sweep-engine benchmarks: the same quick multi-figure run executed
// serially (workers=1), in parallel (one worker per host CPU) and against a
// warm result cache.  On a multi-core host the parallel run's ns/op
// approaches serial/workers; the cached run measures pure cache overhead —
// together they track the speedup the sweep engine buys in the perf
// trajectory.

func runQuickFigureSet(b *testing.B, opts experiments.Options) {
	b.Helper()
	if _, err := experiments.Figure3(opts); err != nil {
		b.Fatal(err)
	}
	if _, err := experiments.Figure4(opts); err != nil {
		b.Fatal(err)
	}
}

func sweepBenchOpts(workers int, cache sweep.Cache) experiments.Options {
	return experiments.Options{Quick: true, Cores: []int{2, 8, 18, 26}, Workers: workers, Cache: cache}
}

func BenchmarkSweepQuickFiguresSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runQuickFigureSet(b, sweepBenchOpts(1, nil))
	}
}

func BenchmarkSweepQuickFiguresParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runQuickFigureSet(b, sweepBenchOpts(runtime.NumCPU(), nil))
	}
	b.ReportMetric(float64(runtime.NumCPU()), "workers")
}

func BenchmarkSweepQuickFiguresCached(b *testing.B) {
	cache := sweep.NewMemoryCache()
	opts := sweepBenchOpts(runtime.NumCPU(), cache)
	runQuickFigureSet(b, opts) // warm the cache
	warmHits, warmMisses := cache.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runQuickFigureSet(b, opts)
	}
	hits, misses := cache.Stats()
	hits, misses = hits-warmHits, misses-warmMisses
	b.ReportMetric(float64(hits)/float64(hits+misses), "hit-ratio")
}

// Profiler benchmarks: the §6.1 timing comparison. The two benchmarks run
// the identical annotation work so their ns/op can be compared directly.
// Like BenchmarkBuildBFSDAG they allocate megabytes per op and run through
// exactAllocs.

// exactAllocs runs op b.N times so that allocs/op counts op's own
// allocations exactly, which the alloc gate requires: on one P, with the
// garbage collector off while timed and a full collection, untimed, before
// each run.  Otherwise each collection cycle that happens to run during an
// op, and each move of the goroutine to another P, adds allocations
// (sync.Pool misses, for one), so the count drifts by a few per op from run
// to run and with the runner's CPU count.  op itself starts no goroutines.
func exactAllocs(b *testing.B, op func() error) {
	b.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

func profilerFixture(b *testing.B) (*DAG, *GroupTree, profile.Config) {
	b.Helper()
	ms := workload.NewMergesort(workload.MergesortConfig{Elements: 64 << 10, TaskWorkingSetBytes: 4 << 10})
	d, tree, err := ms.Build()
	if err != nil {
		b.Fatal(err)
	}
	cfg := profile.Config{LineBytes: 128, CacheSizes: []int64{8 << 10, 32 << 10, 128 << 10, 512 << 10}}
	return d, tree, cfg
}

func BenchmarkProfilerLruTree(b *testing.B) {
	d, tree, cfg := profilerFixture(b)
	b.ResetTimer()
	exactAllocs(b, func() error {
		pr, err := profile.NewLruTree(cfg).ProfileDAG(d)
		if err != nil {
			return err
		}
		_ = pr.AnnotateTree(tree)
		return nil
	})
}

func BenchmarkProfilerSetAssoc(b *testing.B) {
	d, tree, cfg := profilerFixture(b)
	b.ResetTimer()
	exactAllocs(b, func() error {
		_, err := profile.NewSetAssoc(cfg, 16).AnnotateTree(d, tree)
		return err
	})
}

// Simulator micro-benchmarks: one full Mergesort simulation per iteration,
// useful for tracking the simulator's own throughput.

func simFixture(b *testing.B) *DAG {
	b.Helper()
	d, _, err := workload.NewMergesort(workload.MergesortConfig{Elements: 128 << 10, TaskWorkingSetBytes: 8 << 10}).Build()
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func BenchmarkSimulateMergesortPDF(b *testing.B) {
	d := simFixture(b)
	cfg := DefaultConfig(8).Scaled(DefaultScale * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cmpsim.Run(d, sched.NewPDF(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateMergesortWS(b *testing.B) {
	d := simFixture(b)
	cfg := DefaultConfig(8).Scaled(DefaultScale * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cmpsim.Run(d, sched.NewWS(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Topology benchmarks: the same Mergesort simulation on each cache
// topology.  The access path is the simulator's hot loop, so these track
// both the cost of the topology indirection (shared must stay at parity
// with the pre-topology simulator) and the relative simulation cost of
// sliced machines.  The reported metric is the aggregate L2 MPKI, tying the
// perf trajectory to the machine-model shape.

func benchmarkSimulateTopology(b *testing.B, topo CacheTopology) {
	b.Helper()
	d := simFixture(b)
	cfg := DefaultConfig(8).Scaled(DefaultScale * 8).WithTopology(topo)
	var mpki float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cmpsim.Run(d, sched.NewPDF(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		mpki = res.L2MissesPerKiloInstr()
	}
	b.ReportMetric(mpki, "L2-MPKI")
}

func BenchmarkSimulateMergesortSharedL2(b *testing.B) {
	benchmarkSimulateTopology(b, SharedTopology())
}

func BenchmarkSimulateMergesortClusteredL2(b *testing.B) {
	benchmarkSimulateTopology(b, ClusteredTopology(4))
}

func BenchmarkSimulateMergesortPrivateL2(b *testing.B) {
	benchmarkSimulateTopology(b, PrivateTopology())
}

// Graph-kernel benchmarks: the simulator on irregular, data-dependent
// inputs.  DAG construction (host graph walk + trace emission) is kept out
// of the timed loop, like the regular fixtures; the reported metric is the
// aggregate L2 MPKI so the perf trajectory stays tied to the irregular
// machine-model shape.

func graphFixture(b *testing.B, build func() (*DAG, *GroupTree, error)) *DAG {
	b.Helper()
	d, _, err := build()
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func benchmarkSimulateGraph(b *testing.B, w Workload, s Scheduler) {
	b.Helper()
	d := graphFixture(b, w.Build)
	cfg := DefaultConfig(8).Scaled(DefaultScale * 8)
	var mpki float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cmpsim.Run(d, s, cfg)
		if err != nil {
			b.Fatal(err)
		}
		mpki = res.L2MissesPerKiloInstr()
	}
	b.ReportMetric(mpki, "L2-MPKI")
}

// benchShape is a mid-sized input: large enough that frontiers span many
// tasks, small enough for -benchtime 1x CI runs.
func benchShape(family string) GraphShape {
	return GraphShape{Family: family, Vertices: 1 << 13}
}

func BenchmarkSimulateBFSUniformPDF(b *testing.B) {
	benchmarkSimulateGraph(b, NewBFS(BFSConfig{Shape: benchShape("uniform")}), sched.NewPDF())
}

func BenchmarkSimulateBFSUniformWS(b *testing.B) {
	benchmarkSimulateGraph(b, NewBFS(BFSConfig{Shape: benchShape("uniform")}), sched.NewWS())
}

func BenchmarkSimulateBFSRMATPDF(b *testing.B) {
	benchmarkSimulateGraph(b, NewBFS(BFSConfig{Shape: benchShape("rmat")}), sched.NewPDF())
}

func BenchmarkSimulateSSSPUniformPDF(b *testing.B) {
	benchmarkSimulateGraph(b, NewSSSP(SSSPConfig{Shape: benchShape("uniform")}), sched.NewPDF())
}

func BenchmarkSimulatePageRankRMATPDF(b *testing.B) {
	benchmarkSimulateGraph(b, NewPageRank(PageRankConfig{Shape: benchShape("rmat"), Iterations: 4}), sched.NewPDF())
}

func BenchmarkSimulateTrianglesUniformPDF(b *testing.B) {
	benchmarkSimulateGraph(b, NewTriangles(TrianglesConfig{Shape: benchShape("uniform")}), sched.NewPDF())
}

func BenchmarkSimulateConnectivityRMATPDF(b *testing.B) {
	benchmarkSimulateGraph(b, NewConnectivity(ConnectivityConfig{Shape: benchShape("rmat")}), sched.NewPDF())
}

func BenchmarkSimulateKCoreUniformPDF(b *testing.B) {
	benchmarkSimulateGraph(b, NewKCore(KCoreConfig{Shape: benchShape("uniform")}), sched.NewPDF())
}

func BenchmarkSimulateMISRMATWS(b *testing.B) {
	benchmarkSimulateGraph(b, NewMIS(MISConfig{Shape: benchShape("rmat")}), sched.NewWS())
}

func BenchmarkSimulateMatchingUniformPDF(b *testing.B) {
	benchmarkSimulateGraph(b, NewMatching(MatchingConfig{Shape: benchShape("uniform")}), sched.NewPDF())
}

// BenchmarkSimulateEndToEndConnectivity times the simulation of the
// connectivity DAG on an RMAT graph (its timed allocations stay
// deterministic, which the allocs/op gate requires) and reports the
// host-side cost of building that DAG as the build-ms metric next to it in
// BENCH_simulator.json.
func BenchmarkSimulateEndToEndConnectivity(b *testing.B) {
	w := NewConnectivity(ConnectivityConfig{Shape: benchShape("rmat")})
	buildStart := time.Now()
	d := graphFixture(b, w.Build)
	buildMS := float64(time.Since(buildStart).Microseconds()) / 1000
	cfg := DefaultConfig(8).Scaled(DefaultScale * 8)
	var mpki float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cmpsim.Run(d, sched.NewPDF(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		mpki = res.L2MissesPerKiloInstr()
	}
	b.ReportMetric(mpki, "L2-MPKI")
	b.ReportMetric(buildMS, "build-ms")
}

func BenchmarkBuildBFSDAG(b *testing.B) {
	exactAllocs(b, func() error {
		_, _, err := NewBFS(BFSConfig{Shape: benchShape("uniform")}).Build()
		return err
	})
}

// BenchmarkBuildPageRankDAG builds the full PageRank DAG on an RMAT 2^12
// graph: the kernel with the heaviest per-edge trace traffic and real
// intra-build stream sharing (parity addressing makes iterations i and i+2
// byte-identical, and iteration i+2's tasks take iteration i's recordings,
// so its allocations pin that sharing).
func BenchmarkBuildPageRankDAG(b *testing.B) {
	g := buildFixture(b)
	exactAllocs(b, func() error {
		_, _, err := graph.PageRank(g, 4, graph.Costs{})
		return err
	})
}

// buildFixture is the RMAT 2^12 graph (seed 7) the kernel build benchmarks
// run on; the kernels below cut it at buildCosts' finer grain, so every
// round spans several chunk tasks.
func buildFixture(b *testing.B) *graph.CSR {
	b.Helper()
	g, err := graph.New(graph.Config{Family: graph.FamilyRMAT, Vertices: 1 << 12, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	return g
}

var buildCosts = graph.Costs{EdgesPerTask: 512}

func BenchmarkBuildSSSPDAG(b *testing.B) {
	g := buildFixture(b)
	exactAllocs(b, func() error {
		// Source 0, weight seed 7, weights up to 16, run to convergence.
		_, _, err := graph.BellmanFord(g, 0, 7, 16, 0, buildCosts)
		return err
	})
}

func BenchmarkBuildTrianglesDAG(b *testing.B) {
	g := buildFixture(b)
	exactAllocs(b, func() error {
		_, _, _, err := graph.Triangles(g, buildCosts)
		return err
	})
}

func BenchmarkBuildConnectivityDAG(b *testing.B) {
	g := buildFixture(b)
	exactAllocs(b, func() error {
		_, _, _, err := graph.Connectivity(g, 7, buildCosts)
		return err
	})
}

func BenchmarkBuildKCoreDAG(b *testing.B) {
	g := buildFixture(b)
	exactAllocs(b, func() error {
		_, _, _, err := graph.KCore(g, buildCosts)
		return err
	})
}

func BenchmarkBuildMISDAG(b *testing.B) {
	g := buildFixture(b)
	exactAllocs(b, func() error {
		_, _, _, err := graph.MIS(g, 7, buildCosts)
		return err
	})
}

func BenchmarkBuildMatchingDAG(b *testing.B) {
	g := buildFixture(b)
	exactAllocs(b, func() error {
		_, _, _, err := graph.MaximalMatching(g, 7, buildCosts)
		return err
	})
}

func BenchmarkIrregularComparisonQuick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.IrregularComparison(quickOpts(8))
		if err != nil {
			b.Fatal(err)
		}
		// Headline shape number: how much MPKI the private organisation
		// costs PDF on the BFS/uniform point.
		pdfShared := res.Get(experiments.Point{Workload: "bfs", Input: "uniform", Cores: 8, Topology: "shared"}, "pdf")
		pdfPrivate := res.Get(experiments.Point{Workload: "bfs", Input: "uniform", Cores: 8, Topology: "private"}, "pdf")
		if pdfShared != nil && pdfPrivate != nil && pdfShared.L2MissesPerKiloInstr() > 0 {
			b.ReportMetric(pdfPrivate.L2MissesPerKiloInstr()/pdfShared.L2MissesPerKiloInstr(), "private/shared-MPKI")
		}
	}
}
