package experiments

import (
	"reflect"
	"strings"
	"testing"

	"cmpsched/internal/config"
	"cmpsched/internal/sweep"
)

// quick returns fast options for unit tests.
func quick(cores ...int) Options {
	return Options{Quick: true, Cores: cores}
}

func TestOptionsScaling(t *testing.T) {
	o := Options{}
	if o.effectiveScale() != 32 {
		t.Fatalf("default options wrong: scale=%d", o.effectiveScale())
	}
	q := Options{Quick: true}
	if q.effectiveScale() != 32*16 {
		t.Fatalf("quick options wrong")
	}
	s := Options{Scale: 8}
	if s.effectiveScale() != 8 {
		t.Fatalf("explicit scale ignored")
	}
	if got := (Options{Cores: []int{3}}).coresOrDefault([]int{1, 2}); len(got) != 1 || got[0] != 3 {
		t.Fatalf("coresOrDefault wrong")
	}
	// Cores filters a study's configuration table like sweep.Spec.Cores:
	// a count the table lacks is skipped, a filter matching nothing fails.
	if cfgs, err := (Options{Cores: []int{3, 16}}).scaledDefaults(nil); err != nil || len(cfgs) != 1 || cfgs[0].Cores != 16 {
		t.Fatalf("scaledDefaults(cores 3, 16) = %v, %v; want the 16-core configuration alone", cfgs, err)
	}
	if _, err := Figure6(Options{Quick: true, Cores: []int{3}}); err == nil {
		t.Errorf("Figure6 accepted cores [3], which no default configuration has")
	}
	if _, err := TopologyComparison(Options{Quick: true, Cores: []int{3}}); err == nil {
		t.Errorf("TopologyComparison accepted cores [3], which no default configuration has")
	}
	for _, s := range Studies() {
		if _, err := s.Run(Options{Quick: true, Scale: -1}); err == nil {
			t.Errorf("%s accepted a negative scale", s.Name)
		}
	}
}

// TestInputsFollowScale pins the scale-factor convention: the harness
// divides its inputs by the same effective scale as the cache capacities, so
// an explicit Scale moves the inputs with the caches.
func TestInputsFollowScale(t *testing.T) {
	for _, tc := range []struct {
		opts         Options
		scale        int64
		elements, lu int64
		bfs          int64
	}{
		{Options{Scale: 1}, 1, 1 << 25, 2880, 1 << 20},
		{Options{Scale: 8}, 8, 1 << 22, 1024, 1 << 17},
		{Options{}, 32, 1 << 20, 512, 1 << 15},
		{Options{Scale: 8, Quick: true}, 128, 1 << 18, 256, 1 << 13},
		{Options{Quick: true}, 512, 1 << 16, 128, 1 << 11},
	} {
		if got := tc.opts.effectiveScale(); got != tc.scale {
			t.Errorf("%+v: scale %d, want %d", tc.opts, got, tc.scale)
			continue
		}
		if got := tc.opts.mergesortConfig().Elements; got != tc.elements {
			t.Errorf("scale %d: mergesort elements %d, want %d", tc.scale, got, tc.elements)
		}
		if got := tc.opts.luConfig().N; got != tc.lu {
			t.Errorf("scale %d: LU N %d, want %d", tc.scale, got, tc.lu)
		}
		if got := tc.opts.graphShape("bfs", "").Vertices; got != tc.bfs {
			t.Errorf("scale %d: BFS vertices %d, want %d", tc.scale, got, tc.bfs)
		}
		if got, want := tc.opts.hashJoinConfig(config.CMP{}).PartitionBytes, int64(1<<30)/tc.scale; got != want {
			t.Errorf("scale %d: hash join partition %d bytes, want %d", tc.scale, got, want)
		}
		if got, want := tc.opts.mergesortConfig().TaskWorkingSetBytes, max(2<<10, (512<<10)/tc.scale); got != want {
			t.Errorf("scale %d: mergesort task working set %d bytes, want %d", tc.scale, got, want)
		}
	}
}

func TestFiguresDeterministicAcrossWorkers(t *testing.T) {
	serial := quick(2, 8, 18)
	serial.Workers = 1
	parallel := quick(2, 8, 18)
	parallel.Workers = 8

	s3, err := Figure3(serial)
	if err != nil {
		t.Fatalf("Figure3 serial: %v", err)
	}
	p3, err := Figure3(parallel)
	if err != nil {
		t.Fatalf("Figure3 parallel: %v", err)
	}
	if !reflect.DeepEqual(s3, p3) {
		t.Errorf("Figure3 differs between 1 and 8 workers")
	}

	s1, err := Figure1(serial)
	if err != nil {
		t.Fatalf("Figure1 serial: %v", err)
	}
	p1, err := Figure1(parallel)
	if err != nil {
		t.Fatalf("Figure1 parallel: %v", err)
	}
	if !reflect.DeepEqual(s1, p1) {
		t.Errorf("Figure1 differs between 1 and 8 workers")
	}
}

func TestFigureCacheReuse(t *testing.T) {
	cache := sweep.NewMemoryCache()
	opts := quick(2, 8)
	opts.Cache = cache

	first, err := Figure3(opts)
	if err != nil {
		t.Fatalf("Figure3: %v", err)
	}
	hits, misses := cache.Stats()
	if hits != 0 || misses == 0 {
		t.Fatalf("first run: hits=%d misses=%d, want cold cache", hits, misses)
	}
	second, err := Figure3(opts)
	if err != nil {
		t.Fatalf("Figure3 (cached): %v", err)
	}
	hits, _ = cache.Stats()
	if hits != misses {
		t.Errorf("second run: hits=%d, want every lookup (%d) served", hits, misses)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("cached figure differs from computed figure")
	}
	// A different figure sharing the cache must not collide: Figure4 uses
	// the same workloads on different configurations.
	if _, err := Figure4(opts); err != nil {
		t.Fatalf("Figure4 over shared cache: %v", err)
	}
}

func TestFigure2ShapesHold(t *testing.T) {
	res, err := Figure2(quick(1, 4, 16))
	if err != nil {
		t.Fatalf("Figure2: %v", err)
	}
	// LU runs to 16 cores, the others too: 3 workloads x 3 core counts x
	// 3 schedulers (the sequential baseline, PDF and WS).
	if len(res.Rows) != 27 {
		t.Fatalf("rows = %d, want 27", len(res.Rows))
	}
	at := func(wl string, cores int) Point { return Point{Workload: wl, Cores: cores} }
	for _, wl := range []string{"hashjoin", "mergesort"} {
		// PDF never loses to WS at 16 cores and reduces misses.
		if rel := res.Speedup(at(wl, 16), "pdf", "ws"); rel < 1.0 {
			t.Errorf("%s: PDF/WS relative speedup at 16 cores = %.3f, want >= 1.0", wl, rel)
		}
		if red := res.MissReduction(at(wl, 16), "pdf", "ws"); red <= 0 {
			t.Errorf("%s: PDF should reduce L2 misses at 16 cores, got %.1f%%", wl, red)
		}
		// Speedups grow with core count.
		if res.Speedup(at(wl, 16), "pdf", sweep.Sequential) <= res.Speedup(at(wl, 1), "pdf", sweep.Sequential) {
			t.Errorf("%s: speedup does not grow with cores", wl)
		}
	}
	// LU: schedulers are within a few percent of each other (paper: the
	// reduced misses scarcely affect performance).
	if rel := res.Speedup(at("lu", 16), "pdf", "ws"); rel < 0.9 || rel > 1.15 {
		t.Errorf("lu: PDF and WS should perform alike, relative speedup %.3f", rel)
	}
	// LU uses far less off-chip bandwidth than Hash Join (§5.1).
	luUtil := res.Get(at("lu", 16), "pdf").MemUtilization
	hjUtil := res.Get(at("hashjoin", 16), "pdf").MemUtilization
	if luUtil >= hjUtil {
		t.Errorf("lu bandwidth utilisation (%.2f) should be below hashjoin's (%.2f)", luUtil, hjUtil)
	}
	if res.Get(at("lu", 32), "pdf") != nil {
		t.Errorf("LU should not be reported above 16 cores")
	}
	if !strings.Contains(res.String(), "mergesort") {
		t.Errorf("String output incomplete")
	}
	if res.Get(at("nope", 1), "pdf") != nil || res.Speedup(at("nope", 1), "pdf", "ws") != 0 {
		t.Errorf("missing rows should be nil/0")
	}
}

func TestFigure3ShapesHold(t *testing.T) {
	res, err := Figure3(quick(2, 8, 18, 26))
	if err != nil {
		t.Fatalf("Figure3: %v", err)
	}
	if len(res.Rows) != 2*4*2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	at := func(wl string, cores int) Point { return Point{Workload: wl, Cores: cores} }
	for _, wl := range Figure3Workloads() {
		// Adding cores beyond 2 improves performance initially.
		if res.Cycles(at(wl, 8), "pdf") >= res.Cycles(at(wl, 2), "pdf") {
			t.Errorf("%s: 8 cores not faster than 2 cores under PDF", wl)
		}
		// PDF at least matches WS at the largest core counts (smallest caches).
		if res.Cycles(at(wl, 26), "pdf") > res.Cycles(at(wl, 26), "ws") {
			t.Errorf("%s: PDF slower than WS at 26 cores", wl)
		}
		if cores, cycles := res.BestCores(wl, "pdf"); cores == 0 || cycles == 0 {
			t.Errorf("%s: BestCores empty", wl)
		}
		if len(res.DesignFreedomCores(wl)) == 0 {
			t.Errorf("%s: PDF should match best-WS at some design points", wl)
		}
	}
	if res.Cycles(at("mergesort", 99), "pdf") != 0 {
		t.Errorf("missing point should be 0")
	}
	if !strings.Contains(res.String(), "45nm") {
		t.Errorf("String output incomplete")
	}
}

func TestFigure4And5(t *testing.T) {
	f4, err := Figure4(quick())
	if err != nil {
		t.Fatalf("Figure4: %v", err)
	}
	if len(f4.Rows) != 2*2*2 {
		t.Fatalf("figure4 rows = %d", len(f4.Rows))
	}
	at := func(wl string, param int64) Point { return Point{Workload: wl, Cores: 16, Param: param} }
	for _, wl := range []string{"hashjoin", "mergesort"} {
		for _, p := range []int64{7, 19} {
			if f4.Speedup(at(wl, p), "pdf", "ws") < 0.97 {
				t.Errorf("figure4 %s at L2 hit %d: PDF slower than WS (%.3f)", wl, p, f4.Speedup(at(wl, p), "pdf", "ws"))
			}
		}
	}
	if !strings.Contains(f4.String(), "figure4") {
		t.Errorf("figure4 String incomplete")
	}

	f5, err := Figure5(quick())
	if err != nil {
		t.Fatalf("Figure5: %v", err)
	}
	if len(f5.Rows) != 2*6*2 {
		t.Fatalf("figure5 rows = %d", len(f5.Rows))
	}
	for _, wl := range []string{"hashjoin", "mergesort"} {
		// Execution time grows with memory latency under both schedulers.
		if f5.Cycles(at(wl, 1100), "pdf") <= f5.Cycles(at(wl, 100), "pdf") {
			t.Errorf("figure5 %s: higher memory latency should cost cycles", wl)
		}
		if f5.Speedup(at(wl, 1100), "pdf", "ws") < 0.97 {
			t.Errorf("figure5 %s: PDF should not lose at high latency", wl)
		}
	}
}

func TestFigure6ShapesHold(t *testing.T) {
	res, err := Figure6(quick(16))
	if err != nil {
		t.Fatalf("Figure6: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Fatalf("no rows")
	}
	sizes := res.Sizes(16)
	if len(sizes) < 2 {
		t.Fatalf("too few sizes: %v", sizes)
	}
	largest, smallest := sizes[0], sizes[len(sizes)-1]
	pdfLarge := res.Get(Point{Workload: "mergesort", Cores: 16, Param: largest}, "pdf")
	pdfSmall := res.Get(Point{Workload: "mergesort", Cores: 16, Param: smallest}, "pdf")
	if pdfLarge == nil || pdfSmall == nil {
		t.Fatalf("missing rows")
	}
	// PDF's cache performance improves considerably with smaller tasks.
	if pdfSmall.L2MissesPerKiloInstr() >= pdfLarge.L2MissesPerKiloInstr() {
		t.Errorf("PDF misses should fall with smaller tasks: %.3f -> %.3f",
			pdfLarge.L2MissesPerKiloInstr(), pdfSmall.L2MissesPerKiloInstr())
	}
	// WS is comparatively flat: PDF's spread across task sizes exceeds WS's.
	if res.MissSpread(16, "pdf") <= res.MissSpread(16, "ws") {
		t.Errorf("PDF miss spread (%.2f) should exceed WS's (%.2f)",
			res.MissSpread(16, "pdf"), res.MissSpread(16, "ws"))
	}
	if res.BestRelativeSpeedup(16) < 1.0 {
		t.Errorf("best-vs-best PDF/WS speedup %.3f < 1", res.BestRelativeSpeedup(16))
	}
	if !strings.Contains(res.String(), "task granularity") {
		t.Errorf("String output incomplete")
	}
}

func TestFigure1ShapesHold(t *testing.T) {
	res, err := Figure1(quick())
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	if res.PDFTotal >= res.WSTotal {
		t.Errorf("PDF total misses (%d) should be below WS's (%d) on a cache-sized sort", res.PDFTotal, res.WSTotal)
	}
	if res.TopLevelsReductionPercent(logP(res.Cores)) <= 0 {
		t.Errorf("PDF should eliminate misses in the top log P merge levels")
	}
	if len(res.Rows) == 0 || !strings.Contains(res.String(), "merge level") {
		t.Errorf("result incomplete")
	}
	if logP(8) != 3 || logP(1) != 0 {
		t.Errorf("logP wrong")
	}
}

func TestGranularityShapesHold(t *testing.T) {
	res, err := Granularity(quick())
	if err != nil {
		t.Fatalf("Granularity: %v", err)
	}
	// 2 workloads x coarse and fine x 2 schedulers.
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Cycles == 0 {
			t.Fatalf("missing cycles in %+v", row)
		}
	}
	// The serial-merge Mergesort has a sequential bottleneck: the
	// fine-grained version must be clearly faster under both schedulers.
	for _, sched := range []string{"pdf", "ws"} {
		if sp := res.FineSpeedup("mergesort", sched); sp < 1.2 {
			t.Errorf("mergesort fine-grained speedup under %s = %.2f, want >= 1.2", sched, sp)
		}
	}
	// Fine-grained Hash Join is at least competitive with the original.
	if sp := res.FineSpeedup("hashjoin", "pdf"); sp < 0.95 {
		t.Errorf("hashjoin fine-grained speedup = %.2f, want >= 0.95", sp)
	}
	if res.Get(Point{Workload: "nope", Input: "fine", Cores: 16}, "pdf") != nil {
		t.Errorf("missing row should be nil")
	}
	if !strings.Contains(res.String(), "coarse") {
		t.Errorf("String output incomplete")
	}
}

func TestProfilerComparisonShapesHold(t *testing.T) {
	res, err := ProfilerComparison(quick())
	if err != nil {
		t.Fatalf("ProfilerComparison: %v", err)
	}
	if res.SpeedupX() < 2 {
		t.Errorf("LruTree should be several times faster than SetAssoc, got %.1fX", res.SpeedupX())
	}
	if res.AvgRevisits < 3 {
		t.Errorf("SetAssoc should revisit references many times, got %.1f", res.AvgRevisits)
	}
	if res.MaxWorkingSetMismatch != 0 {
		t.Errorf("working sets should agree exactly, mismatch %.4f", res.MaxWorkingSetMismatch)
	}
	if res.Tasks == 0 || res.Groups <= res.Tasks/10 || res.Refs == 0 {
		t.Errorf("result incomplete: %+v", res)
	}
	if !strings.Contains(res.String(), "LruTree") {
		t.Errorf("String output incomplete")
	}
}

func TestFigure8ShapesHold(t *testing.T) {
	res, err := Figure8(quick(16, 8))
	if err != nil {
		t.Fatalf("Figure8: %v", err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	for _, cores := range []int{16, 8} {
		for _, scheme := range []Figure8Scheme{SchemePrevious, SchemeDAG, SchemeActual} {
			row := res.Row(cores, scheme)
			if row == nil || row.Cycles == 0 || row.Normalized < 1.0 {
				t.Fatalf("missing or malformed row for %d/%s: %+v", cores, scheme, row)
			}
		}
	}
	// The automatically regenerated version stays close to the best
	// scheme (the paper reports within 5%; the scaled quick runs allow a
	// looser 30% band while still excluding pathological selections).
	if worst := res.WorstNormalized(SchemeActual); worst > 1.3 {
		t.Errorf("actual scheme normalized time %.3f too far from best", worst)
	}
	if res.Row(99, SchemeDAG) != nil {
		t.Errorf("missing row should be nil")
	}
	if !strings.Contains(res.String(), "task-coarsening") {
		t.Errorf("String output incomplete")
	}
}
