package sweep

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cmpsched/internal/cache"
	"cmpsched/internal/config"
	"cmpsched/internal/dag"
	"cmpsched/internal/workload"
)

// testFactory builds small workload instances so sweeps finish in
// milliseconds.
func testFactory(name string, cfg config.CMP) (BuildFunc, string, error) {
	switch name {
	case "mergesort":
		ms := workload.MergesortConfig{Elements: 16 << 10, TaskWorkingSetBytes: 2 << 10}
		return func() (*dag.DAG, error) {
			d, _, err := workload.NewMergesort(ms).Build()
			return d, err
		}, fmt.Sprintf("%+v", ms), nil
	case "hashjoin":
		hj := workload.HashJoinConfigForL2(cfg.L2.SizeBytes)
		hj.PartitionBytes = 1 << 20
		return func() (*dag.DAG, error) {
			d, _, err := workload.NewHashJoin(hj).Build()
			return d, err
		}, fmt.Sprintf("%+v", hj), nil
	default:
		return nil, "", fmt.Errorf("testFactory: unknown workload %q", name)
	}
}

func testSpec() Spec {
	return Spec{
		Workloads:  []string{"mergesort", "hashjoin"},
		Schedulers: []string{"pdf", "ws"},
		Cores:      []int{2, 8},
		Topologies: []string{"shared", "private"},
		Quick:      true,
		Sequential: true,
		Factory:    testFactory,
	}
}

// stripVariance zeroes the per-run fields (timing, cache provenance) that
// are legitimately allowed to differ between runs of identical jobs.
func stripVariance(results []Result) []Result {
	out := make([]Result, len(results))
	for i, r := range results {
		r.Elapsed = 0
		r.Cached = false
		out[i] = r
	}
	return out
}

func TestKeyHashDistinguishesFields(t *testing.T) {
	base := Key{Workload: "ms", Params: "p", Scheduler: "pdf", Config: "c", Options: "o"}
	if base.Hash() != base.Hash() {
		t.Fatalf("hash not stable")
	}
	variants := []Key{
		{Workload: "ms2", Params: "p", Scheduler: "pdf", Config: "c", Options: "o"},
		{Workload: "ms", Params: "p2", Scheduler: "pdf", Config: "c", Options: "o"},
		{Workload: "ms", Params: "p", Scheduler: "ws", Config: "c", Options: "o"},
		{Workload: "ms", Params: "p", Scheduler: "pdf", Config: "c2", Options: "o"},
		{Workload: "ms", Params: "p", Scheduler: "pdf", Config: "c", Options: "o2"},
		// Field-boundary ambiguity: ("ab","c") vs ("a","bc").
		{Workload: "msp", Params: "", Scheduler: "pdf", Config: "c", Options: "o"},
	}
	seen := map[string]bool{base.Hash(): true}
	for _, v := range variants {
		h := v.Hash()
		if seen[h] {
			t.Errorf("key %+v collides", v)
		}
		seen[h] = true
	}
}

// TestKeyHashPinned pins the content address of one representative job to a
// literal value captured before the simulator hot-path overhaul.  The sweep
// cache's soundness rests on keys being a pure function of the inputs: if
// this hash moves, previously cached results (including on-disk caches from
// earlier builds) silently stop matching, so any change here must be a
// deliberate, documented cache-format break.
func TestKeyHashPinned(t *testing.T) {
	cfg, err := config.Default(8)
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.Scaled(config.DefaultScale)
	j := NewJob("mergesort", "{Elements:1024}", "pdf", cfg, nil)
	const want = "bb3450c04f3bd362f90839ea458740fd26a65177b5b057660bb80406270bbfc7"
	if got := j.Key.Hash(); got != want {
		t.Fatalf("pinned key hash changed:\n  got  %s\n  want %s", got, want)
	}
}

// TestKeySchedulerAxisPinned guards the cache-key contract after the
// scheduler-registry refactor: the new registry names ("sb", "ws:nearest",
// "ws:oldest") must content-address to their own pinned cache entries,
// while the pre-registry names keep their exact historical addresses (the
// "pdf" hash below is the same literal TestKeyHashPinned has pinned since
// before the registry existed), so sweep caches warmed by earlier builds
// stay valid and can never serve a classic-WS result for a ws:nearest run.
func TestKeySchedulerAxisPinned(t *testing.T) {
	cfg, err := config.Default(8)
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.Scaled(config.DefaultScale)
	pinned := map[string]string{
		"pdf":        "bb3450c04f3bd362f90839ea458740fd26a65177b5b057660bb80406270bbfc7",
		"ws":         "012b5fa4097972a880024fcd6b5f79871a44edc5d9433419e1a7eddb1b8d3a32",
		"sb":         "0669e18c1348259323dc21d360107330390a3af54fc5a2f915e0fde24b82852d",
		"ws:nearest": "2c08a3dfef0e3e359f7cd32d20b77f67feff98df714bd4a62ee92ca6e5ca285c",
		"ws:oldest":  "cccfe02ffd64e0dcb36b2e55adca28891254ba40be74ab0129094a21a451c12a",
	}
	seen := map[string]string{}
	for sc, want := range pinned {
		j := NewJob("mergesort", "{Elements:1024}", sc, cfg, nil)
		got := j.Key.Hash()
		if got != want {
			t.Errorf("%s: pinned key hash changed:\n  got  %s\n  want %s", sc, got, want)
		}
		if prev, dup := seen[got]; dup {
			t.Errorf("schedulers %s and %s share a content address", prev, sc)
		}
		seen[got] = sc
	}
}

// TestKeyDistinguishesTopologies guards the cache-key contract after the
// topology refactor: two otherwise-identical runs that differ only in cache
// topology must content-address to distinct keys, or a sweep cache warmed
// before the config change could serve stale shared-L2 results for
// private/clustered points.
func TestKeyDistinguishesTopologies(t *testing.T) {
	jobsFor := func(topos []string) []Job {
		spec := testSpec()
		spec.Workloads = []string{"mergesort"}
		spec.Schedulers = []string{"pdf"}
		spec.Cores = []int{8}
		spec.Sequential = false
		spec.Topologies = topos
		jobs, err := spec.Jobs()
		if err != nil {
			t.Fatalf("Jobs(%v): %v", topos, err)
		}
		return jobs
	}
	topos := []string{"shared", "private", "clustered:2", "clustered:4"}
	jobs := jobsFor(topos)
	if len(jobs) != len(topos) {
		t.Fatalf("jobs = %d, want %d", len(jobs), len(topos))
	}
	hashes := make(map[string]string)
	for i, j := range jobs {
		h := j.Key.Hash()
		if prev, dup := hashes[h]; dup {
			t.Errorf("topologies %q and %q share cache key %s", prev, topos[i], h)
		}
		hashes[h] = topos[i]
		if !strings.Contains(j.Key.Config, topos[i]) {
			t.Errorf("config fingerprint for %q does not encode the topology: %s", topos[i], j.Key.Config)
		}
	}
	// The default (no Topologies) expansion must key identically to an
	// explicit shared topology, so existing warm caches stay valid.
	def := jobsFor(nil)
	if def[0].Key.Hash() != jobs[0].Key.Hash() {
		t.Errorf("default topology key %s != explicit shared key %s", def[0].Key.Hash(), jobs[0].Key.Hash())
	}

	bad := testSpec()
	bad.Topologies = []string{"l3:nope"}
	if _, err := bad.Jobs(); err == nil {
		t.Errorf("unknown topology should fail spec expansion")
	}
}

func TestSpecExpansion(t *testing.T) {
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	// 2 workloads x 2 topologies x 2 core counts x (seq + pdf + ws).
	if len(jobs) != 2*2*2*3 {
		t.Fatalf("jobs = %d, want 24", len(jobs))
	}
	// Deterministic order: workload-major, then topology, then cores, then
	// scheduler.
	if jobs[0].Key.Workload != "mergesort" || jobs[0].Scheduler != Sequential {
		t.Errorf("unexpected first job %+v", jobs[0].Key)
	}
	if jobs[1].Scheduler != "pdf" || jobs[2].Scheduler != "ws" {
		t.Errorf("scheduler order wrong: %s, %s", jobs[1].Scheduler, jobs[2].Scheduler)
	}
	if jobs[3].Config.Cores != 8 || jobs[6].Config.Topology != cache.Private() {
		t.Errorf("cores/topology order wrong: %s, %s", jobs[3].Config.Name, jobs[6].Config.Name)
	}
	if jobs[12].Key.Workload != "hashjoin" {
		t.Errorf("workload order wrong: %s", jobs[12].Key.Workload)
	}
	// The scaled config is baked into the jobs.
	wantScale := config.DefaultScale * 16
	if got := jobs[0].Config.Scale; got != wantScale {
		t.Errorf("config scale = %d, want %d", got, wantScale)
	}

	if _, err := (Spec{}).Jobs(); err == nil {
		t.Errorf("empty spec should fail")
	}
	bad := testSpec()
	bad.Tables = []string{"90nm"}
	if _, err := bad.Jobs(); err == nil || !strings.Contains(err.Error(), "unknown configuration table") {
		t.Errorf("unknown table should fail, got %v", err)
	}
	none := testSpec()
	none.Cores = []int{7}
	if _, err := none.Jobs(); err == nil || !strings.Contains(err.Error(), "no default configuration") {
		t.Errorf("unmatched cores should fail, got %v", err)
	}
	unknown := testSpec()
	unknown.Workloads = []string{"nope"}
	if _, err := unknown.Jobs(); err == nil {
		t.Errorf("unknown workload should fail")
	}
}

// TestSpecJobsValidatesBeforeBuilding: Jobs checks the whole spec before
// it calls the factory once, so a negative scale or a misspelt scheduler
// fails up front instead of simulating an unscaled machine or failing job
// by job, while the sequential baseline and parameterised scheduler
// spellings pass.
func TestSpecJobsValidatesBeforeBuilding(t *testing.T) {
	calls := 0
	spec := testSpec()
	spec.Factory = func(name string, cfg config.CMP) (BuildFunc, string, error) {
		calls++
		return testFactory(name, cfg)
	}
	negative := spec
	negative.Scale = -1
	if _, err := negative.Jobs(); err == nil || !strings.Contains(err.Error(), "negative scale") {
		t.Errorf("negative scale: err = %v", err)
	}
	misspelt := spec
	misspelt.Schedulers = []string{"pdf", "pfd"}
	if _, err := misspelt.Jobs(); err == nil || !strings.Contains(err.Error(), "pfd") {
		t.Errorf("unknown scheduler: err = %v", err)
	}
	if calls != 0 {
		t.Errorf("invalid specs called the factory %d times", calls)
	}

	valid := spec
	valid.Sequential = false
	valid.Schedulers = []string{Sequential, "ws:nearest"}
	jobs, err := valid.Jobs()
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	if len(jobs) != 2*2*2*2 {
		t.Fatalf("jobs = %d, want 16", len(jobs))
	}
	if jobs[0].Scheduler != Sequential || jobs[1].Scheduler != "ws:nearest" {
		t.Errorf("schedulers = %s, %s", jobs[0].Scheduler, jobs[1].Scheduler)
	}
}

func TestDefaultFactory(t *testing.T) {
	if _, _, err := DefaultFactory("nope", config.MustDefault(2)); err == nil {
		t.Fatalf("unknown workload should fail")
	}
	build, params, err := DefaultFactory("matmul", config.MustDefault(2))
	if err != nil {
		t.Fatalf("DefaultFactory: %v", err)
	}
	if params != "default" {
		t.Errorf("params = %q", params)
	}
	d, err := build()
	if err != nil || d.NumTasks() == 0 {
		t.Fatalf("build failed: %v", err)
	}
}

func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	serial, err := NewEngine(EngineOptions{Workers: 1}).Run(jobs)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	parallel, err := NewEngine(EngineOptions{Workers: 8}).Run(jobs)
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	if !reflect.DeepEqual(stripVariance(serial), stripVariance(parallel)) {
		t.Fatalf("parallel sweep results differ from serial")
	}
	// Sequential jobs really ran on one core.
	for _, r := range serial {
		if r.Key.Scheduler == Sequential {
			if r.Sim.Config.Cores != 1 || !strings.HasSuffix(r.Sim.Config.Name, "/sequential") {
				t.Errorf("sequential job ran on %+v", r.Sim.Config.Name)
			}
		}
		if r.Sim.TaskStats != nil {
			t.Errorf("TaskStats should be dropped by default")
		}
		if r.Sim.Cycles == 0 {
			t.Errorf("empty result for %s", r.Key)
		}
	}
}

func TestStreamCallbackCoversAllJobs(t *testing.T) {
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	agg := NewAggregator()
	seen := make([]bool, len(jobs))
	_, err = NewEngine(EngineOptions{Workers: 4}).RunStream(jobs, func(i int, r Result) {
		seen[i] = true
		agg.Add(r)
	})
	if err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	for i, s := range seen {
		if !s {
			t.Errorf("job %d not streamed", i)
		}
	}
	rows := agg.Rows()
	// 2 workloads x 3 schedulers.
	if len(rows) != 6 {
		t.Fatalf("summary rows = %d, want 6", len(rows))
	}
	if rows[0].Workload != "hashjoin" || rows[0].Scheduler != "pdf" {
		t.Errorf("summary order wrong: %+v", rows[0])
	}
	for _, row := range rows {
		// 2 core counts x 2 topologies per (workload, scheduler).
		if row.Runs != 4 || row.TotalCycles == 0 || row.BestConfig == "" {
			t.Errorf("malformed summary row %+v", row)
		}
	}
}

func TestMemoryCacheHitMiss(t *testing.T) {
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	cache := NewMemoryCache()
	eng := NewEngine(EngineOptions{Workers: 4, Cache: cache})
	first, err := eng.Run(jobs)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	for _, r := range first {
		if r.Cached {
			t.Errorf("first run should not hit the cache: %s", r.Key)
		}
	}
	if hits, misses := cache.Stats(); hits != 0 || misses != int64(len(jobs)) {
		t.Errorf("after first run: hits=%d misses=%d", hits, misses)
	}
	if cache.Len() != len(jobs) {
		t.Errorf("cache holds %d entries, want %d", cache.Len(), len(jobs))
	}
	second, err := eng.Run(jobs)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	for _, r := range second {
		if !r.Cached {
			t.Errorf("second run should hit the cache: %s", r.Key)
		}
	}
	if !reflect.DeepEqual(stripVariance(first), stripVariance(second)) {
		t.Fatalf("cached results differ from computed results")
	}
}

func TestDiskCachePersistsAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	jobs = jobs[:4]

	c1, err := NewDiskCache(dir)
	if err != nil {
		t.Fatalf("NewDiskCache: %v", err)
	}
	first, err := NewEngine(EngineOptions{Workers: 2, Cache: c1}).Run(jobs)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}

	// A fresh instance over the same directory simulates a new process.
	c2, err := NewDiskCache(dir)
	if err != nil {
		t.Fatalf("NewDiskCache: %v", err)
	}
	second, err := NewEngine(EngineOptions{Workers: 2, Cache: c2}).Run(jobs)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	for _, r := range second {
		if !r.Cached {
			t.Errorf("second process should hit the disk cache: %s", r.Key)
		}
	}
	if !reflect.DeepEqual(stripVariance(first), stripVariance(second)) {
		t.Fatalf("disk-cached results differ from computed results")
	}

	// Corrupt every entry: the cache must degrade to recomputation.
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != len(jobs) {
		t.Fatalf("cache files = %d (%v), want %d", len(files), err, len(jobs))
	}
	for _, f := range files {
		if err := os.WriteFile(f, []byte("not json"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c3, err := NewDiskCache(dir)
	if err != nil {
		t.Fatalf("NewDiskCache: %v", err)
	}
	third, err := NewEngine(EngineOptions{Workers: 2, Cache: c3}).Run(jobs)
	if err != nil {
		t.Fatalf("third run: %v", err)
	}
	for _, r := range third {
		if r.Cached {
			t.Errorf("corrupt entries must read as misses: %s", r.Key)
		}
	}
	if !reflect.DeepEqual(stripVariance(first), stripVariance(third)) {
		t.Fatalf("recomputed results differ")
	}
}

func TestExportRoundTripJSON(t *testing.T) {
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	results, err := NewEngine(EngineOptions{Workers: 4}).Run(jobs[:6])
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, results); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if !reflect.DeepEqual(results, back) {
		t.Fatalf("JSON round trip changed the results")
	}
	if _, err := ReadJSON(strings.NewReader("{broken")); err == nil {
		t.Errorf("broken JSON should fail")
	}
}

func TestExportCSV(t *testing.T) {
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	results, err := NewEngine(EngineOptions{Workers: 4}).Run(jobs[:3])
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, results); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("parse CSV: %v", err)
	}
	if len(rows) != len(results)+1 {
		t.Fatalf("rows = %d, want %d", len(rows), len(results)+1)
	}
	if !reflect.DeepEqual(rows[0], CSVHeader()) {
		t.Errorf("header = %v", rows[0])
	}
	for i, r := range results {
		row := rows[i+1]
		if row[0] != r.Key.Workload || row[1] != r.Key.Scheduler {
			t.Errorf("row %d key mismatch: %v", i, row)
		}
		if want := fmt.Sprint(r.Sim.Cycles); row[4] != want {
			t.Errorf("row %d cycles = %s, want %s", i, row[4], want)
		}
	}
	// Empty exports still carry the header.
	buf.Reset()
	if err := WriteCSV(&buf, nil); err != nil {
		t.Fatalf("empty WriteCSV: %v", err)
	}
	if got := strings.TrimSpace(buf.String()); got != strings.Join(CSVHeader(), ",") {
		t.Errorf("empty CSV = %q", got)
	}
	// Unfilled entries of a failed run's partial slice are skipped, not
	// dereferenced.
	buf.Reset()
	if err := WriteCSV(&buf, []Result{results[0], {}, results[1]}); err != nil {
		t.Fatalf("partial WriteCSV: %v", err)
	}
	partial, err := csv.NewReader(&buf).ReadAll()
	if err != nil || len(partial) != 3 {
		t.Errorf("partial CSV rows = %d (%v), want header + 2", len(partial), err)
	}
}

func TestEngineErrorIsDeterministic(t *testing.T) {
	good, _, err := testFactory("mergesort", config.MustDefault(2))
	if err != nil {
		t.Fatal(err)
	}
	bad := func() (*dag.DAG, error) { return nil, fmt.Errorf("boom") }
	cfg := config.MustDefault(2).Scaled(512)
	jobs := []Job{
		NewJob("ms", "p", "pdf", cfg, good),
		NewJob("ms", "bad1", "pdf", cfg, bad),
		NewJob("ms", "p", "ws", cfg, good),
		NewJob("ms", "bad2", "ws", cfg, bad),
	}
	for _, workers := range []int{1, 4} {
		_, err := NewEngine(EngineOptions{Workers: workers}).Run(jobs)
		if err == nil || !strings.Contains(err.Error(), "job 1") || !strings.Contains(err.Error(), "boom") {
			t.Errorf("workers=%d: error = %v, want lowest failing job 1", workers, err)
		}
	}
	// A nil build function is rejected rather than panicking.
	if _, err := NewEngine(EngineOptions{Workers: 1}).Run([]Job{{Key: Key{Workload: "x"}, Scheduler: "pdf", Config: cfg}}); err == nil {
		t.Errorf("nil build should fail")
	}
	// Unknown schedulers are rejected.
	if _, err := NewEngine(EngineOptions{Workers: 1}).Run([]Job{NewJob("ms", "p", "nope", cfg, good)}); err == nil {
		t.Errorf("unknown scheduler should fail")
	}
}

func TestKeepTaskStatsBypassesCache(t *testing.T) {
	build, params, err := testFactory("mergesort", config.MustDefault(2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.MustDefault(2).Scaled(512)
	plain := NewJob("mergesort", params, "pdf", cfg, build)
	keep := plain
	keep.KeepTaskStats = true

	cache := NewMemoryCache()
	eng := NewEngine(EngineOptions{Workers: 1, Cache: cache})
	if _, err := eng.Run([]Job{plain}); err != nil {
		t.Fatalf("plain run: %v", err)
	}
	// Despite the equal key, the stats-keeping job must not be served the
	// stripped cached entry — and must not overwrite it with task stats.
	res, err := eng.Run([]Job{keep})
	if err != nil {
		t.Fatalf("keep run: %v", err)
	}
	if res[0].Cached || res[0].Sim.TaskStats == nil {
		t.Fatalf("KeepTaskStats job served from cache or missing stats (cached=%v)", res[0].Cached)
	}
	res, err = eng.Run([]Job{plain})
	if err != nil {
		t.Fatalf("second plain run: %v", err)
	}
	if !res[0].Cached || res[0].Sim.TaskStats != nil {
		t.Fatalf("cached entry corrupted by KeepTaskStats run (cached=%v)", res[0].Cached)
	}
}

func TestDeriveLevelMisses(t *testing.T) {
	build, params, err := testFactory("mergesort", config.MustDefault(8))
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.MustDefault(8).Scaled(512)
	job := NewJob("mergesort", params, "pdf", cfg, build).WithDerive("levels", DeriveLevelMisses)
	plain := NewJob("mergesort", params, "pdf", cfg, build)
	if job.Key == plain.Key {
		t.Errorf("derive tag must change the key")
	}
	cache := NewMemoryCache()
	res, err := NewEngine(EngineOptions{Workers: 1, Cache: cache}).Run([]Job{job})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	levels := LevelMisses(res[0].Derived)
	if len(levels) == 0 {
		t.Fatalf("no level metrics derived")
	}
	var total int64
	for _, v := range levels {
		total += v
	}
	if total != res[0].Sim.L2.Misses {
		t.Errorf("level misses sum %d != total L2 misses %d", total, res[0].Sim.L2.Misses)
	}
	// Derived metrics survive the cache.
	res2, err := NewEngine(EngineOptions{Workers: 1, Cache: cache}).Run([]Job{job})
	if err != nil {
		t.Fatalf("cached run: %v", err)
	}
	if !res2[0].Cached || !reflect.DeepEqual(res2[0].Derived, res[0].Derived) {
		t.Errorf("derived metrics lost in the cache")
	}
}
