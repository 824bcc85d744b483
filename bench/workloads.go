package main

import (
	"fmt"

	"cmpsched/internal/config"
	"cmpsched/internal/dag"
	"cmpsched/internal/graph"
	"cmpsched/internal/sweep"
	"cmpsched/internal/sweepsvc"
	"cmpsched/internal/workload"
)

// workers is the concurrency of every engine, service and client pool the
// benchmark starts: the load comes from one process on a two-CPU host.
const workers = 2

// A workloadDef is one benchmark workload.  Grid workloads time cold
// repetitions of a job list on a fresh engine; the service workload times a
// closed loop of clients against a sweepsvc whose cache holds the job list.
type workloadDef struct {
	name    string
	service bool
	jobs    func(seed uint64, quick bool) ([]sweep.Job, error)
}

// workloads lists the benchmark's workloads in the order a full run visits
// them.  README.md gives the reason each is in the set.  BENCHMARK.json
// gates the three grids only: service-warm's throughput follows the host's
// shared last-level cache too closely to hold a bound (see README.md).
var workloads = []workloadDef{
	{name: "paper-fig2", jobs: paperFig2Jobs},
	{name: "graph-irregular", jobs: graphIrregularJobs},
	{name: "sched-topology", jobs: schedTopologyJobs},
	{name: "service-warm", service: true, jobs: func(uint64, bool) ([]sweep.Job, error) { return servicePool().Jobs() }},
}

// lookupWorkload returns the named workload.
func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// paperFig2Jobs is the paper's Figure 2 grid: Mergesort, Hash Join and LU
// under the sequential baseline, PDF and WS on every Table 2 configuration.
func paperFig2Jobs(seed uint64, quick bool) ([]sweep.Job, error) {
	return sweep.Spec{
		Workloads:  []string{"mergesort", "hashjoin", "lu"},
		Schedulers: []string{"pdf", "ws"},
		Sequential: true,
		Quick:      quick,
		Factory:    factory(seed, quick, ""),
	}.Jobs()
}

// graphFamilies are the generator families of graph-irregular: the uniform
// random graph and the power-law RMAT graph.
var graphFamilies = []string{graph.FamilyUniform, graph.FamilyRMAT}

// graphIrregularJobs is the graph suite: every kernel on both families, on
// a shared and a private L2 of the 8-core configuration, under PDF and WS.
func graphIrregularJobs(seed uint64, quick bool) ([]sweep.Job, error) {
	var jobs []sweep.Job
	for _, family := range graphFamilies {
		js, err := sweep.Spec{
			Workloads:  graphKernels,
			Schedulers: []string{"pdf", "ws"},
			Cores:      []int{8},
			Topologies: []string{"shared", "private"},
			Quick:      quick,
			Factory:    factory(seed, quick, family),
		}.Jobs()
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, js...)
	}
	return jobs, nil
}

// schedTopologyJobs crosses the scheduler registry with the cache
// topologies on the 8-core configuration.
func schedTopologyJobs(seed uint64, quick bool) ([]sweep.Job, error) {
	return sweep.Spec{
		Workloads:  []string{"mergesort", "hashjoin", "bfs"},
		Schedulers: []string{"pdf", "ws", "ws:nearest", "sb"},
		Cores:      []int{8},
		Topologies: []string{"shared", "clustered:4", "private"},
		Quick:      quick,
		Factory:    factory(seed, quick, ""),
	}.Jobs()
}

// servicePool is the grid service-warm's cache holds: four workloads under
// the sequential baseline, PDF and WS on every Table 2 configuration with a
// shared and a private L2, at quick scale.  It is a wire request, so the
// pool's keys are the ones the service derives for the points clients send.
func servicePool() *sweepsvc.Request {
	return &sweepsvc.Request{
		Workloads:  []string{"mergesort", "hashjoin", "lu", "bfs"},
		Schedulers: []string{"pdf", "ws"},
		Sequential: true,
		Topologies: []string{"shared", "private"},
		Quick:      true,
	}
}

// graphKernels lists the graph kernels of graph-irregular.
var graphKernels = []string{"bfs", "sssp", "pagerank", "triangles", "connectivity", "kcore", "mis", "matching"}

// factory is the benchmark's sweep.WorkloadFactory.  It builds the inputs
// the experiment harness uses (internal/experiments; graphs at half size,
// see graphShape), shrunk 16x in quick mode the same way, with the seed in
// every input that has one: the graph
// generators' edge sets and Hash Join's hash-access sequences.  Mergesort
// and LU have no random input.  family selects the graph generator ("" is
// the kernels' default, uniform).
func factory(seed uint64, quick bool, family string) sweep.WorkloadFactory {
	div := int64(1)
	if quick {
		div = 16
	}
	return func(name string, cfg config.CMP) (sweep.BuildFunc, string, error) {
		var w workload.Workload
		var params any
		switch name {
		case "mergesort":
			c := workload.MergesortConfig{Elements: (1 << 20) / div, TaskWorkingSetBytes: max(2<<10, (16<<10)/div)}
			w, params = workload.NewMergesort(c), c
		case "hashjoin":
			c := workload.HashJoinConfigForL2(cfg.L2.SizeBytes)
			c.PartitionBytes = (32 << 20) / div
			c.Seed = seed
			w, params = workload.NewHashJoin(c), c
		case "lu":
			c := workload.LUConfig{N: 512, BlockElems: 32}
			if quick {
				c.N = 128
			}
			w, params = workload.NewLU(c), c
		default:
			var err error
			if w, params, err = graphWorkload(name, graphShape(name, family, seed, quick)); err != nil {
				return nil, "", err
			}
		}
		build := func() (*dag.DAG, error) {
			d, _, err := w.Build()
			return d, err
		}
		return build, fmt.Sprintf("%+v", params), nil
	}
}

// graphShape sizes a kernel's input at half the experiment harness's
// vertex counts: at full size the 32 recorded templates of graph-irregular
// peak near 1.7 GB of host memory and one cold repetition takes about 9 s
// on a two-CPU host, too long for several repetitions in one run.
func graphShape(kernel, family string, seed uint64, quick bool) workload.GraphShape {
	verts := int64(1 << 14)
	switch kernel {
	case "pagerank":
		verts = 1 << 12
	case "triangles":
		verts = 1 << 13
	}
	shape := workload.GraphShape{Family: family, Vertices: verts, Seed: seed}
	if quick {
		shape.Vertices = max(1<<11, verts/16)
		shape.EdgesPerTask = 512
	}
	return shape
}

// graphWorkload constructs a graph kernel and returns its default-filled
// configuration, which fingerprints the build.
func graphWorkload(kernel string, shape workload.GraphShape) (workload.Workload, any, error) {
	switch kernel {
	case "bfs":
		w := workload.NewBFS(workload.BFSConfig{Shape: shape})
		return w, w.Config(), nil
	case "sssp":
		w := workload.NewSSSP(workload.SSSPConfig{Shape: shape})
		return w, w.Config(), nil
	case "pagerank":
		w := workload.NewPageRank(workload.PageRankConfig{Shape: shape})
		return w, w.Config(), nil
	case "triangles":
		w := workload.NewTriangles(workload.TrianglesConfig{Shape: shape})
		return w, w.Config(), nil
	case "connectivity":
		w := workload.NewConnectivity(workload.ConnectivityConfig{Shape: shape})
		return w, w.Config(), nil
	case "kcore":
		w := workload.NewKCore(workload.KCoreConfig{Shape: shape})
		return w, w.Config(), nil
	case "mis":
		w := workload.NewMIS(workload.MISConfig{Shape: shape})
		return w, w.Config(), nil
	case "matching":
		w := workload.NewMatching(workload.MatchingConfig{Shape: shape})
		return w, w.Config(), nil
	}
	return nil, nil, fmt.Errorf("unknown workload %q", kernel)
}

// templateKey is the engine's memoisation key for a job's DAG template
// (internal/sweep/memo.go): jobs with equal keys share one build.
func templateKey(k sweep.Key) string {
	return k.Workload + "\x00" + k.Params + "\x00" + k.Config
}

// pointOf is the wire point naming a grid job.  The two graph families of
// one kernel share a point, so a point can name more than one job.
func pointOf(j sweep.Job) sweepsvc.Point {
	return sweepsvc.Point{
		Workload:  j.Key.Workload,
		Scheduler: j.Scheduler,
		Table:     sweep.TableDefault,
		Topology:  j.Config.Topology.String(),
		Cores:     j.Config.Cores,
	}
}
