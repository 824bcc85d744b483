// Command cmpsim runs one benchmark on one CMP configuration under one
// scheduler and prints the resulting performance metrics.
//
// Examples:
//
//	cmpsim -workload mergesort -cores 8 -sched pdf
//	cmpsim -workload hashjoin -cores 16 -sched ws -table 45nm
//	cmpsim -workload mergesort -cores 8 -sched pdf -topology private
//	cmpsim -workload mergesort -cores 16 -topology clustered:4 -sched ws:nearest
//	cmpsim -workload mergesort -cores 8 -topology clustered:4 -sched sb
//	cmpsim -workload mergesort -cores 32 -sched pdf -compare
//
// The -sched flag accepts any scheduler in the registry (run
// `sweep -list` for the live set): the paper's pdf and ws, the fifo
// ablation baseline, the space-bounded sb, and the locality-guided
// stealing variants ws:nearest and ws:oldest.  The -topology flag selects
// how the L2 capacity is organised: shared (one L2 for all cores, the
// paper's machine), private (one slice per core) or clustered:<k> (k cores
// per slice).  The -compare flag runs both PDF and WS (plus the sequential
// baseline) and prints a side-by-side comparison.
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"

	"cmpsched/internal/cache"
	"cmpsched/internal/cmpsim"
	"cmpsched/internal/config"
	"cmpsched/internal/dag"
	"cmpsched/internal/obs"
	"cmpsched/internal/pprofio"
	"cmpsched/internal/sched"
	"cmpsched/internal/workload"
)

func main() {
	var (
		workloadName = flag.String("workload", "mergesort", "benchmark: "+strings.Join(workload.Names(), ", "))
		schedName    = flag.String("sched", "pdf", "scheduler: "+strings.Join(sched.Names(), ", "))
		cores        = flag.Int("cores", 8, "number of cores")
		table        = flag.String("table", "default", "configuration table: default (Table 2) or 45nm (Table 3)")
		scale        = flag.Int64("scale", config.DefaultScale, "capacity scale factor (1 = paper-sized caches)")
		l2Hit        = flag.Int64("l2hit", 0, "override L2 hit latency in cycles (0 = table value)")
		memLat       = flag.Int64("memlat", 0, "override main-memory latency in cycles (0 = table value)")
		topology     = flag.String("topology", "shared", "cache topology: shared, private or clustered:<k> (k cores per L2 slice)")
		compare      = flag.Bool("compare", false, "run PDF, WS and the sequential baseline and compare")
		taskWS       = flag.Int64("taskws", 0, "mergesort task working-set bytes (0 = default)")
		traceOut     = flag.String("trace", "", "write a Chrome trace-event JSON of the task lifecycle to this file (load in Perfetto)")
		verbose      = flag.Bool("v", false, "print the metrics snapshot as a sorted key=value table at exit")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile   = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	flush, err := pprofio.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	flushProfiles = flush
	defer flushProfiles()

	topo, err := cache.ParseTopology(*topology)
	if err != nil {
		fatal(err)
	}
	cfg, err := lookupConfig(*table, *cores)
	if err != nil {
		fatal(err)
	}
	cfg = cfg.Scaled(*scale).WithTopology(topo)
	if *l2Hit > 0 {
		cfg = cfg.WithL2HitLatency(*l2Hit)
	}
	if *memLat > 0 {
		cfg = cfg.WithMemLatency(*memLat)
	}

	w, err := buildWorkload(*workloadName, *taskWS, cfg)
	if err != nil {
		fatal(err)
	}
	d, _, err := w.Build()
	if err != nil {
		fatal(err)
	}
	stats := d.ComputeStats()
	fmt.Printf("workload %s: %s\n", w.Name(), stats)
	slices := cfg.Topology.Slices(cfg.Cores)
	slice := cfg.Topology.SliceConfig(cfg.L2, cfg.Cores)
	fmt.Printf("config   %s: %d cores, L2 %.1f KB (%d-way, %d-cycle hits), memory %d/%d cycles\n",
		cfg.Name, cfg.Cores, float64(cfg.L2.SizeBytes)/1024, cfg.L2.Assoc, cfg.L2.HitLatency,
		cfg.Memory.LatencyCycles, cfg.Memory.ServiceIntervalCycles)
	fmt.Printf("topology %s: %d L2 slice(s) of %.1f KB (%d-cycle hits)\n",
		cfg.Topology, slices, float64(slice.SizeBytes)/1024, slice.HitLatency)

	opts := cmpsim.DefaultOptions()
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
		opts.Tracer = tracer
	}
	var reg *obs.Registry
	if *verbose {
		reg = obs.NewRegistry()
		opts.Metrics = reg
	}

	if *compare {
		if tracer != nil {
			fatal(fmt.Errorf("-trace records a single run; it cannot be combined with -compare"))
		}
		runCompare(d, cfg, reg)
		printMetrics(reg)
		return
	}

	s, err := sched.New(*schedName)
	if err != nil {
		fatal(err)
	}
	res, err := cmpsim.RunWithOptions(d, s, cfg, opts)
	if err != nil {
		fatal(err)
	}
	printResult(res)
	if tracer != nil {
		if err := writeTrace(*traceOut, tracer, d, cfg.Cores); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "cmpsim: wrote %d trace events to %s\n", tracer.Len(), *traceOut)
	}
	printMetrics(reg)
}

// writeTrace exports the recorded lifecycle events as Chrome trace-event
// JSON, naming each task row after its DAG task.
func writeTrace(path string, tr *obs.Tracer, d *dag.DAG, cores int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	cfg := obs.ChromeTraceConfig{
		Cores:    cores,
		TaskName: func(task int32) string { return d.Task(dag.TaskID(task)).Name },
	}
	if err := tr.WriteChromeTrace(f, cfg); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printMetrics renders the -v snapshot; a nil registry prints nothing.
func printMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	fmt.Println("\nmetrics:")
	if err := reg.WriteTable(os.Stdout); err != nil {
		fatal(err)
	}
}

func lookupConfig(table string, cores int) (config.CMP, error) {
	switch table {
	case "default":
		return config.Default(cores)
	case "45nm":
		return config.SingleTech45(cores)
	default:
		return config.CMP{}, fmt.Errorf("unknown table %q (want default or 45nm)", table)
	}
}

func buildWorkload(name string, taskWS int64, cfg config.CMP) (workload.Workload, error) {
	switch name {
	case "mergesort":
		if taskWS > 0 {
			return workload.NewMergesort(workload.MergesortConfig{TaskWorkingSetBytes: taskWS}), nil
		}
	case "hashjoin":
		// Sub-partitions are sized to the configuration's L2, as a
		// database system would.
		return workload.NewHashJoin(workload.HashJoinConfigForL2(cfg.L2.SizeBytes)), nil
	}
	return workload.New(name)
}

func runCompare(d *dag.DAG, cfg config.CMP, reg *obs.Registry) {
	opts := cmpsim.DefaultOptions()
	opts.Metrics = reg
	seq, err := cmpsim.RunSequentialWithOptions(d, cfg, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\n%-6s %14s %10s %12s %12s %10s\n", "sched", "cycles", "speedup", "L2miss/Ki", "mem util", "steals")
	fmt.Printf("%-6s %14d %10.2f %12.3f %12.1f%% %10s\n", "seq", seq.Cycles, 1.0, seq.L2MissesPerKiloInstr(), seq.MemUtilization*100, "-")
	for _, name := range []string{"pdf", "ws"} {
		s, _ := sched.New(name)
		res, err := cmpsim.RunWithOptions(d, s, cfg, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-6s %14d %10.2f %12.3f %12.1f%% %10d\n",
			name, res.Cycles, res.Speedup(seq), res.L2MissesPerKiloInstr(), res.MemUtilization*100, res.SchedMetrics["steals"])
	}
}

func printResult(res *cmpsim.Result) {
	fmt.Printf("\nscheduler            %s\n", res.Scheduler)
	fmt.Printf("execution time       %d cycles\n", res.Cycles)
	fmt.Printf("instructions         %d\n", res.Instructions)
	fmt.Printf("memory references    %d\n", res.Refs)
	fmt.Printf("L1 miss rate         %.2f%%\n", res.L1.MissRate()*100)
	fmt.Printf("L2 misses            %d (%.3f per 1000 instructions)\n", res.L2.Misses, res.L2MissesPerKiloInstr())
	if len(res.L2Slices) > 1 {
		for i, s := range res.L2Slices {
			fmt.Printf("L2 slice %-2d          %d accesses, %d misses (%.2f%% miss rate), %d queue cycles off-chip\n",
				i, s.Accesses, s.Misses, s.MissRate()*100, res.MemPorts[i].QueueCycles)
		}
	}
	fmt.Printf("off-chip transfers   %d (%d fetches, %d write-backs)\n", res.Mem.Transfers(), res.Mem.Fetches, res.Mem.Writebacks)
	fmt.Printf("memory utilization   %.1f%%\n", res.MemUtilization*100)
	fmt.Printf("core utilization     %.1f%%\n", res.AvgCoreUtilization()*100)
	fmt.Printf("tasks executed       %d\n", res.TasksExecuted)
	for _, k := range slices.Sorted(maps.Keys(res.SchedMetrics)) {
		fmt.Printf("sched metric         %s=%d\n", k, res.SchedMetrics[k])
	}
}

// flushProfiles is pprofio.Start's idempotent flush; fatal must run it
// before os.Exit (which skips defers) or an error exit — e.g. a MaxCycles
// abort, exactly the kind of run a user profiles — would leave a
// truncated, unparseable profile.
var flushProfiles = func() {}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cmpsim:", err)
	flushProfiles()
	os.Exit(1)
}
