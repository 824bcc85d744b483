// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -experiment all            # every experiment (minutes)
//	experiments -experiment fig2           # one experiment
//	experiments -experiment fig6 -quick    # reduced inputs (seconds)
//
// Available experiments: fig1, fig2, fig3, fig4, fig5, fig6, fig8, grain,
// profiler, topology, irregular, scheduler, all.  Output is printed as
// aligned text tables; EXPERIMENTS.md records a full run next to the
// paper's numbers.  The topology, irregular and scheduler experiments are
// not paper figures: topology evaluates the paper's shared-vs-private
// premise by rerunning PDF vs WS with the L2 organised as shared, clustered
// and per-core private slices; irregular asks the same PDF-vs-WS question
// on the eight data-dependent graph kernels (BFS, SSSP, PageRank, triangle
// counting, connectivity, k-core, MIS and matching) across generator
// families; and scheduler widens the scheduler axis itself, comparing every
// registered scheduler (PDF, WS, the locality-guided ws:nearest and the
// space-bounded sb) across topologies.  The experiments are the studies of
// experiments.Studies, run in its order.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cmpsched/internal/config"
	"cmpsched/internal/experiments"
	"cmpsched/internal/pprofio"
)

func main() {
	var (
		which      = flag.String("experiment", "all", "experiment to run: fig1, fig2, fig3, fig4, fig5, fig6, fig8, grain, profiler, topology, irregular, scheduler or all")
		quick      = flag.Bool("quick", false, "use reduced inputs (seconds instead of minutes)")
		scale      = flag.Int64("scale", config.DefaultScale, "scale factor dividing the paper's cache capacities and the harness's workload inputs")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	flush, err := pprofio.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatalf(1, "%v", err)
	}
	flushProfiles = flush
	defer flushProfiles()

	opts := experiments.Options{Scale: *scale, Quick: *quick}
	selected := strings.Split(*which, ",")
	ran := 0
	for _, s := range experiments.Studies() {
		if !wants(selected, s.Name) {
			continue
		}
		start := time.Now()
		res, err := s.Run(opts)
		if err != nil {
			fatalf(1, "%s: %v", s.Name, err)
		}
		fmt.Printf("==== %s (%.1fs) ====\n%s", s.Name, time.Since(start).Seconds(), res.String())
		ran++
	}
	if ran == 0 {
		fatalf(2, "unknown experiment %q", *which)
	}
}

// flushProfiles is pprofio.Start's idempotent flush; fatalf must run it
// before os.Exit (which skips defers) so a failed experiment — exactly the
// kind of run worth profiling — still leaves parseable profiles.
var flushProfiles = func() {}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	flushProfiles()
	os.Exit(code)
}

func wants(selected []string, name string) bool {
	for _, s := range selected {
		s = strings.TrimSpace(s)
		if s == "all" || s == name {
			return true
		}
	}
	return false
}
