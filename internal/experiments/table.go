package experiments

import (
	"fmt"
	"slices"

	"cmpsched/internal/cache"
	"cmpsched/internal/cmpsim"
	"cmpsched/internal/config"
	"cmpsched/internal/sweep"
)

// Point is one cell of a study's grid before its scheduler axis: a workload
// on one input variant, core count, L2 topology and swept parameter.  The
// fields a study does not vary stay zero, except Topology, which a table
// always spells out; a zero Topology in a lookup means "shared", as in
// sweep.Point.
type Point struct {
	// Workload names the benchmark (see workload.Names).
	Workload string
	// Input names the input variant: the generator family of the
	// irregularity study's graphs, or "coarse" and "fine" in the §5.4
	// granularity comparison; "" is the harness's standard input.
	Input string
	// Cores selects the configuration by core count.
	Cores int
	// Topology encodes the L2 topology ("shared", "private",
	// "clustered:<k>").
	Topology string
	// Param is the swept value: the L2 hit latency (Figure 4) or the
	// main-memory latency (Figure 5) in cycles, or the task working-set
	// size in bytes (Figure 6).
	Param int64
}

// Row is one simulation of a study: a point under one scheduler, with the
// simulator's result.
type Row struct {
	Point
	// Scheduler names the scheduler, or sweep.Sequential for the one-core
	// sequential baseline.
	Scheduler string
	*cmpsim.Result
}

// Table holds a study's rows in grid order, with the capacity scale they
// ran at.  The simulation studies are tables; each adds only its own
// helpers and its rendering.
type Table struct {
	Rows  []Row
	Scale int64
}

// Get returns the row for a point under a scheduler, or nil.
func (t *Table) Get(p Point, scheduler string) *Row {
	if p.Topology == "" {
		p.Topology = cache.Shared().String()
	}
	for i := range t.Rows {
		if row := &t.Rows[i]; row.Point == p && row.Scheduler == scheduler {
			return row
		}
	}
	return nil
}

// Cycles returns the execution time at a point under a scheduler, or 0 if
// the table lacks the row.
func (t *Table) Cycles(p Point, scheduler string) int64 {
	if row := t.Get(p, scheduler); row != nil {
		return row.Cycles
	}
	return 0
}

// Speedup returns the speedup of scheduler over base at a point (base's
// cycles over scheduler's; the paper's PDF-over-WS numbers are
// Speedup(p, "pdf", "ws")), or 0 if a row is missing.
func (t *Table) Speedup(p Point, scheduler, base string) float64 {
	s := t.Cycles(p, scheduler)
	if s == 0 {
		return 0
	}
	return float64(t.Cycles(p, base)) / float64(s)
}

// MissReduction returns the relative reduction in L2 misses per 1000
// instructions of scheduler against base at a point, in percent: positive
// means scheduler misses less.  It is 0 if a row is missing.
func (t *Table) MissReduction(p Point, scheduler, base string) float64 {
	s, b := t.Get(p, scheduler), t.Get(p, base)
	if s == nil || b == nil || b.L2MissesPerKiloInstr() == 0 {
		return 0
	}
	return (b.L2MissesPerKiloInstr() - s.L2MissesPerKiloInstr()) / b.L2MissesPerKiloInstr() * 100
}

// GapCollapse returns PDF's miss reduction against WS on the shared L2
// minus that on private slices, in percentage points, at the point's other
// coordinates: how much of PDF's cache advantage the private organisation
// forfeits.
func (t *Table) GapCollapse(p Point) float64 {
	shared, private := p, p
	shared.Topology, private.Topology = cache.Shared().String(), cache.Private().String()
	return t.MissReduction(shared, "pdf", "ws") - t.MissReduction(private, "pdf", "ws")
}

// grid collects a study's rows and, in the same order, the jobs that
// evaluate them, so every job of a study runs in one engine run and each
// result lands on its own row.
type grid struct {
	rows []Row
	jobs []sweep.Job
}

// add appends a row per scheduler for point p, each simulating on cfg the
// DAG build makes, fingerprinted by params.
func (g *grid) add(p Point, cfg config.CMP, build sweep.BuildFunc, params string, schedulers ...string) {
	if p.Topology == "" {
		p.Topology = cache.Shared().String()
	}
	for _, sc := range schedulers {
		g.rows = append(g.rows, Row{Point: p, Scheduler: sc})
		g.jobs = append(g.jobs, sweep.NewJob(p.Workload, params, sc, cfg, build))
	}
}

// expand appends the points of spec, in its canonical order, as rows of one
// input variant, their jobs built by the harness's factory for that input
// at the options' scale.  LU's points above 16 cores are left out: the
// paper's LU input is smaller than the 32-core L2, so LU is reported only
// up to 16 cores.
func (g *grid) expand(o Options, input string, spec sweep.Spec) error {
	spec.Scale, spec.Quick, spec.Factory = o.Scale, o.Quick, o.factory(input)
	points, err := spec.Points()
	if err != nil {
		return err
	}
	points = slices.DeleteFunc(points, func(p sweep.Point) bool { return p.Workload == "lu" && p.Cores > 16 })
	jobs, err := spec.JobsFor(points)
	if err != nil {
		return err
	}
	for _, p := range points {
		g.rows = append(g.rows, Row{Point: Point{Workload: p.Workload, Input: input, Cores: p.Cores, Topology: p.Topology}, Scheduler: p.Scheduler})
	}
	g.jobs = append(g.jobs, jobs...)
	return nil
}

// run executes the grid's jobs on the options' engine and returns the
// study's table.
func (g *grid) run(o Options) (Table, error) {
	results, err := o.run(g.jobs)
	if err != nil {
		return Table{}, err
	}
	for i := range g.rows {
		g.rows[i].Result = results[i].Sim
	}
	return Table{Rows: g.rows, Scale: o.effectiveScale()}, nil
}

// sweepTable runs a study declared as a sweep.Spec: the spec expanded once
// per input variant ("" for the standard inputs), all in one engine run.
// name prefixes any error.
func (o Options) sweepTable(name string, spec sweep.Spec, inputs ...string) (Table, error) {
	var g grid
	for _, in := range inputs {
		if err := g.expand(o, in, spec); err != nil {
			return Table{}, fmt.Errorf("%s: %w", name, err)
		}
	}
	t, err := g.run(o)
	if err != nil {
		return Table{}, fmt.Errorf("%s: %w", name, err)
	}
	return t, nil
}

// topologyNames spells topologies the way sweep.Spec takes them.
func topologyNames(ts []cache.Topology) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.String()
	}
	return out
}
