package sweep

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"cmpsched/internal/cache"
	"cmpsched/internal/config"
	"cmpsched/internal/dag"
	"cmpsched/internal/sched"
	"cmpsched/internal/workload"
)

// WorkloadFactory produces a DAG builder and a canonical parameter
// fingerprint for a named workload on a configuration.  The experiment
// harness supplies a factory that sizes inputs the way the paper's runs do
// (see experiments.Options.WorkloadFactory); DefaultFactory builds each
// workload with its library defaults.
//
// The build must be a pure function of the name and the fingerprint: the
// engine shares one DAG among all jobs whose (Workload, Params) agree, on
// every configuration (see BuildFunc).  A factory that sizes an input from
// cfg must therefore fold that input into the fingerprint.
type WorkloadFactory func(name string, cfg config.CMP) (build BuildFunc, params string, err error)

// DefaultFactory builds workloads with their default parameters.
func DefaultFactory(name string, cfg config.CMP) (BuildFunc, string, error) {
	if _, err := workload.New(name); err != nil {
		return nil, "", err
	}
	build := func() (*dag.DAG, error) {
		w, err := workload.New(name)
		if err != nil {
			return nil, err
		}
		d, _, err := w.Build()
		return d, err
	}
	return build, "default", nil
}

// Configuration table names accepted by Spec.Tables.
const (
	TableDefault = "default" // Table 2, the scaling-technology configurations
	Table45nm    = "45nm"    // Table 3, the 45 nm single-technology design space
)

// Spec declares a design-space sweep: the cross product of workloads,
// schedulers and CMP configurations, each point one simulation job.  It is
// the one expander of that grid: cmd/sweep, the sweep service's wire
// requests and the benchmark's grids all reach their jobs through Points
// and JobsFor, so a point keys identically whichever way it arrives.
type Spec struct {
	// Workloads lists benchmark names (see workload.Names).
	Workloads []string
	// Schedulers lists scheduler names (see sched.Names) or Sequential;
	// empty means {"pdf", "ws"}.
	Schedulers []string
	// Tables lists configuration tables (TableDefault, Table45nm); empty
	// means {TableDefault}.
	Tables []string
	// Cores restricts the core counts; empty means every core count the
	// selected tables define.
	Cores []int
	// Topologies lists cache-topology encodings ("shared", "private",
	// "clustered:<k>"); empty means {"shared"}, the paper's machine.  Each
	// topology multiplies the grid and is folded into the configuration
	// fingerprint, so results for different topologies never share cache
	// entries.
	Topologies []string
	// Scale is the capacity scale factor (0 means config.DefaultScale); it
	// must not be negative.
	Scale int64
	// Quick shrinks inputs and caches a further 16x, mirroring the
	// experiment harness's quick mode.
	Quick bool
	// Sequential also runs the one-core sequential baseline for every
	// (workload, configuration) point.
	Sequential bool
	// Factory builds the workloads; nil means DefaultFactory.
	Factory WorkloadFactory
}

// Point is one explicit design-space point: exactly one simulation job.
// Zero-valued Table and Topology mean "default" and "shared".  The JSON
// tags are the sweep service's wire encoding of a point.
type Point struct {
	// Workload names the benchmark.
	Workload string `json:"workload"`
	// Scheduler names the scheduler, or Sequential for the baseline.
	Scheduler string `json:"scheduler"`
	// Table names the configuration table ("" means "default").
	Table string `json:"table,omitempty"`
	// Topology encodes the cache topology ("" means "shared").
	Topology string `json:"topology,omitempty"`
	// Cores selects the table configuration by core count.
	Cores int `json:"cores"`
}

// Canonical fills the defaulted fields, returning the spelling under which
// the point is expanded and reported.
func (p Point) Canonical() Point {
	if p.Table == "" {
		p.Table = TableDefault
	}
	if p.Topology == "" {
		p.Topology = cache.Shared().String()
	}
	return p
}

// Validate checks one point against the live registries and tables.
func (p Point) Validate() error {
	if _, err := workload.New(p.Workload); err != nil {
		return err
	}
	if err := checkScheduler(p.Scheduler); err != nil {
		return err
	}
	_, err := p.config(1)
	return err
}

// config resolves the point to its table configuration, scaled and given
// the point's topology.  It is the only lookup from a point to a machine.
func (p Point) config(scale int64) (config.CMP, error) {
	p = p.Canonical()
	cfgs, err := TableConfigs(p.Table)
	if err != nil {
		return config.CMP{}, err
	}
	topo, err := cache.ParseTopology(p.Topology)
	if err != nil {
		return config.CMP{}, fmt.Errorf("sweep: %w", err)
	}
	for _, c := range cfgs {
		if c.Cores == p.Cores {
			return c.Scaled(scale).WithTopology(topo), nil
		}
	}
	return config.CMP{}, fmt.Errorf("sweep: no %s configuration has %d cores", p.Table, p.Cores)
}

// checkScheduler accepts registry names (including parameterised
// spellings) and the sequential pseudo-scheduler.
func checkScheduler(name string) error {
	if name == Sequential {
		return nil
	}
	_, err := sched.New(name)
	return err
}

// EffectiveScale returns the capacity scale factor the spec implies,
// following the scale-factor convention of DESIGN.md.
func (s Spec) EffectiveScale() int64 {
	scale := s.Scale
	if scale == 0 {
		scale = config.DefaultScale
	}
	if s.Quick {
		scale *= 16
	}
	return scale
}

// TableConfigs returns the (unscaled) configurations of a named table, in
// the table's canonical order.
func TableConfigs(table string) ([]config.CMP, error) {
	switch table {
	case TableDefault:
		return config.Defaults(), nil
	case Table45nm:
		return config.SingleTech45All(), nil
	default:
		return nil, fmt.Errorf("sweep: unknown configuration table %q (want %q or %q)", table, TableDefault, Table45nm)
	}
}

// The grid's axes with their defaults applied: an empty axis means its
// default values.
func (s Spec) schedulers() []string { return orDefault(s.Schedulers, "pdf", "ws") }
func (s Spec) tables() []string     { return orDefault(s.Tables, TableDefault) }
func (s Spec) topologies() []string { return orDefault(s.Topologies, cache.Shared().String()) }

// orDefault returns list, or def when list is empty.
func orDefault(list []string, def ...string) []string {
	if len(list) == 0 {
		return def
	}
	return list
}

// coreCounts maps each table the spec names to the core counts, in table
// order, of its configurations that the Cores filter admits.  Each
// distinct table is resolved once, so a grid repeating a table many times
// costs no more than naming it once.
func (s Spec) coreCounts() (map[string][]int, error) {
	counts := make(map[string][]int)
	for _, tbl := range s.tables() {
		if _, seen := counts[tbl]; seen {
			continue
		}
		cfgs, err := TableConfigs(tbl)
		if err != nil {
			return nil, err
		}
		var admitted []int
		for _, c := range cfgs {
			if len(s.Cores) == 0 || slices.Contains(s.Cores, c.Cores) {
				admitted = append(admitted, c.Cores)
			}
		}
		if len(admitted) == 0 {
			return nil, fmt.Errorf("sweep: no %s configuration matches cores %v", tbl, s.Cores)
		}
		counts[tbl] = admitted
	}
	return counts, nil
}

// Validate checks every value the spec names against the live registries
// and tables, without building anything: the workloads, the schedulers, the
// tables and the core counts they admit, the topologies, and the scale.
// The first error in that order is returned, so the diagnosis is
// deterministic.  A spec naming no workloads passes; it names no jobs, and
// Points rejects it.
func (s Spec) Validate() error {
	for _, w := range s.Workloads {
		if _, err := workload.New(w); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	for _, sc := range s.Schedulers {
		if err := checkScheduler(sc); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	if _, err := s.coreCounts(); err != nil {
		return err
	}
	for _, topo := range s.topologies() {
		if _, err := cache.ParseTopology(topo); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	if s.Scale < 0 {
		return fmt.Errorf("sweep: negative scale %d", s.Scale)
	}
	return nil
}

// Size returns the number of points the spec names without expanding it:
// exactly len(Points()) whenever Points succeeds, so a service can hold a
// grid to its job limit before building a single job.  A grid multiplies
// its axes: a few hundred bytes of repeated values name millions of points,
// and a few megabytes more than an int holds, so Size saturates at
// math.MaxInt, which still compares over any limit.
func (s Spec) Size() int {
	counts, err := s.coreCounts()
	if err != nil {
		return 0
	}
	configs := 0
	for _, tbl := range s.tables() {
		configs += len(counts[tbl])
	}
	schedulers := len(s.schedulers())
	if s.Sequential {
		schedulers++
	}
	size := len(s.Workloads)
	for _, f := range []int{configs, len(s.topologies()), schedulers} {
		if f != 0 && size > math.MaxInt/f {
			return math.MaxInt
		}
		size *= f
	}
	return size
}

// Points validates the spec and flattens it into its explicit points in the
// canonical job order: workloads outermost, then tables, then topologies,
// then the table's core counts, then the sequential baseline followed by
// the schedulers.  Every expansion of a grid — Jobs, the sweep service,
// sweepctl's shards — uses this order, which is what lets a client merge
// sharded rows back into the order a single run produces.
func (s Spec) Points() ([]Point, error) {
	if len(s.Workloads) == 0 {
		return nil, errors.New("sweep: spec has no workloads")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	counts, _ := s.coreCounts() // Validate has resolved every table
	schedulers := s.schedulers()
	if s.Sequential {
		schedulers = append([]string{Sequential}, schedulers...)
	}
	var out []Point
	for _, wl := range s.Workloads {
		for _, tbl := range s.tables() {
			for _, topo := range s.topologies() {
				for _, cores := range counts[tbl] {
					for _, sc := range schedulers {
						out = append(out, Point{Workload: wl, Scheduler: sc, Table: tbl, Topology: topo, Cores: cores})
					}
				}
			}
		}
	}
	return out, nil
}

// JobsFor resolves points to jobs, in order: each point's table
// configuration, scaled by EffectiveScale and given the point's topology,
// with its workload built through the spec's factory.  Only Scale, Quick
// and Factory of the spec matter here; the points may come from Points or
// from an explicit list, and should have passed Validate.
func (s Spec) JobsFor(points []Point) ([]Job, error) {
	factory := s.Factory
	if factory == nil {
		factory = DefaultFactory
	}
	scale := s.EffectiveScale()
	jobs := make([]Job, 0, len(points))
	for _, p := range points {
		cfg, err := p.config(scale)
		if err != nil {
			return nil, err
		}
		build, params, err := factory(p.Workload, cfg)
		if err != nil {
			return nil, fmt.Errorf("sweep: %s on %s: %w", p.Workload, cfg.Name, err)
		}
		jobs = append(jobs, NewJob(p.Workload, params, p.Scheduler, cfg, build))
	}
	return jobs, nil
}

// Jobs validates and expands the spec into its job list, in Points order.
// An invalid spec fails before the factory is called.
func (s Spec) Jobs() ([]Job, error) {
	points, err := s.Points()
	if err != nil {
		return nil, err
	}
	return s.JobsFor(points)
}

// Run expands the spec and executes it on an engine with the given options.
func (s Spec) Run(opts EngineOptions) ([]Result, error) {
	jobs, err := s.Jobs()
	if err != nil {
		return nil, err
	}
	return NewEngine(opts).Run(jobs)
}
