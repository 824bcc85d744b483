package sweep

import (
	"fmt"

	"cmpsched/internal/cache"
	"cmpsched/internal/config"
	"cmpsched/internal/dag"
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
// schedulers and CMP configurations, each point one simulation job.
type Spec struct {
	// Workloads lists benchmark names (see workload.Names).
	Workloads []string
	// Schedulers lists scheduler names; empty means {"pdf", "ws"}.
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
	// Scale is the capacity scale factor (0 means config.DefaultScale).
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
// the table's canonical order.  Exported for service layers (sweepsvc) that
// resolve wire-submitted grid points to the same configurations — and hence
// the same cache keys — a Spec expansion would.
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

// Jobs expands the spec into its job list, in a deterministic order:
// workloads outermost, then tables, then topologies, then core counts, then
// (sequential, schedulers...).
func (s Spec) Jobs() ([]Job, error) {
	if len(s.Workloads) == 0 {
		return nil, fmt.Errorf("sweep: spec has no workloads")
	}
	schedulers := s.Schedulers
	if len(schedulers) == 0 {
		schedulers = []string{"pdf", "ws"}
	}
	tables := s.Tables
	if len(tables) == 0 {
		tables = []string{TableDefault}
	}
	topoNames := s.Topologies
	if len(topoNames) == 0 {
		topoNames = []string{cache.Shared().String()}
	}
	topologies := make([]cache.Topology, len(topoNames))
	for i, name := range topoNames {
		t, err := cache.ParseTopology(name)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		topologies[i] = t
	}
	factory := s.Factory
	if factory == nil {
		factory = DefaultFactory
	}
	wantCores := func(c int) bool {
		if len(s.Cores) == 0 {
			return true
		}
		for _, want := range s.Cores {
			if want == c {
				return true
			}
		}
		return false
	}

	scale := s.EffectiveScale()
	var jobs []Job
	for _, wl := range s.Workloads {
		for _, table := range tables {
			cfgs, err := TableConfigs(table)
			if err != nil {
				return nil, err
			}
			matched := false
			for _, topo := range topologies {
				for _, base := range cfgs {
					if !wantCores(base.Cores) {
						continue
					}
					matched = true
					cfg := base.Scaled(scale).WithTopology(topo)
					build, params, err := factory(wl, cfg)
					if err != nil {
						return nil, fmt.Errorf("sweep: %s on %s: %w", wl, cfg.Name, err)
					}
					if s.Sequential {
						jobs = append(jobs, NewJob(wl, params, Sequential, cfg, build))
					}
					for _, sc := range schedulers {
						jobs = append(jobs, NewJob(wl, params, sc, cfg, build))
					}
				}
			}
			if !matched {
				return nil, fmt.Errorf("sweep: no %s configuration matches cores %v", table, s.Cores)
			}
		}
	}
	return jobs, nil
}

// Run expands the spec and executes it on an engine with the given options.
func (s Spec) Run(opts EngineOptions) ([]Result, error) {
	jobs, err := s.Jobs()
	if err != nil {
		return nil, err
	}
	return NewEngine(opts).Run(jobs)
}
