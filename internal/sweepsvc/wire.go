package sweepsvc

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"cmpsched/internal/cache"
	"cmpsched/internal/config"
	"cmpsched/internal/experiments"
	"cmpsched/internal/sched"
	"cmpsched/internal/sweep"
	"cmpsched/internal/workload"
)

// Request is the wire encoding of one submission: either a declarative grid
// (the cross product of the axis fields, exactly sweep.Spec's semantics) or
// an explicit Points list.  Scale and Quick apply to both forms.
//
// The encoding is strict by design: unknown JSON fields are rejected at
// decode, axis values are validated against the live workload/scheduler
// registries before any job is admitted, and jobs are constructed through
// the same workload factory and configuration tables cmd/sweep uses — so a
// grid submitted over the wire produces byte-identical sweep.Keys (and hence
// shares cache entries) with the same grid run on the CLI.
type Request struct {
	// Workloads lists benchmark names (workload registry spellings).
	Workloads []string `json:"workloads,omitempty"`
	// Schedulers lists scheduler names; empty means {"pdf", "ws"}.
	Schedulers []string `json:"schedulers,omitempty"`
	// Tables lists configuration tables ("default", "45nm"); empty means
	// {"default"}.
	Tables []string `json:"tables,omitempty"`
	// Topologies lists cache topologies ("shared", "private",
	// "clustered:<k>"); empty means {"shared"}.
	Topologies []string `json:"topologies,omitempty"`
	// Cores restricts the core counts; empty means every count the
	// selected tables define.
	Cores []int `json:"cores,omitempty"`
	// Scale is the capacity scale factor (0 means the default).
	Scale int64 `json:"scale,omitempty"`
	// Quick selects reduced inputs, mirroring cmd/sweep -quick.
	Quick bool `json:"quick,omitempty"`
	// Sequential also runs the one-core sequential baseline per point.
	Sequential bool `json:"sequential,omitempty"`
	// Points, when non-empty, is the explicit job list form; the grid axis
	// fields must then be empty.
	Points []Point `json:"points,omitempty"`
}

// Point is one explicit design-space point: exactly one simulation job.
// Zero-valued Table and Topology mean "default" and "shared".
type Point struct {
	// Workload names the benchmark.
	Workload string `json:"workload"`
	// Scheduler names the scheduler, or "seq" for the sequential baseline.
	Scheduler string `json:"scheduler"`
	// Table names the configuration table ("" means "default").
	Table string `json:"table,omitempty"`
	// Topology encodes the cache topology ("" means "shared").
	Topology string `json:"topology,omitempty"`
	// Cores selects the table configuration by core count.
	Cores int `json:"cores"`
}

// canonical fills the defaulted fields, returning the spelling under which
// the point is expanded and reported.
func (p Point) canonical() Point {
	if p.Table == "" {
		p.Table = sweep.TableDefault
	}
	if p.Topology == "" {
		p.Topology = cache.Shared().String()
	}
	return p
}

// DecodeRequest reads one strict-JSON Request: unknown fields, trailing
// data and type mismatches are errors, so malformed submissions fail before
// admission instead of silently sweeping a different grid.
func DecodeRequest(r io.Reader) (*Request, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("sweepsvc: decode request: %w", err)
	}
	// A second Decode distinguishes EOF (good) from trailing garbage.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("sweepsvc: trailing data after request body")
	}
	return &req, nil
}

// validScheduler accepts registry names (including parameterised spellings)
// and the sequential pseudo-scheduler.
func validScheduler(name string) error {
	if name == sweep.Sequential {
		return nil
	}
	_, err := sched.New(name)
	return err
}

// Validate checks every axis value against the live registries and tables.
// It returns the first error in canonical expansion order, so clients get a
// deterministic diagnosis.
func (r *Request) Validate() error {
	if len(r.Points) > 0 {
		if len(r.Workloads) > 0 || len(r.Schedulers) > 0 || len(r.Tables) > 0 ||
			len(r.Topologies) > 0 || len(r.Cores) > 0 || r.Sequential {
			return fmt.Errorf("sweepsvc: request mixes points with grid axis fields")
		}
		for i, p := range r.Points {
			if err := p.validate(); err != nil {
				return fmt.Errorf("sweepsvc: point %d: %w", i, err)
			}
		}
		return nil
	}
	if len(r.Workloads) == 0 {
		return fmt.Errorf("sweepsvc: request has no workloads and no points")
	}
	for _, w := range r.Workloads {
		if _, err := workload.New(w); err != nil {
			return fmt.Errorf("sweepsvc: %w", err)
		}
	}
	for _, s := range r.Schedulers {
		if err := validScheduler(s); err != nil {
			return fmt.Errorf("sweepsvc: %w", err)
		}
	}
	for _, tbl := range r.tables() {
		if _, err := sweep.TableConfigs(tbl); err != nil {
			return err
		}
	}
	for _, topo := range r.topologies() {
		if _, err := cache.ParseTopology(topo); err != nil {
			return fmt.Errorf("sweepsvc: %w", err)
		}
	}
	if r.Scale < 0 {
		return fmt.Errorf("sweepsvc: negative scale %d", r.Scale)
	}
	return nil
}

// validate checks one explicit point.
func (p Point) validate() error {
	p = p.canonical()
	if _, err := workload.New(p.Workload); err != nil {
		return err
	}
	if err := validScheduler(p.Scheduler); err != nil {
		return err
	}
	cfgs, err := sweep.TableConfigs(p.Table)
	if err != nil {
		return err
	}
	if _, err := cache.ParseTopology(p.Topology); err != nil {
		return err
	}
	for _, c := range cfgs {
		if c.Cores == p.Cores {
			return nil
		}
	}
	return fmt.Errorf("no %s configuration has %d cores", p.Table, p.Cores)
}

// tables returns the request's tables with the default applied.
func (r *Request) tables() []string {
	if len(r.Tables) == 0 {
		return []string{sweep.TableDefault}
	}
	return r.Tables
}

// topologies returns the request's topologies with the default applied.
func (r *Request) topologies() []string {
	if len(r.Topologies) == 0 {
		return []string{cache.Shared().String()}
	}
	return r.Topologies
}

// schedulers returns the request's schedulers with the default applied.
func (r *Request) schedulers() []string {
	if len(r.Schedulers) == 0 {
		return []string{"pdf", "ws"}
	}
	return r.Schedulers
}

// Size returns the number of points the request names without expanding
// it: exactly len(ExpandPoints()) whenever the expansion succeeds, so a
// service can hold a request to its job limit before building a single
// job.  A grid multiplies its axes: a few hundred bytes of repeated values
// name millions of points, and a few megabytes more than an int holds, so
// Size saturates at math.MaxInt, which still compares over any limit.
func (r *Request) Size() int {
	if len(r.Points) > 0 {
		return len(r.Points)
	}
	matching := make(map[string]int) // table -> configurations under Cores
	configs := 0
	for _, tbl := range r.tables() {
		n, seen := matching[tbl]
		if !seen {
			cfgs, _ := sweep.TableConfigs(tbl)
			for _, c := range cfgs {
				if r.wantCores(c.Cores) {
					n++
				}
			}
			matching[tbl] = n
		}
		configs += n
	}
	schedulers := len(r.schedulers())
	if r.Sequential {
		schedulers++
	}
	size := len(r.Workloads)
	for _, f := range []int{configs, len(r.topologies()), schedulers} {
		if f != 0 && size > math.MaxInt/f {
			return math.MaxInt
		}
		size *= f
	}
	return size
}

// wantCores reports whether the Cores filter admits a configuration with
// the given core count.
func (r *Request) wantCores(cores int) bool {
	if len(r.Cores) == 0 {
		return true
	}
	for _, want := range r.Cores {
		if want == cores {
			return true
		}
	}
	return false
}

// ExpandPoints flattens the request into its explicit point list in the
// canonical job order — the exact nesting sweep.Spec.Jobs uses (workloads,
// then tables, then topologies, then the table's core counts, then the
// sequential baseline followed by the schedulers) — so a client can shard a
// grid across service instances and still merge rows back into the same
// deterministic order a single submission would stream.  A points request
// returns its points, canonicalised, unchanged in order.
func (r *Request) ExpandPoints() ([]Point, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if len(r.Points) > 0 {
		out := make([]Point, len(r.Points))
		for i, p := range r.Points {
			out[i] = p.canonical()
		}
		return out, nil
	}
	var out []Point
	for _, wl := range r.Workloads {
		for _, tbl := range r.tables() {
			cfgs, err := sweep.TableConfigs(tbl)
			if err != nil {
				return nil, err
			}
			matched := false
			for _, topo := range r.topologies() {
				for _, base := range cfgs {
					if !r.wantCores(base.Cores) {
						continue
					}
					matched = true
					if r.Sequential {
						out = append(out, Point{Workload: wl, Scheduler: sweep.Sequential, Table: tbl, Topology: topo, Cores: base.Cores}.canonical())
					}
					for _, sc := range r.schedulers() {
						out = append(out, Point{Workload: wl, Scheduler: sc, Table: tbl, Topology: topo, Cores: base.Cores}.canonical())
					}
				}
			}
			if !matched {
				return nil, fmt.Errorf("sweepsvc: no %s configuration matches cores %v", tbl, r.Cores)
			}
		}
	}
	return out, nil
}

// Jobs expands the request into its sweep job list.  Jobs are built through
// the experiment harness's workload factory at the request's Scale/Quick —
// the same parameterisation cmd/sweep applies — so wire-submitted points
// carry keys identical to CLI-run points and the two share cache entries.
func (r *Request) Jobs() ([]sweep.Job, error) {
	points, err := r.ExpandPoints()
	if err != nil {
		return nil, err
	}
	factory := experiments.Options{Scale: r.Scale, Quick: r.Quick}.WorkloadFactory()
	scale := sweep.Spec{Scale: r.Scale, Quick: r.Quick}.EffectiveScale()
	jobs := make([]sweep.Job, 0, len(points))
	for _, p := range points {
		p = p.canonical()
		cfgs, err := sweep.TableConfigs(p.Table)
		if err != nil {
			return nil, err
		}
		var base *config.CMP
		for i := range cfgs {
			if cfgs[i].Cores == p.Cores {
				base = &cfgs[i]
				break
			}
		}
		if base == nil {
			return nil, fmt.Errorf("sweepsvc: no %s configuration has %d cores", p.Table, p.Cores)
		}
		topo, err := cache.ParseTopology(p.Topology)
		if err != nil {
			return nil, fmt.Errorf("sweepsvc: %w", err)
		}
		cfg := base.Scaled(scale).WithTopology(topo)
		build, params, err := factory(p.Workload, cfg)
		if err != nil {
			return nil, fmt.Errorf("sweepsvc: %s on %s: %w", p.Workload, cfg.Name, err)
		}
		jobs = append(jobs, sweep.NewJob(p.Workload, params, p.Scheduler, cfg, build))
	}
	return jobs, nil
}
