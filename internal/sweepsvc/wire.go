package sweepsvc

import (
	"encoding/json"
	"fmt"
	"io"

	"cmpsched/internal/experiments"
	"cmpsched/internal/sweep"
)

// Request is the wire encoding of one submission: either a declarative grid
// (the cross product of the axis fields, a sweep.Spec) or an explicit
// Points list.  Scale and Quick apply to both forms.
//
// The encoding is strict by design: unknown JSON fields are rejected at
// decode, and axis values are validated against the live workload/scheduler
// registries before any job is admitted.  Validation, sizing, expansion and
// job construction are sweep.Spec's, with the workload factory cmd/sweep
// uses — so a grid submitted over the wire produces byte-identical
// sweep.Keys (and hence shares cache entries) with the same grid run on the
// CLI.
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

// Point is one explicit design-space point of a points request.
type Point = sweep.Point

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

// spec is the sweep.Spec the request names, building workloads through
// the experiment harness's factory at the request's Scale and Quick, the
// parameterisation cmd/sweep applies.  A points request names no axes: its
// spec carries only the scale and the factory.
func (r *Request) spec() sweep.Spec {
	return sweep.Spec{
		Workloads:  r.Workloads,
		Schedulers: r.Schedulers,
		Tables:     r.Tables,
		Topologies: r.Topologies,
		Cores:      r.Cores,
		Scale:      r.Scale,
		Quick:      r.Quick,
		Sequential: r.Sequential,
		Factory:    experiments.Options{Scale: r.Scale, Quick: r.Quick}.WorkloadFactory(),
	}
}

// Validate checks the request's form — a grid with workloads, or points
// without grid axes — and then every value it names (sweep.Point.Validate,
// sweep.Spec.Validate), returning the first error so clients get a
// deterministic diagnosis.
func (r *Request) Validate() error {
	if len(r.Points) > 0 {
		if len(r.Workloads) > 0 || len(r.Schedulers) > 0 || len(r.Tables) > 0 ||
			len(r.Topologies) > 0 || len(r.Cores) > 0 || r.Sequential {
			return fmt.Errorf("sweepsvc: request mixes points with grid axis fields")
		}
		for i, p := range r.Points {
			if err := p.Validate(); err != nil {
				return fmt.Errorf("sweepsvc: point %d: %w", i, err)
			}
		}
	} else if len(r.Workloads) == 0 {
		return fmt.Errorf("sweepsvc: request has no workloads and no points")
	}
	return r.spec().Validate()
}

// Size returns the number of points the request names without expanding
// it (sweep.Spec.Size for a grid), so a service can hold a request to its
// job limit before building a single job.
func (r *Request) Size() int {
	if len(r.Points) > 0 {
		return len(r.Points)
	}
	return r.spec().Size()
}

// ExpandPoints flattens the request into its explicit point list: a grid in
// sweep.Spec.Points's canonical order, so a client can shard it across
// service instances and still merge rows back into the deterministic order
// a single submission would stream; a points request as its points,
// canonicalised, unchanged in order.
func (r *Request) ExpandPoints() ([]Point, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if len(r.Points) == 0 {
		return r.spec().Points()
	}
	out := make([]Point, len(r.Points))
	for i, p := range r.Points {
		out[i] = p.Canonical()
	}
	return out, nil
}

// Jobs expands the request into its sweep job list through
// sweep.Spec.JobsFor, so wire-submitted points carry keys identical to
// CLI-run points and the two share cache entries.
func (r *Request) Jobs() ([]sweep.Job, error) {
	points, err := r.ExpandPoints()
	if err != nil {
		return nil, err
	}
	return r.spec().JobsFor(points)
}
