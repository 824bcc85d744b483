package sweepsvc

import (
	"strings"
	"testing"

	"cmpsched/internal/experiments"
	"cmpsched/internal/sweep"
)

// TestWireJobsMatchSpecJobs is the canonicalization keystone: a wire grid
// expands to exactly the job keys — same order, same hashes — that
// sweep.Spec produces for cmd/sweep, so wire submissions share cache
// entries with CLI runs.
func TestWireJobsMatchSpecJobs(t *testing.T) {
	req := &Request{
		Workloads:  []string{"mergesort", "hashjoin"},
		Schedulers: []string{"pdf", "ws"},
		Tables:     []string{"default", "45nm"},
		Topologies: []string{"shared", "private"},
		Cores:      []int{2, 8},
		Quick:      true,
		Sequential: true,
	}
	wireJobs, err := req.Jobs()
	if err != nil {
		t.Fatalf("wire Jobs: %v", err)
	}
	spec := sweep.Spec{
		Workloads:  req.Workloads,
		Schedulers: req.Schedulers,
		Tables:     req.Tables,
		Topologies: req.Topologies,
		Cores:      req.Cores,
		Quick:      true,
		Sequential: true,
		Factory:    experiments.Options{Quick: true}.WorkloadFactory(),
	}
	specJobs, err := spec.Jobs()
	if err != nil {
		t.Fatalf("spec Jobs: %v", err)
	}
	if len(wireJobs) != len(specJobs) {
		t.Fatalf("wire expands to %d jobs, spec to %d", len(wireJobs), len(specJobs))
	}
	for i := range wireJobs {
		if wireJobs[i].Key != specJobs[i].Key {
			t.Errorf("job %d: wire key %+v != spec key %+v", i, wireJobs[i].Key, specJobs[i].Key)
		}
		if wireJobs[i].Key.Hash() != specJobs[i].Key.Hash() {
			t.Errorf("job %d: hash mismatch", i)
		}
	}
}

// TestPointShardingPreservesKeys pins the property sweepctl's fan-out rests
// on: expanding a grid to points and submitting each point individually
// yields the same keys in the same positions as submitting the whole grid.
func TestPointShardingPreservesKeys(t *testing.T) {
	req := &Request{
		Workloads:  []string{"mergesort"},
		Schedulers: []string{"pdf", "ws"},
		Topologies: []string{"shared", "clustered:4"},
		Cores:      []int{2, 8},
		Quick:      true,
		Sequential: true,
	}
	full, err := req.Jobs()
	if err != nil {
		t.Fatalf("full Jobs: %v", err)
	}
	points, err := req.ExpandPoints()
	if err != nil {
		t.Fatalf("ExpandPoints: %v", err)
	}
	if len(points) != len(full) {
		t.Fatalf("%d points for %d jobs", len(points), len(full))
	}
	for i, p := range points {
		shard := &Request{Points: []Point{p}, Quick: true}
		jobs, err := shard.Jobs()
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		if len(jobs) != 1 || jobs[0].Key != full[i].Key {
			t.Errorf("point %d expands to key %+v, want %+v", i, jobs[0].Key, full[i].Key)
		}
	}
}

// TestDecodeRequestStrict: unknown fields and trailing data are rejected.
func TestDecodeRequestStrict(t *testing.T) {
	if _, err := DecodeRequest(strings.NewReader(`{"workloads":["mergesort"],"shedulers":["pdf"]}`)); err == nil {
		t.Errorf("misspelled field must be rejected")
	}
	if _, err := DecodeRequest(strings.NewReader(`{"workloads":["mergesort"]} {"x":1}`)); err == nil {
		t.Errorf("trailing data must be rejected")
	}
	req, err := DecodeRequest(strings.NewReader(`{"workloads":["mergesort"],"quick":true}`))
	if err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	if !req.Quick || len(req.Workloads) != 1 {
		t.Errorf("decoded request = %+v", req)
	}
}

// TestValidateRejections walks every axis's failure mode.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		want string
	}{
		{"no workloads", Request{}, "no workloads"},
		{"unknown workload", Request{Workloads: []string{"nope"}}, "nope"},
		{"unknown scheduler", Request{Workloads: []string{"mergesort"}, Schedulers: []string{"nope"}}, "nope"},
		{"unknown table", Request{Workloads: []string{"mergesort"}, Tables: []string{"90nm"}}, "90nm"},
		{"bad topology", Request{Workloads: []string{"mergesort"}, Topologies: []string{"toroidal"}}, "toroidal"},
		{"negative scale", Request{Workloads: []string{"mergesort"}, Scale: -1}, "scale"},
		{"points plus grid", Request{Workloads: []string{"mergesort"}, Points: []Point{{Workload: "mergesort", Scheduler: "pdf", Cores: 2}}}, "mixes"},
		{"point unknown workload", Request{Points: []Point{{Workload: "nope", Scheduler: "pdf", Cores: 2}}}, "nope"},
		{"point bad cores", Request{Points: []Point{{Workload: "mergesort", Scheduler: "pdf", Cores: 3}}}, "3 cores"},
		{"point negative scale", Request{Points: []Point{{Workload: "mergesort", Scheduler: "pdf", Cores: 2}}, Scale: -1}, "scale"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.req.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", tc.req)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestValidateAccepts covers the valid shapes, including the sequential
// pseudo-scheduler and parameterised scheduler spellings.
func TestValidateAccepts(t *testing.T) {
	ok := []Request{
		{Workloads: []string{"mergesort"}},
		{Workloads: []string{"bfs"}, Schedulers: []string{"seq", "ws:nearest", "sb"}},
		{Points: []Point{{Workload: "mergesort", Scheduler: "seq", Cores: 2}}},
		{Points: []Point{{Workload: "mergesort", Scheduler: "pdf", Table: "45nm", Topology: "clustered:2", Cores: 8}}},
	}
	for i, req := range ok {
		if err := req.Validate(); err != nil {
			t.Errorf("request %d rejected: %v", i, err)
		}
	}
}
