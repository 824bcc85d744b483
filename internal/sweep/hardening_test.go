package sweep

import (
	"errors"
	"strings"
	"testing"
	"time"

	"cmpsched/internal/cmpsim"
	"cmpsched/internal/config"
	"cmpsched/internal/dag"
)

func hardeningCfg(t *testing.T) config.CMP {
	t.Helper()
	for _, c := range config.Defaults() {
		if c.Cores == 2 {
			return c.Scaled(config.DefaultScale)
		}
	}
	t.Fatal("no 2-core default configuration")
	return config.CMP{}
}

// TestRunJobRecoversPanic: a panicking job must surface as that job's error,
// not kill the worker (and, transitively, a sweepd daemon).
func TestRunJobRecoversPanic(t *testing.T) {
	cfg := hardeningCfg(t)
	panicky := func() (*dag.DAG, error) { panic("workload bug") }
	j := NewJob("panicky", "p", "pdf", cfg, panicky)
	eng := NewEngine(EngineOptions{Workers: 1})
	_, err := eng.Run([]Job{j})
	if err == nil || !strings.Contains(err.Error(), "build panicked: workload bug") {
		t.Fatalf("err = %v, want the recovered panic", err)
	}
	// The panic is memoised as the template's error: a later job of the
	// same template on the same engine reports it too, instead of finding a
	// template with neither a DAG nor an error.
	again := NewJob("panicky", "p", "ws", cfg, panicky)
	if _, err := eng.Run([]Job{again}); err == nil || !strings.Contains(err.Error(), "build panicked: workload bug") {
		t.Fatalf("second job of the panicked template: err = %v, want the memoised panic", err)
	}

	// A panic outside the build (here in a derivation) fails its job too.
	build, params, err := testFactory("mergesort", cfg)
	if err != nil {
		t.Fatal(err)
	}
	good := NewJob("mergesort", params, "pdf", cfg, build)
	bad := good.WithDerive("panicky", func(*dag.DAG, *cmpsim.Result) (map[string]int64, error) { panic("derive bug") })
	if _, err := NewEngine(EngineOptions{Workers: 1}).Run([]Job{bad}); err == nil || !strings.Contains(err.Error(), "job panicked: derive bug") {
		t.Fatalf("derive err = %v, want the recovered panic", err)
	}

	// The pool path recovers too, and healthy jobs around the panicking one
	// still complete.
	results, err := NewEngine(EngineOptions{Workers: 2}).Run([]Job{good, j})
	if err == nil || !strings.Contains(err.Error(), "build panicked: workload bug") {
		t.Fatalf("pool err = %v, want the recovered panic", err)
	}
	if results[0].Sim == nil {
		t.Fatal("healthy job's result was lost to the panicking one")
	}
}

// TestJobTimeoutCancelsRunawaySimulation: with a vanishingly small
// JobTimeout every real simulation exceeds its budget and fails with a
// timeout error (wrapping cmpsim.ErrCancelled) instead of running on.
func TestJobTimeoutCancelsRunawaySimulation(t *testing.T) {
	cfg := hardeningCfg(t)
	build, params, err := testFactory("mergesort", cfg)
	if err != nil {
		t.Fatal(err)
	}
	j := NewJob("mergesort", params, "pdf", cfg, build)
	eng := NewEngine(EngineOptions{Workers: 1, JobTimeout: time.Nanosecond})
	_, err = eng.Run([]Job{j})
	if err == nil || !errors.Is(err, cmpsim.ErrCancelled) {
		t.Fatalf("err = %v, want a timeout wrapping cmpsim.ErrCancelled", err)
	}
	if !strings.Contains(err.Error(), "exceeded timeout") {
		t.Fatalf("err = %v, want the timeout phrasing", err)
	}

	// A generous timeout does not perturb results: same rows as no timeout.
	fast := NewEngine(EngineOptions{Workers: 1, JobTimeout: time.Hour})
	withTimeout, err := fast.Run([]Job{j})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewEngine(EngineOptions{Workers: 1}).Run([]Job{j})
	if err != nil {
		t.Fatal(err)
	}
	if withTimeout[0].Sim.Cycles != plain[0].Sim.Cycles {
		t.Fatalf("timeout changed the simulation: %d vs %d cycles",
			withTimeout[0].Sim.Cycles, plain[0].Sim.Cycles)
	}
}
