package sweepsvc

import (
	"strings"
	"testing"
	"time"

	"cmpsched/internal/dag"
	"cmpsched/internal/sweep"
	"cmpsched/internal/workload"
)

// TestPanickingJobBecomesFailedRow: a job that panics inside its build must
// come back as that job's error event while the daemon — runners included —
// keeps serving everything else.
func TestPanickingJobBecomesFailedRow(t *testing.T) {
	mk := newJobMaker()
	svc := NewService(Options{Workers: 1})

	bad := sweep.NewJob("svc-test", "panicky", "pdf", testCfg(t), func() (*dag.DAG, error) {
		panic("workload bug")
	})
	sw, err := svc.Submit([]sweep.Job{mk.job(t, "ok-before", nil, nil), bad, mk.job(t, "ok-after", nil, nil)})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	results, terminal := collect(t, sw)
	if terminal.Type != EventDone {
		t.Fatalf("terminal = %+v, want done", terminal)
	}
	var failed, completed int
	for _, ev := range results {
		if ev.Err != "" {
			failed++
			if !strings.Contains(ev.Err, "build panicked: workload bug") {
				t.Fatalf("failed row error = %q, want the recovered panic", ev.Err)
			}
		} else {
			completed++
		}
	}
	if failed != 1 || completed != 2 {
		t.Fatalf("failed=%d completed=%d, want 1 failed and 2 completed", failed, completed)
	}

	// The runner pool survived: a fresh submission still completes.
	sw2, err := svc.Submit([]sweep.Job{mk.job(t, "post-panic", nil, nil)})
	if err != nil {
		t.Fatalf("submit after panic: %v", err)
	}
	if _, terminal := collect(t, sw2); terminal.Type != EventDone {
		t.Fatalf("post-panic sweep terminal = %+v", terminal)
	}
}

// TestJobTimeoutFailsRow: a service-level JobTimeout turns a runaway
// simulation into a failed row instead of a wedged runner.
func TestJobTimeoutFailsRow(t *testing.T) {
	svc := NewService(Options{Workers: 1, JobTimeout: time.Nanosecond})
	// Big enough that the simulator reaches its cancellation poll; the tiny
	// test DAG can finish before the first poll fires.
	slow := sweep.NewJob("svc-test", "too-slow", "pdf", testCfg(t), func() (*dag.DAG, error) {
		d, _, err := workload.NewMergesort(workload.MergesortConfig{
			Elements: 64 << 10, TaskWorkingSetBytes: 4 << 10}).Build()
		return d, err
	})
	sw, err := svc.Submit([]sweep.Job{slow})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	results, terminal := collect(t, sw)
	if terminal.Type != EventDone {
		t.Fatalf("terminal = %+v, want done", terminal)
	}
	if len(results) != 1 || !strings.Contains(results[0].Err, "exceeded timeout") {
		t.Fatalf("results = %+v, want one timeout-failed row", results)
	}
}
