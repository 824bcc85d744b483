package sweepsvc

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cmpsched/internal/dag"
	"cmpsched/internal/sweep"
)

// TestServiceMemoryIsBounded soaks one service with no result cache: two
// concurrent submitters stream many distinct, overlapping tiny grids.  The
// live heap after each round must stay under a ceiling set from the warm-up
// rounds, and at the end the service must hold no sweep or flight and no
// DAG template may be reachable.
func TestServiceMemoryIsBounded(t *testing.T) {
	const warmup, rounds = 5, 100
	svc := NewService(Options{Workers: 2})
	defer svc.Drain(context.Background())
	cfg := testCfg(t)

	var built, freed atomic.Int64
	build := func() (*dag.DAG, error) {
		d, err := buildTinyDAG()
		if err == nil {
			built.Add(1)
			runtime.AddCleanup(d, func(struct{}) { freed.Add(1) }, struct{}{})
		}
		return d, err
	}
	// Client c of round r submits templates 2r+c and 2r+c+1 under pdf and
	// ws: the two clients share one template, and each round's templates
	// are new but for the one it shares with the round before.
	grid := func(r, c int) []sweep.Job {
		var jobs []sweep.Job
		for tmpl := 2*r + c; tmpl <= 2*r+c+1; tmpl++ {
			for _, s := range []string{"pdf", "ws"} {
				jobs = append(jobs, sweep.NewJob("soak", fmt.Sprintf("t%d", tmpl), s, cfg, build))
			}
		}
		return jobs
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	var ceiling uint64
	for r := range warmup + rounds {
		var wg sync.WaitGroup
		for c := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sw, err := svc.Submit(grid(r, c))
				if err != nil {
					t.Errorf("round %d client %d: %v", r, c, err)
					return
				}
				if results, term := collect(t, sw); len(results) != 4 || term.Type != EventDone {
					t.Errorf("round %d client %d: %d rows, terminal %q", r, c, len(results), term.Type)
				}
			}()
		}
		wg.Wait()
		heap := liveHeap()
		if r < warmup {
			// Half again over the warm-up peak leaves room for the
			// runtime's own drift; a DAG kept per template would cross it
			// within a few rounds.
			ceiling = max(ceiling, heap+heap/2)
			continue
		}
		if heap > ceiling {
			t.Fatalf("round %d: live heap %d B exceeds the warm-up ceiling %d B", r, heap, ceiling)
		}
	}

	if ids := svc.ActiveSweeps(); len(ids) != 0 {
		t.Errorf("service still holds sweeps %v", ids)
	}
	svc.mu.Lock()
	flights := len(svc.flights)
	svc.mu.Unlock()
	if flights != 0 {
		t.Errorf("service still holds %d flights", flights)
	}
	// A DAG's cleanup runs on the runtime's cleanup goroutine after the
	// collection that frees it.
	for deadline := time.Now().Add(5 * time.Second); freed.Load() < built.Load() && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := built.Load() - freed.Load(); n != 0 {
		t.Fatalf("%d of %d DAGs are still reachable after the soak", n, built.Load())
	}
}
