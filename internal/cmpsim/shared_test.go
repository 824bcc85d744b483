package cmpsim_test

import (
	"reflect"
	"sync"
	"testing"

	"cmpsched/internal/cache"
	"cmpsched/internal/cmpsim"
	"cmpsched/internal/config"
	"cmpsched/internal/sched"
	"cmpsched/internal/workload"
)

// TestSharedDAGConcurrentRuns pins the contract that lets the sweep engine
// hand one DAG to every job of a template: a run only reads its DAG.  Four
// runs of one DAG at once — pdf, ws and ws:nearest, and sb, which also
// profiles the DAG in Reset — must each equal the same scheduler's serial
// run, on a shared and a clustered L2.
func TestSharedDAGConcurrentRuns(t *testing.T) {
	d, _, err := workload.NewMergesort(workload.MergesortConfig{Elements: 32 << 10, TaskWorkingSetBytes: 4 << 10}).Build()
	if err != nil {
		t.Fatal(err)
	}
	schedulers := []string{"pdf", "ws", "ws:nearest", "sb"}
	for _, topo := range []cache.Topology{cache.Shared(), cache.Clustered(4)} {
		cfg := config.MustDefault(8).Scaled(config.DefaultScale * 8).WithTopology(topo)
		run := func(name string) (*cmpsim.Result, error) {
			s, err := sched.New(name)
			if err != nil {
				return nil, err
			}
			return cmpsim.Run(d, s, cfg)
		}
		serial := make([]*cmpsim.Result, len(schedulers))
		for i, name := range schedulers {
			if serial[i], err = run(name); err != nil {
				t.Fatalf("%s/%s serial: %v", topo, name, err)
			}
		}
		concurrent := make([]*cmpsim.Result, len(schedulers))
		errs := make([]error, len(schedulers))
		var wg sync.WaitGroup
		for i, name := range schedulers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				concurrent[i], errs[i] = run(name)
			}()
		}
		wg.Wait()
		for i, name := range schedulers {
			if errs[i] != nil {
				t.Errorf("%s/%s concurrent: %v", topo, name, errs[i])
			} else if !reflect.DeepEqual(concurrent[i], serial[i]) {
				t.Errorf("%s/%s: the run sharing the DAG differs from the serial run", topo, name)
			}
		}
	}
}
