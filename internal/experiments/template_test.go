package experiments

import (
	"reflect"
	"testing"

	"cmpsched/internal/cache"
	"cmpsched/internal/config"
	"cmpsched/internal/dag"
	"cmpsched/internal/sweep"
	"cmpsched/internal/workload"
)

// taskContent is what a simulation reads of one task.
type taskContent struct {
	Name        string
	Seq         int
	Preds       []dag.TaskID
	Fingerprint uint64
	Tail        int64
}

// dagContent summarises a DAG by the content of every task.
func dagContent(d *dag.DAG) []taskContent {
	out := make([]taskContent, d.NumTasks())
	for i, t := range d.Tasks() {
		out[i] = taskContent{Name: t.Name, Seq: t.Seq, Preds: t.Preds, Fingerprint: t.Refs.Fingerprint(), Tail: t.Refs.Tail()}
	}
	return out
}

// TestFactoryBuildsArePureInWorkloadAndParams pins the contract the sweep
// engine's DAG templates rest on: the quick harness factory's build depends
// only on the (Workload, Params) pair of the key, never on the rest of the
// machine configuration.  For every workload, on every Table 2 and 45 nm
// configuration under three topologies, jobs whose pairs agree must build
// content-identical DAGs.
//
// The configurations are scaled as a quick sweep with Scale 1 scales them.
// At the default quick scale every L2 is small enough that Hash Join's
// L2-derived sizes clamp to one value, which would leave the one factory
// input read from the configuration untested.
func TestFactoryBuildsArePureInWorkloadAndParams(t *testing.T) {
	factory := Options{Quick: true}.WorkloadFactory()
	scale := sweep.Spec{Quick: true, Scale: 1}.EffectiveScale()
	var cfgs []config.CMP
	for _, table := range []string{sweep.TableDefault, sweep.Table45nm} {
		bases, err := sweep.TableConfigs(table)
		if err != nil {
			t.Fatal(err)
		}
		for _, topo := range []cache.Topology{cache.Shared(), cache.Clustered(4), cache.Private()} {
			for _, base := range bases {
				cfgs = append(cfgs, base.Scaled(scale).WithTopology(topo))
			}
		}
	}
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			first := make(map[string][]taskContent)
			firstCfg := make(map[string]string)
			for _, cfg := range cfgs {
				build, params, err := factory(name, cfg)
				if err != nil {
					t.Fatalf("%s: %v", cfg.Name, err)
				}
				d, err := build()
				if err != nil {
					t.Fatalf("%s: build: %v", cfg.Name, err)
				}
				got := dagContent(d)
				want, seen := first[params]
				if !seen {
					first[params], firstCfg[params] = got, cfg.Name
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("params %q build differently on %s and %s", params, firstCfg[params], cfg.Name)
				}
			}
		})
	}
}
