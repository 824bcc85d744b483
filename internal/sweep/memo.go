package sweep

import (
	"fmt"
	"sync"

	"cmpsched/internal/dag"
)

// A sweep's job list is typically a grid: the same (workload, parameters,
// machine configuration) triple appears once per scheduler, and building the
// DAG — emitting every task's reference stream — dominated the cost of the
// uncached jobs.  The engine therefore memoises DAGs as templates: the first
// job to need a triple builds it once and records it into the engine's
// shared content-addressed trace store (dag.Record), and every job — the
// first included — simulates that one DAG.  A DAG never changes after its
// build and a simulation only reads it, so results are byte-identical to
// per-job rebuilding at any worker count.
//
// Memoisation is keyed by the job Key's Workload, Params and Config fields —
// exactly the inputs BuildFunc is required to be a pure function of.  The
// machine configuration is part of the key because some builders shape the
// DAG to the machine (e.g. cache-size-driven coarsening).

// templateEntry is one memoised DAG.  The sync.Once gives the entry
// single-flight semantics: under the parallel engine, concurrent jobs that
// need the same template block on the first builder instead of building
// redundantly.
type templateEntry struct {
	once sync.Once
	d    *dag.DAG
	err  error
}

// templateKey is the content address of a job's DAG template.
func templateKey(k Key) string {
	return k.Workload + "\x00" + k.Params + "\x00" + k.Config
}

// template returns the job's DAG, building and recording it on first need.
// A build error is memoised too, so every job sharing the template reports
// the same deterministic error.
func (e *Engine) template(j Job) (*dag.DAG, error) {
	key := templateKey(j.Key)
	e.templMu.Lock()
	ent, ok := e.templates[key]
	if !ok {
		ent = &templateEntry{}
		e.templates[key] = ent
	}
	e.templMu.Unlock()
	ent.once.Do(func() {
		d, err := j.Build()
		if err != nil {
			ent.err = err
			return
		}
		// Template builds are once-per-key, so the counters are independent
		// of worker count and completion order; shard 0's cell is atomic, so
		// concurrent first-builders of different keys never race.
		e.em.dagBuilds.Add(0, 1)
		dag.Record(d, e.traces)
		ent.d = d
	})
	if ent.err != nil {
		return nil, fmt.Errorf("build: %w", ent.err)
	}
	// Not necessarily the builder (another job may have interleaved), but
	// exactly one job observes the map miss per key, which is what makes
	// jobs - builds a deterministic rebuild-avoided count.
	if ok {
		e.em.dagShared.Add(0, 1)
	}
	return ent.d, nil
}

// publishTraceStats exposes the shared trace store's interning counters as
// gauges.  Called when a stream finishes; the values are cumulative over the
// engine's lifetime and deterministic for a given job list.
func (e *Engine) publishTraceStats() {
	st := e.traces.Stats()
	e.em.traceUnique.Set(st.Unique)
	e.em.traceInterned.Set(st.Interned)
	e.em.traceArena.Set(st.ArenaBytes)
}
