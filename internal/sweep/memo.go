package sweep

import (
	"fmt"
	"slices"
	"sync"

	"cmpsched/internal/dag"
)

// A sweep's job list is typically a grid: the same (workload, parameters)
// pair appears once per scheduler and once per machine configuration, and
// building the DAG — emitting and recording every task's reference stream —
// dominated the cost of the uncached jobs.  The engine therefore memoises
// DAGs as templates: the first job to need a pair builds it once, and every
// job — the first included — simulates that one DAG.  A DAG never changes
// after its build and a simulation only reads it, so results are
// byte-identical to per-job rebuilding at any worker count.
//
// A template is the only scope in which the engine shares recorded streams,
// and it lives only while a queued or running job refers to it (release):
// its DAG is freed when the last of its jobs leaves, so the templates held
// are bounded by the jobs in the pool.  A later job of the same pair builds
// the DAG again.
//
// Memoisation is keyed by the job Key's Workload and Params fields — exactly
// the inputs BuildFunc is required to be a pure function of.  The machine
// configuration is not part of the key: a builder that shapes its DAG to the
// machine (e.g. Hash Join's L2-sized partitions, cache-size-driven
// coarsening) folds what it reads from the configuration into Params.
//
// A grid lists each template's jobs back to back, so handing jobs out in
// queue order would send a free worker straight to the job after a
// template's first one, to wait while another worker builds the DAG.  The
// engine's pool dispatches around such builds instead (see next and claim):
// no worker ever waits on a build, and a job held back for one waits in the
// queue.  A job claims its template's build only once it has missed the
// result cache, so the cache lookups of one template's jobs run in parallel.

// templateEntry is one memoised DAG, and the pool's dispatch state for it.
// The sync.Once gives the entry single-flight semantics: however jobs reach
// it, Build runs once.
type templateEntry struct {
	once sync.Once
	d    *dag.DAG
	err  error

	// Guarded by the engine's mutex.  A template is claimed by the job that
	// builds it, and built once that build has finished, with or without an
	// error.  refs counts the queued and running jobs that refer to the
	// entry, which is forgotten when the last of them leaves (release).
	claimed, built bool
	refs           int
}

// templateKey is the content address of a job's DAG template.
func templateKey(k Key) string {
	return k.Workload + "\x00" + k.Params
}

// template returns the job's DAG, building it on first need.
// A build error is memoised too, so every job sharing the template reports
// the same deterministic error.  So is a panic in the build: sync.Once
// counts a panicking call as done, and without the recover every later job
// of the template would find neither a DAG nor an error.
func (e *Engine) template(ent *templateEntry, build BuildFunc) (*dag.DAG, error) {
	builder := false
	ent.once.Do(func() {
		builder = true
		defer e.markBuilt(ent)
		defer func() {
			if p := recover(); p != nil {
				ent.err = fmt.Errorf("build panicked: %v", p)
			}
		}()
		d, err := build()
		if err != nil {
			ent.err = err
			return
		}
		// Template builds are once-per-key, so the counters are independent
		// of worker count and completion order; the counter is atomic, so
		// concurrent first-builders of different keys never race.
		e.em.dagBuilds.Add(1)
		ent.d = d
	})
	if ent.err != nil {
		return nil, fmt.Errorf("build: %w", ent.err)
	}
	// Every job of the template but its builder is served from the memo,
	// which makes jobs - builds a deterministic rebuild-avoided count.
	if !builder {
		e.em.dagShared.Add(1)
	}
	return ent.d, nil
}

// markBuilt records that ent's build has finished, with or without an
// error, so the jobs held back for it may start.
func (e *Engine) markBuilt(ent *templateEntry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ent.built = true
	e.spawnLocked()
}

// next removes and returns the first queued task whose template no job is
// building, or nil when every queued task waits on a build; the caller holds
// e.mu.
func (e *Engine) next() *task {
	for k, t := range e.queue {
		if t.ent.built || !t.ent.claimed {
			e.queue = slices.Delete(e.queue, k, k+1)
			return t
		}
	}
	return nil
}

// release drops a finished or dropped task's reference to its template
// entry, and forgets the entry, built or not, when no other queued or
// running job refers to it; the caller holds e.mu.
func (e *Engine) release(t *task) {
	if t.ent.refs--; t.ent.refs == 0 {
		delete(e.templates, templateKey(t.job.Key))
	}
}

// claim reports whether a job that missed the result cache may enter its
// template now: the template is built, or no job is building it and the
// caller claims the build.  A job that may not goes back to the queue, so no
// worker waits in a build's once.
func (e *Engine) claim(ent *templateEntry) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ent.claimed && !ent.built {
		return false
	}
	ent.claimed = true
	return true
}
