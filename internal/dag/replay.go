package dag

import "cmpsched/internal/refs"

// Snapshot is a DAG whose task streams are adopted into a shared trace
// store, ready to hand to any number of simulations.
type Snapshot struct{ d *DAG }

// Record adopts every task stream of d into store and rebinds each task to
// the store's recording of its stream (the same content, so d simulates
// exactly as before): DAGs recorded into one store share every identical
// arena, and the store's Stats count what they share.  Record is the last
// step of a build: it must not run while d is simulated.
func Record(d *DAG, store *refs.TraceStore) *Snapshot {
	for _, t := range d.tasks {
		t.Refs = store.Adopt(t.Refs)
	}
	return &Snapshot{d: d}
}

// Instantiate returns the recorded DAG.  A DAG never changes after its
// build, so every caller may simulate it concurrently.
func (s *Snapshot) Instantiate() *DAG { return s.d }
