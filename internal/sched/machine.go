package sched

// Machine describes the cache machine a scheduler is placing tasks onto:
// the core count, the per-core L1 capacity, the per-slice L2 capacity, and
// the mapping from cores to L2 slices.  The simulator derives it from the
// CMP configuration and its cache topology and hands it to every scheduler
// that implements MachineAware before Reset, so capacity-aware schedulers
// (SpaceBounded) and topology-aware steal policies (StealNearest) see the
// same machine the caches model.
type Machine struct {
	// Cores is the number of processing cores P.
	Cores int
	// LineBytes is the cache-line size.
	LineBytes int64
	// L1Bytes is the per-core private L1 capacity.
	L1Bytes int64
	// L2SliceBytes is the capacity of one L2 slice (the whole L2 under the
	// shared topology).
	L2SliceBytes int64
	// Slices is the number of L2 slices (1 for shared, Cores for private).
	Slices int
	// SliceOfCore maps each core to the L2 slice serving it; its length is
	// Cores.  It is read-only: the simulator hands over the cache
	// hierarchy's own map.
	SliceOfCore []int
}

// singleSliceMachine returns the degenerate machine a scheduler assumes
// when no Machine was provided (e.g. when driven outside the simulator):
// every core shares one unbounded L2 slice, so capacity pinning never
// fires and slice-aware policies see a flat machine.
func singleSliceMachine(cores int) Machine {
	const unbounded = int64(1) << 62
	sliceOf := make([]int, cores)
	return Machine{
		Cores:        cores,
		LineBytes:    128,
		L1Bytes:      unbounded,
		L2SliceBytes: unbounded,
		Slices:       1,
		SliceOfCore:  sliceOf,
	}
}

// forCores adapts the machine to the core count the scheduler was Reset
// with: a zero or mismatched machine (SetMachine never called, or called
// for a different configuration) falls back to the single-slice default so
// schedulers stay usable outside the simulator.
func (m Machine) forCores(cores int) Machine {
	if m.Cores != cores || m.Slices <= 0 || len(m.SliceOfCore) != cores {
		return singleSliceMachine(cores)
	}
	return m
}

// SliceOf returns the L2 slice serving core, or 0 when out of range.
func (m Machine) SliceOf(core int) int {
	if core < 0 || core >= len(m.SliceOfCore) {
		return 0
	}
	return m.SliceOfCore[core]
}

// coresBySlice inverts SliceOfCore: element s lists the cores served by
// slice s, in ascending core order.  It is the one place the slice-pool
// structure of the capacity- and topology-aware schedulers is derived
// from the machine.
func (m Machine) coresBySlice() [][]int {
	out := make([][]int, m.Slices)
	for c := 0; c < m.Cores; c++ {
		s := m.SliceOf(c)
		out[s] = append(out[s], c)
	}
	return out
}

// MachineAware is implemented by schedulers whose placement decisions
// depend on the cache machine (capacities, slice mapping).  The simulator
// calls SetMachine once per run, before Reset; schedulers must tolerate
// never receiving a machine (Machine.forCores supplies a flat default).
type MachineAware interface {
	// SetMachine describes the machine of the upcoming run.
	SetMachine(m Machine)
}
