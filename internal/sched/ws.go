package sched

import (
	"fmt"

	"cmpsched/internal/dag"
	"cmpsched/internal/obs"
)

// StealPolicy selects how an idle WS core picks its steal victim.
type StealPolicy int

const (
	// StealNearest steals from the nearest non-empty deque: cores sharing
	// the thief's L2 slice first, then slices by increasing distance.  A
	// steal within the slice keeps the stolen task's data in the cache it
	// already warmed; under the shared and private topologies the victim
	// order degenerates to the forward scan of "ws".
	StealNearest StealPolicy = iota
	// StealOldest steals the globally oldest ready task: the deque bottom
	// with the smallest sequential position across all victims.  Old tasks
	// are the fork-tree's biggest pieces of work and the least likely to
	// share cache state with their victim's current task, making them the
	// classic low-contention choice.
	StealOldest
	// stealForward steals from the first non-empty deque scanning forward
	// from the thief: the paper's baseline, "ws".  It ignores the machine.
	stealForward
)

// String returns the policy's canonical suffix ("nearest", "oldest").
func (p StealPolicy) String() string {
	switch p {
	case StealNearest:
		return "nearest"
	case StealOldest:
		return "oldest"
	default:
		return fmt.Sprintf("StealPolicy(%d)", int(p))
	}
}

// WS is the Work Stealing scheduler [Blumofe & Leiserson].  Each core owns a
// double-ended work queue: tasks forked by work running on the core are
// pushed on top of its local deque, the core pops from the top (LIFO, good
// locality), and an idle core steals from the bottom (the oldest work) of a
// victim's deque.  The three registered names differ only in the victim
// order:
//
//   - "ws" (NewWS) scans forward from the thief and takes the first
//     non-empty deque.
//   - "ws:nearest" (StealNearest) tries the thief's slice mates first, then
//     slices by increasing distance.
//   - "ws:oldest" (StealOldest) takes the globally oldest deque bottom.
//
// StealNearest needs the core-to-slice map, which the simulator supplies
// through SetMachine (without one, every core lands in a single slice and
// the order matches the forward scan).
type WS struct {
	d      *dag.DAG
	policy StealPolicy
	raw    Machine // as given by SetMachine; normalised into m by Reset
	m      Machine
	deques []deque
	// victims[t] is the precomputed deterministic victim scan order for
	// thief t under StealNearest.
	victims [][]int

	local      int64
	steals     int64
	nearSteals int64
	farSteals  int64
	tr         *obs.Tracer // steal-event sink; nil when tracing is off
}

// NewWS returns the paper's Work Stealing scheduler, "ws".
func NewWS() *WS { return &WS{policy: stealForward} }

// NewLocalityWS returns a Work Stealing scheduler with the given steal
// policy.  Out-of-range policy values fall back to StealNearest, so the
// scheduler's Name is always a canonical registry spelling.
func NewLocalityWS(policy StealPolicy) *WS {
	if policy != StealNearest && policy != StealOldest {
		policy = StealNearest
	}
	return &WS{policy: policy}
}

// Name implements Scheduler; it returns the canonical registry spelling
// ("ws", "ws:nearest", "ws:oldest"), which is what flows into sweep keys.
func (w *WS) Name() string {
	if w.policy == stealForward {
		return "ws"
	}
	return "ws:" + w.policy.String()
}

// SetMachine implements MachineAware.
func (w *WS) SetMachine(m Machine) { w.raw = m }

// Reset implements Scheduler.
func (w *WS) Reset(d *dag.DAG, cores int) {
	w.d = d
	if cap(w.deques) >= cores {
		w.deques = w.deques[:cores]
		for i := range w.deques {
			w.deques[i].reset()
		}
	} else {
		w.deques = make([]deque, cores)
	}
	w.local, w.steals, w.nearSteals, w.farSteals = 0, 0, 0, 0
	if w.policy == StealNearest {
		w.m = w.raw.forCores(cores)
		w.victims = nearestVictims(w.m)
	}
}

// nearestVictims builds, for every thief, the victim order "own slice
// forward scan, then slices by increasing distance, cores ascending within
// each".  The order is a pure function of the machine, so it is computed
// once per Reset.
func nearestVictims(m Machine) [][]int {
	sliceCores := m.coresBySlice()
	victims := make([][]int, m.Cores)
	for t := 0; t < m.Cores; t++ {
		order := make([]int, 0, m.Cores-1)
		home := m.SliceOf(t)
		mates := sliceCores[home]
		pos := 0
		for i, c := range mates {
			if c == t {
				pos = i
				break
			}
		}
		for i := 1; i < len(mates); i++ {
			order = append(order, mates[(pos+i)%len(mates)])
		}
		for dist := 1; dist < m.Slices; dist++ {
			order = append(order, sliceCores[(home+dist)%m.Slices]...)
		}
		victims[t] = order
	}
	return victims
}

// MakeReady implements Scheduler.
//
// Tasks enabled by a completion on core c are pushed onto c's deque in
// sequential order, so the most recently forked work sits on top (run next
// locally) and the earliest forked work sits at the bottom (stolen first),
// matching the classic work-first deque discipline. Initial roots (core -1)
// are seeded onto core 0, where the sequential program would begin.
func (w *WS) MakeReady(core int, tasks []dag.TaskID) {
	if core < 0 {
		core = 0
	}
	if core >= len(w.deques) {
		core = core % len(w.deques)
	}
	for _, id := range tasks {
		w.deques[core].pushTop(id)
	}
}

// Next implements Scheduler.
func (w *WS) Next(core int) (dag.TaskID, bool) {
	if core < 0 || core >= len(w.deques) {
		return dag.None, false
	}
	if id, ok := w.deques[core].popTop(); ok {
		w.local++
		return id, true
	}
	victim := w.victim(core)
	if victim < 0 {
		return dag.None, false
	}
	id, _ := w.deques[victim].popBottom()
	w.steals++
	w.tr.Steal(int32(id), int32(core), int32(victim))
	if w.policy == StealNearest {
		if w.m.SliceOf(victim) == w.m.SliceOf(core) {
			w.nearSteals++
		} else {
			w.farSteals++
		}
	}
	return id, true
}

// victim returns the core whose deque bottom thief steals under the policy,
// or -1 when every other deque is empty.  StealOldest breaks ties between
// equal sequential positions by lower core index, so every order is
// deterministic.
func (w *WS) victim(thief int) int {
	switch w.policy {
	case stealForward:
		for i := 1; i < len(w.deques); i++ {
			if v := (thief + i) % len(w.deques); w.deques[v].len() > 0 {
				return v
			}
		}
	case StealNearest:
		for _, v := range w.victims[thief] {
			if w.deques[v].len() > 0 {
				return v
			}
		}
	case StealOldest:
		victim, bestSeq := -1, 0
		for c := range w.deques {
			if c == thief {
				continue
			}
			id, ok := w.deques[c].peekBottom()
			if !ok {
				continue
			}
			if seq := w.d.Task(id).Seq; victim < 0 || seq < bestSeq {
				victim, bestSeq = c, seq
			}
		}
		return victim
	}
	return -1
}

// Pending implements Scheduler.
func (w *WS) Pending() int {
	total := 0
	for i := range w.deques {
		total += w.deques[i].len()
	}
	return total
}

// Metrics implements Scheduler: "steals" and "local" under every policy,
// plus "near_steals" and "far_steals" (steals within and across the thief's
// L2 slice) under StealNearest.
func (w *WS) Metrics() map[string]int64 {
	m := map[string]int64{"steals": w.steals, "local": w.local}
	if w.policy == StealNearest {
		m["near_steals"] = w.nearSteals
		m["far_steals"] = w.farSteals
	}
	return m
}

func init() {
	Register("ws", func() Scheduler { return NewWS() })
	Register("ws:nearest", func() Scheduler { return NewLocalityWS(StealNearest) })
	Register("ws:oldest", func() Scheduler { return NewLocalityWS(StealOldest) })
}
