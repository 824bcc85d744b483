// Package sched implements the greedy thread schedulers compared in the
// paper — Work Stealing (WS) and Parallel Depth First (PDF) — plus a central
// FIFO queue used as an ablation baseline and a space-bounded scheduler that
// pins tasks to the smallest cache level or slice whose capacity fits their
// working set.  One WS type serves the paper's work stealing ("ws") and its
// locality-guided variants ("ws:nearest", "ws:oldest"): they differ only in
// the order an idle core tries its steal victims.
//
// The schedulers are driven by the CMP simulator (package cmpsim) through a
// small event interface: the simulator announces tasks that became ready
// (MakeReady) and asks for work on behalf of idle cores (Next).  All
// schedulers here are greedy: a ready task is only left unscheduled when
// every core is busy.
//
// Schedulers are constructed by canonical name through a table-driven
// registry (Register / New / Names), mirroring the workload registry: the
// table — not a hardcoded switch — decides what New accepts, and programs
// may register custom schedulers at run time.  Schedulers that want to place
// tasks by cache capacity or topology additionally implement MachineAware;
// the simulator describes the machine (core count, L1 and L2-slice
// capacities, core→slice map) before each run.  See ARCHITECTURE.md,
// "Registries".
package sched

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"cmpsched/internal/dag"
	"cmpsched/internal/minheap"
)

// Scheduler decides which ready task each idle core runs next.
//
// Implementations are deterministic and not safe for concurrent use; the
// simulator invokes them from a single goroutine.
type Scheduler interface {
	// Name returns a short identifier such as "pdf" or "ws".
	Name() string
	// Reset prepares the scheduler for a run of d on p cores, discarding
	// any state from previous runs.
	Reset(d *dag.DAG, p int)
	// MakeReady announces tasks that became ready when a task completed
	// on the given core. core is -1 for the DAG's initial roots. Tasks
	// are announced in increasing sequential order. The tasks slice is
	// only valid for the duration of the call — the simulator reuses its
	// backing storage — so implementations must copy the IDs they keep.
	MakeReady(core int, tasks []dag.TaskID)
	// Next returns the task the given idle core should run, or ok=false
	// when the scheduler has no work for it.
	Next(core int) (id dag.TaskID, ok bool)
	// Pending returns the number of ready tasks not yet handed out.
	Pending() int
	// Metrics returns scheduler-specific counters (e.g. steals).
	Metrics() map[string]int64
}

// Factory constructs a fresh scheduler instance.
type Factory func() Scheduler

// registry maps canonical scheduler names to factories.  The scheduler
// files self-register from init, so the table — not a hardcoded switch —
// decides what New accepts and what Names reports.  The mutex also admits
// late registrations (the facade exports RegisterScheduler), e.g. from a
// program that adds a custom scheduler while sweeps run on other
// goroutines.
var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

// Register adds a named scheduler factory.  Names are canonical spellings
// as they appear in sweep keys and CLI flags ("pdf", "ws:nearest", ...);
// they are matched case-insensitively by New.  Register panics on empty or
// duplicate names and nil factories: all three are programming errors in a
// scheduler file's init.
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("sched: Register requires a name and a factory")
	}
	if name != strings.ToLower(name) {
		panic(fmt.Sprintf("sched: scheduler name %q is not canonical (want lower case)", name))
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("sched: duplicate registration of %q", name))
	}
	registry[name] = f
}

// The built-in schedulers register here; WS and SpaceBounded register in
// their own files.  New schedulers only need their own Register call.
func init() {
	Register("pdf", func() Scheduler { return NewPDF() })
	Register("fifo", func() Scheduler { return NewFIFO() })
}

// New constructs a registered scheduler by canonical name ("pdf", "ws",
// "fifo", "sb", "ws:nearest", "ws:oldest", or any name added through
// Register).  Lookup is case-insensitive; the error for an unknown name
// lists every valid one.
func New(name string) (Scheduler, error) {
	canonical := strings.ToLower(name)
	registryMu.RLock()
	f, ok := registry[canonical]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("sched: unknown scheduler %q (want one of %s)", name, strings.Join(Names(), ", "))
	}
	return f(), nil
}

// Names lists the registered scheduler names in sorted order.
func Names() []string {
	registryMu.RLock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	registryMu.RUnlock()
	sort.Strings(names)
	return names
}

// ---------------------------------------------------------------------------
// Parallel Depth First (PDF)
// ---------------------------------------------------------------------------

// PDF is the Parallel Depth First scheduler [Blelloch, Gibbons & Matias;
// Blelloch & Gibbons SPAA'04].  When a core completes a task it is assigned
// the ready task that the sequential program would have executed earliest,
// so concurrently scheduled tasks track the sequential schedule and share
// its working set.
type PDF struct {
	d        *dag.DAG
	ready    minheap.Heap[seqItem]
	assigned int64
}

// NewPDF returns a PDF scheduler.
func NewPDF() *PDF { return &PDF{} }

// Name implements Scheduler.
func (*PDF) Name() string { return "pdf" }

// Reset implements Scheduler.
func (p *PDF) Reset(d *dag.DAG, cores int) {
	p.d = d
	p.ready.Reset()
	p.assigned = 0
}

// MakeReady implements Scheduler.
func (p *PDF) MakeReady(core int, tasks []dag.TaskID) {
	for _, id := range tasks {
		p.ready.Push(seqItem{id: id, seq: p.d.Task(id).Seq})
	}
}

// Next implements Scheduler.
func (p *PDF) Next(core int) (dag.TaskID, bool) {
	if p.ready.Len() == 0 {
		return dag.None, false
	}
	item := p.ready.Pop()
	p.assigned++
	return item.id, true
}

// Pending implements Scheduler.
func (p *PDF) Pending() int { return p.ready.Len() }

// Metrics implements Scheduler.
func (p *PDF) Metrics() map[string]int64 {
	return map[string]int64{"assigned": p.assigned}
}

// seqItem is a ready task in PDF's minheap, ordered by sequential position
// (Seq values are unique, so the order is total).  The typed heap keeps
// the per-task pushes allocation-free — container/heap would box each one —
// and its storage persists across Reset.
type seqItem struct {
	id  dag.TaskID
	seq int
}

// Less implements minheap.Ordered.
func (a seqItem) Less(b seqItem) bool { return a.seq < b.seq }

// ---------------------------------------------------------------------------
// Task deque (WS's per-core deques in ws.go, and FIFO's queue below)
// ---------------------------------------------------------------------------

// deque is a double-ended queue of task IDs: a slice plus a head index.
// popBottom advances head instead of re-slicing away the front, so the
// backing array's capacity is never stranded; whenever the deque empties,
// both ends rewind to the start and the storage is reused.  In the
// simulator's steady state pushes therefore allocate nothing.
type deque struct {
	items []dag.TaskID
	head  int
}

func (q *deque) reset() {
	q.items = q.items[:0]
	q.head = 0
}

func (q *deque) len() int { return len(q.items) - q.head }

func (q *deque) pushTop(id dag.TaskID) { q.items = append(q.items, id) }

func (q *deque) popTop() (dag.TaskID, bool) {
	if q.len() == 0 {
		return dag.None, false
	}
	id := q.items[len(q.items)-1]
	q.items = q.items[:len(q.items)-1]
	if len(q.items) == q.head {
		q.reset()
	}
	return id, true
}

// peekBottom returns the oldest task without removing it.
func (q *deque) peekBottom() (dag.TaskID, bool) {
	if q.len() == 0 {
		return dag.None, false
	}
	return q.items[q.head], true
}

func (q *deque) popBottom() (dag.TaskID, bool) {
	if q.len() == 0 {
		return dag.None, false
	}
	id := q.items[q.head]
	q.head++
	if len(q.items) == q.head {
		q.reset()
	}
	return id, true
}

// ---------------------------------------------------------------------------
// Central FIFO (ablation baseline)
// ---------------------------------------------------------------------------

// FIFO is a central first-come-first-served ready queue.  It is not part of
// the paper's comparison; it exists as an ablation point between WS
// (per-core LIFO with stealing) and PDF (global sequential priority).  It
// queues on the WS deque, pushing on top and taking from the bottom, so
// dequeues never strand capacity and steady-state enqueues are
// allocation-free.
type FIFO struct {
	queue    deque
	assigned int64
}

// NewFIFO returns a central-queue scheduler.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements Scheduler.
func (*FIFO) Name() string { return "fifo" }

// Reset implements Scheduler.
func (f *FIFO) Reset(d *dag.DAG, cores int) {
	f.queue.reset()
	f.assigned = 0
}

// MakeReady implements Scheduler.
func (f *FIFO) MakeReady(core int, tasks []dag.TaskID) {
	for _, id := range tasks {
		f.queue.pushTop(id)
	}
}

// Next implements Scheduler.
func (f *FIFO) Next(core int) (dag.TaskID, bool) {
	id, ok := f.queue.popBottom()
	if ok {
		f.assigned++
	}
	return id, ok
}

// Pending implements Scheduler.
func (f *FIFO) Pending() int { return f.queue.len() }

// Metrics implements Scheduler.
func (f *FIFO) Metrics() map[string]int64 {
	return map[string]int64{"assigned": f.assigned}
}
