package graph

import (
	"fmt"
	"strconv"

	"cmpsched/internal/dag"
	"cmpsched/internal/refs"
	"cmpsched/internal/taskgroup"
)

// builder wires the one DAG shape every kernel emits: a serial start, then
// bulk-synchronous rounds of chunk tasks between barriers.  It owns the DAG,
// its group tree, the costs, the trace every walk fills (reset per task:
// dag.AddTask records each stream as it is added) and the task the next
// round waits on, so the kernels only walk the graph and name their tasks.
//
// Each round is a child group of the root whose phase is the round's level:
// its chunk tasks wait on the last task and carry the round's site and
// level, and the group's Param is their summed working set.
type builder struct {
	c      Costs
	d      *dag.DAG
	tree   *taskgroup.Tree
	tr     *trace
	kernel string
	last   dag.TaskID // the task the next chunk or serial task waits on

	// The open round.
	group  *taskgroup.Node
	prefix string // chunk tasks are named prefix[lo:hi)
	site   string
	level  int
	chunks []dag.TaskID // reused across rounds
	bytes  int64
}

func newBuilder(kernel string, g *CSR, costs Costs) *builder {
	c := costs.withDefaults()
	return &builder{
		c:      c,
		d:      dag.New(kernel + "-" + g.Name),
		tree:   taskgroup.New(kernel),
		tr:     newTrace(c),
		kernel: kernel,
		last:   dag.None,
	}
}

// add appends a task whose stream is what fill walks into the trace, ending
// with instrs instructions, with the walk's working set as its Param; a nil
// fill makes it a compute task of instrs instructions.
func (b *builder) add(name string, instrs int64, fill func()) *dag.Task {
	if fill == nil {
		return b.d.AddComputeTask(name, instrs)
	}
	b.tr.reset()
	fill()
	t := b.d.AddTask(name, b.tr.gen(instrs))
	t.Param = float64(b.tr.bytes())
	return t
}

// serial adds a root-owned task (see add) after the last task; the next
// round waits on it.
func (b *builder) serial(name, site string, instrs int64, fill func()) {
	t := b.add(name, instrs, fill)
	t.Site = site
	b.tree.Own(b.tree.Root, t.ID)
	if b.last != dag.None {
		b.d.MustEdge(b.last, t.ID)
	}
	b.last = t.ID
}

// round opens a round: a child group of the root, named group at groupSite
// with phase level, whose chunk tasks are named prefix[lo:hi) at site with
// Level level.
func (b *builder) round(group, groupSite, prefix, site string, level int) {
	b.group = b.tree.AddChild(b.tree.Root, group, groupSite, 0, level)
	b.prefix, b.site, b.level = prefix, site, level
	b.chunks, b.bytes = b.chunks[:0], 0
}

// task adds the open round's chunk task over [lo, hi), issuing gen with a
// working set of bytes.
func (b *builder) task(lo, hi int64, gen refs.Gen, bytes int64) {
	var buf [64]byte
	name := append(append(buf[:0], b.prefix...), '[')
	name = append(strconv.AppendInt(name, lo, 10), ':')
	name = append(strconv.AppendInt(name, hi, 10), ')')
	t := b.d.AddTask(string(name), gen)
	t.Site, t.Param, t.Level = b.site, float64(bytes), b.level
	b.tree.Own(b.group, t.ID)
	b.d.MustEdge(b.last, t.ID)
	b.chunks = append(b.chunks, t.ID)
	b.bytes += bytes
}

// each adds one chunk task per range: body walks chunk ci, [lo, hi), into
// the trace.
func (b *builder) each(ranges [][2]int64, body func(ci int, lo, hi int64)) {
	for ci, r := range ranges {
		b.tr.reset()
		body(ci, r[0], r[1])
		b.task(r[0], r[1], b.tr.gen(b.c.SpawnInstrs/4), b.tr.bytes())
	}
}

// close ends the open round with its barrier (see add): owned by the round's
// group at the round's level, it waits on every chunk, and the next round
// waits on it.
func (b *builder) close(name, site string, instrs int64, fill func()) {
	b.end(b.group, b.level, name, site, instrs, fill)
}

// join ends the open round with a root-owned task (see add) over every
// chunk: a reduction or the kernel's last task.
func (b *builder) join(name, site string, instrs int64, fill func()) {
	b.end(b.tree.Root, 0, name, site, instrs, fill)
}

// end adds the task close and join add, owned by owner at level.
func (b *builder) end(owner *taskgroup.Node, level int, name, site string, instrs int64, fill func()) {
	t := b.add(name, instrs, fill)
	t.Site, t.Level = site, level
	b.tree.Own(owner, t.ID)
	for _, id := range b.chunks {
		b.d.MustEdge(id, t.ID)
	}
	b.group.Param = float64(b.bytes)
	b.last = t.ID
}

// frontierChunks cuts a frontier of g's vertices into chunks of about
// EdgesPerTask edge traversals, each vertex weighing one plus its degree.
func (b *builder) frontierChunks(g *CSR, frontier []int32) [][2]int64 {
	return chunk(int64(len(frontier)), b.c.EdgesPerTask, func(i int64) int64 {
		return 1 + g.Degree(int64(frontier[i]))
	})
}

// finish validates the DAG and finalises the group tree.
func (b *builder) finish() (*dag.DAG, *taskgroup.Tree, error) {
	if err := b.d.Validate(); err != nil {
		return nil, nil, fmt.Errorf("graph: %s: %w", b.kernel, err)
	}
	if err := b.tree.Finalize(b.d); err != nil {
		return nil, nil, fmt.Errorf("graph: %s: %w", b.kernel, err)
	}
	return b.d, b.tree, nil
}
