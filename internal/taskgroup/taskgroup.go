// Package taskgroup represents the hierarchical task-group trees used by the
// working-set profiler (§6.1) and the automatic task-coarsening pass (§6.2).
//
// A task group is a set of tasks that are consecutive in the sequential
// execution of the program (a sub-graph of the DAG).  Groups nest: each
// parent is a superset of its children, sibling groups are disjoint, and the
// leaves of the hierarchy correspond to the finest-grain tasks.  Workload
// generators build the tree alongside the DAG; the profiler annotates each
// node with its working-set size; the coarsening pass walks the tree top
// down deciding where to stop parallelising.
package taskgroup

import (
	"fmt"

	"cmpsched/internal/dag"
)

// Node is one task group.
type Node struct {
	// ID is the node's index within its Tree.
	ID int
	// Name is a human-readable label, e.g. "sort[0:65536)".
	Name string
	// Site labels the spawn location in the program (the paper's
	// parallelization-table key, file:line).  Children created by the
	// same source-level spawn share a Site.
	Site string
	// Param is the value the program would compare against a threshold at
	// Site to decide whether to parallelise (e.g. sub-array bytes).
	Param float64
	// Phase groups children into independent sets: children with equal
	// Phase may run in parallel with each other, while different phases
	// are separated by dependences (e.g. the two recursive sorts are
	// phase 0 and the merge group is phase 1). The coarsening criterion
	// is applied to each phase separately (paper footnote 8).
	Phase int

	// Parent is nil for the root.
	Parent *Node
	// Children in creation (sequential) order.
	Children []*Node
	// Tasks are the task IDs owned directly by this node (not through
	// children), in creation order.
	Tasks []dag.TaskID

	// First and Last are the inclusive range of task IDs covered by the
	// node (own tasks plus all descendants). They are computed by
	// Finalize; the node covers tasks First..Last consecutively.
	First, Last dag.TaskID
}

// NumTasks returns the number of tasks covered by the node once the tree is
// finalized.
func (n *Node) NumTasks() int {
	if n.Last < n.First {
		return 0
	}
	return int(n.Last-n.First) + 1
}

// IsLeaf reports whether the node has no child groups.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// ChildrenByPhase partitions the children into phases, in ascending phase
// order. Children within a phase keep their creation order.
func (n *Node) ChildrenByPhase() [][]*Node {
	if len(n.Children) == 0 {
		return nil
	}
	byPhase := make(map[int][]*Node)
	maxPhase := 0
	for _, c := range n.Children {
		byPhase[c.Phase] = append(byPhase[c.Phase], c)
		if c.Phase > maxPhase {
			maxPhase = c.Phase
		}
	}
	var out [][]*Node
	for p := 0; p <= maxPhase; p++ {
		if nodes, ok := byPhase[p]; ok {
			out = append(out, nodes)
		}
	}
	return out
}

// Tree is a hierarchical grouping of a DAG's tasks.
type Tree struct {
	// Root covers every task.
	Root *Node
	// Nodes lists every node, indexed by Node.ID, in creation order.
	Nodes []*Node
}

// New returns a tree containing only a root node.
func New(rootName string) *Tree {
	t := &Tree{}
	t.Root = t.newNode(nil, rootName, "", 0, 0)
	return t
}

func (t *Tree) newNode(parent *Node, name, site string, param float64, phase int) *Node {
	n := &Node{
		ID:     len(t.Nodes),
		Name:   name,
		Site:   site,
		Param:  param,
		Phase:  phase,
		Parent: parent,
		First:  dag.TaskID(1),
		Last:   dag.TaskID(0), // empty until Finalize
	}
	if parent != nil {
		parent.Children = append(parent.Children, n)
	}
	t.Nodes = append(t.Nodes, n)
	return n
}

// AddChild creates a child group under parent.
func (t *Tree) AddChild(parent *Node, name, site string, param float64, phase int) *Node {
	if parent == nil {
		parent = t.Root
	}
	return t.newNode(parent, name, site, param, phase)
}

// Own records task IDs owned directly by node n.
func (t *Tree) Own(n *Node, ids ...dag.TaskID) {
	n.Tasks = append(n.Tasks, ids...)
}

// NumGroups returns the number of nodes in the tree.
func (t *Tree) NumGroups() int { return len(t.Nodes) }

// Walk visits nodes in pre-order. If fn returns false the node's children
// are skipped.
func (t *Tree) Walk(fn func(*Node) bool) {
	var rec func(*Node)
	rec = func(n *Node) {
		if !fn(n) {
			return
		}
		for _, c := range n.Children {
			rec(c)
		}
	}
	if t.Root != nil {
		rec(t.Root)
	}
}

// Finalize computes each node's covering task range and validates the
// paper's structural requirements: every group covers a consecutive task
// range, each parent is a superset of its children, and sibling groups are
// disjoint.
func (t *Tree) Finalize(d *dag.DAG) error {
	var rec func(n *Node) (first, last dag.TaskID, err error)
	rec = func(n *Node) (dag.TaskID, dag.TaskID, error) {
		first := dag.TaskID(1<<31 - 1)
		last := dag.TaskID(-1)
		include := func(f, l dag.TaskID) {
			if f < first {
				first = f
			}
			if l > last {
				last = l
			}
		}
		for _, id := range n.Tasks {
			if d.Task(id) == nil {
				return 0, 0, fmt.Errorf("taskgroup: node %q owns unknown task %d", n.Name, id)
			}
			include(id, id)
		}
		prevLast := dag.TaskID(-1)
		prevName := ""
		for _, c := range n.Children {
			cf, cl, err := rec(c)
			if err != nil {
				return 0, 0, err
			}
			if cl >= 0 {
				if prevLast >= 0 && cf <= prevLast {
					return 0, 0, fmt.Errorf("taskgroup: sibling groups %q and %q overlap (%d <= %d)",
						prevName, c.Name, cf, prevLast)
				}
				prevLast, prevName = cl, c.Name
				include(cf, cl)
			}
		}
		if last < 0 {
			// Empty group: allowed, covers nothing.
			n.First, n.Last = 1, 0
			return n.First, n.Last, nil
		}
		n.First, n.Last = first, last
		return first, last, nil
	}
	if t.Root == nil {
		return fmt.Errorf("taskgroup: tree has no root")
	}
	if _, _, err := rec(t.Root); err != nil {
		return err
	}
	// The root must cover every task consecutively; interior nodes must
	// cover consecutive ranges too (checked by counting coverage).
	return t.checkConsecutive(d)
}

// checkConsecutive verifies that each node's range is fully covered by its
// own tasks plus its children's ranges (no holes belonging to other parts of
// the program), which is what makes the one-pass working-set computation for
// "groups of consecutive tasks" valid.
func (t *Tree) checkConsecutive(d *dag.DAG) error {
	var err error
	t.Walk(func(n *Node) bool {
		if err != nil || n.Last < n.First {
			return false
		}
		covered := int64(0)
		for _, c := range n.Children {
			if c.Last >= c.First {
				covered += int64(c.Last-c.First) + 1
			}
		}
		covered += int64(len(n.Tasks))
		want := int64(n.Last-n.First) + 1
		if covered != want {
			err = fmt.Errorf("taskgroup: group %q covers tasks %d..%d (%d tasks) but owns/encloses only %d",
				n.Name, n.First, n.Last, want, covered)
			return false
		}
		return true
	})
	return err
}
