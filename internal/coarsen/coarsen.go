// Package coarsen implements the automatic task-coarsening pass of §6.2.
//
// Programs are written with very fine-grained tasks; the working-set
// profiler (package profile) measures the working set of every task group;
// this package then walks the task-group tree top-down and decides, per
// group, whether its children are already small enough to stop
// parallelising — the paper's heuristic stop criterion
//
//	W ≤ K × (cacheSize / (numCores × 2))
//
// where W is the group's working-set size and K the number of child groups
// in the independent set under consideration.  Children selected this way
// are collapsed into single sequential tasks (CollapseDAG), and the
// parameter values at the stopping groups populate the per-configuration
// parallelization table (Figure 7b) that a compiled program would consult at
// run time.
package coarsen

import (
	"fmt"
	"sort"

	"cmpsched/internal/dag"
	"cmpsched/internal/profile"
	"cmpsched/internal/refs"
	"cmpsched/internal/taskgroup"
)

// Params identify the CMP configuration a coarsening decision targets.
type Params struct {
	// CacheSizeBytes is the shared L2 capacity.
	CacheSizeBytes int64
	// Cores is the number of cores P.
	Cores int
	// SlackFactor is the "2" in the stop criterion; it leaves room for
	// task-size variability so early-finishing children do not drag in
	// unrelated work. Zero means 2.
	SlackFactor int
}

func (p Params) slack() int64 {
	if p.SlackFactor <= 0 {
		return 2
	}
	return int64(p.SlackFactor)
}

// Validate reports invalid parameters.
func (p Params) Validate() error {
	if p.CacheSizeBytes <= 0 {
		return fmt.Errorf("coarsen: non-positive cache size %d", p.CacheSizeBytes)
	}
	if p.Cores <= 0 {
		return fmt.Errorf("coarsen: non-positive core count %d", p.Cores)
	}
	return nil
}

// TableEntry is one row of the parallelization table (Figure 7b): for the
// given CMP configuration and spawn site, sub-problems whose parameter value
// is at most Threshold are executed sequentially.
type TableEntry struct {
	L2SizeBytes int64
	Cores       int
	Site        string
	Threshold   float64
}

// Selection is the outcome of a coarsening pass.
type Selection struct {
	// Params is the configuration the selection targets.
	Params Params
	// Sequential lists the IDs of the task-group-tree nodes that are
	// collapsed into single sequential tasks.
	Sequential []int
	// Table is the parallelization table derived from the selection, one
	// entry per spawn site that had a stopping group.
	Table []TableEntry
}

// IsSequential reports whether the given group node was selected to run as a
// single sequential task.
func (s *Selection) IsSequential(nodeID int) bool {
	for _, id := range s.Sequential {
		if id == nodeID {
			return true
		}
	}
	return false
}

// Threshold returns the parallelization-table threshold for a spawn site,
// or 0 if the site has no entry.
func (s *Selection) Threshold(site string) float64 {
	for _, e := range s.Table {
		if e.Site == site {
			return e.Threshold
		}
	}
	return 0
}

// Coarsen walks the tree top-down applying the stop criterion, using the
// working sets measured by the profiler.
func Coarsen(pr *profile.Profile, tree *taskgroup.Tree, p Params) (*Selection, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if tree == nil || tree.Root == nil {
		return nil, fmt.Errorf("coarsen: nil task-group tree")
	}
	sel := &Selection{Params: p}
	perChildBudget := p.CacheSizeBytes / (int64(p.Cores) * p.slack())
	thresholds := make(map[string]float64)

	var walk func(n *taskgroup.Node)
	walk = func(n *taskgroup.Node) {
		if n.IsLeaf() {
			return
		}
		w := pr.GroupOf(n).WorkingSetBytes
		for _, phase := range n.ChildrenByPhase() {
			k := int64(len(phase))
			if w <= k*perChildBudget {
				// Stop: each child of this phase becomes one sequential
				// task.
				for _, c := range phase {
					if c.NumTasks() > 0 {
						sel.Sequential = append(sel.Sequential, c.ID)
					}
					if c.Site != "" && c.Param > thresholds[c.Site] {
						thresholds[c.Site] = c.Param
					}
				}
				continue
			}
			for _, c := range phase {
				walk(c)
			}
		}
	}
	walk(tree.Root)
	sort.Ints(sel.Sequential)

	sites := make([]string, 0, len(thresholds))
	for site := range thresholds {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	for _, site := range sites {
		sel.Table = append(sel.Table, TableEntry{
			L2SizeBytes: p.CacheSizeBytes,
			Cores:       p.Cores,
			Site:        site,
			Threshold:   thresholds[site],
		})
	}
	return sel, nil
}

// CollapseDAG applies a selection to a DAG, producing a new DAG in which
// every selected group's tasks are merged into one sequential task whose
// reference stream is the concatenation of its members' streams.  This is
// the paper's "dag" evaluation mode (the middle bars of Figure 8): the trace
// stays the finest-grain trace, only the task structure is coarsened, so a
// merged task still pays its members' parallel-code overheads.
//
// The new DAG shares its unmerged tasks' recorded streams with the original.
// Neither DAG changes, so both may be simulated concurrently.
func CollapseDAG(d *dag.DAG, tree *taskgroup.Tree, sel *Selection) (*dag.DAG, error) {
	if d == nil || tree == nil || sel == nil {
		return nil, fmt.Errorf("coarsen: nil argument to CollapseDAG")
	}
	// groupOf[taskID] = selected node covering the task, or nil.
	groupOf := make([]*taskgroup.Node, d.NumTasks())
	for _, id := range sel.Sequential {
		if id < 0 || id >= len(tree.Nodes) {
			return nil, fmt.Errorf("coarsen: selection references unknown group %d", id)
		}
		n := tree.Nodes[id]
		for t := n.First; t <= n.Last; t++ {
			if groupOf[t] != nil {
				return nil, fmt.Errorf("coarsen: task %d selected by both %q and %q", t, groupOf[t].Name, n.Name)
			}
			groupOf[t] = n
		}
	}

	out := dag.New(d.Name + "/coarsened")
	newID := make([]dag.TaskID, d.NumTasks())
	for i := range newID {
		newID[i] = dag.None
	}
	for _, task := range d.Tasks() {
		if g := groupOf[task.ID]; g != nil {
			if task.ID != g.First {
				newID[task.ID] = newID[g.First]
				continue
			}
			// First member: create the merged sequential task.
			gens := make([]refs.Gen, 0, int(g.Last-g.First)+1)
			for t := g.First; t <= g.Last; t++ {
				gens = append(gens, d.Task(t).Refs)
			}
			merged := out.AddTask(g.Name+"(seq)", refs.NewConcat(gens...))
			merged.Site = g.Site
			merged.Param = g.Param
			merged.Level = d.Task(g.First).Level
			newID[task.ID] = merged.ID
			continue
		}
		copyTask := out.AddTask(task.Name, task.Refs)
		copyTask.Site = task.Site
		copyTask.Param = task.Param
		copyTask.Level = task.Level
		newID[task.ID] = copyTask.ID
	}

	// Re-create edges, dropping intra-group edges and duplicates.
	type edge struct{ from, to dag.TaskID }
	seen := make(map[edge]bool)
	for _, task := range d.Tasks() {
		for _, succ := range task.Succs {
			u, v := newID[task.ID], newID[succ]
			if u == v {
				continue
			}
			e := edge{u, v}
			if seen[e] {
				continue
			}
			seen[e] = true
			if err := out.AddEdge(u, v); err != nil {
				return nil, fmt.Errorf("coarsen: rebuilding edges: %w", err)
			}
		}
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("coarsen: collapsed DAG invalid: %w", err)
	}
	return out, nil
}
