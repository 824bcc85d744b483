package profile

import (
	"fmt"

	"cmpsched/internal/cache"
	"cmpsched/internal/dag"
	"cmpsched/internal/refs"
	"cmpsched/internal/taskgroup"
)

// SetAssoc is the straightforward multi-pass profiler the paper compares
// LruTree against: to obtain the working set of a task group it replays the
// group's memory-reference trace through trace-driven simulations of
// set-associative caches, one per cache size of interest, starting from a
// cold cache.  Because nested task groups must each be measured from a cold
// start, the trace of the whole application is effectively re-processed once
// per level of the group hierarchy, which is what makes SetAssoc an order of
// magnitude slower than the one-pass LruTree on deep trees (§6.1: 253
// minutes vs 13.4 minutes, an 18X gap, on the paper's Mergesort trace).
type SetAssoc struct {
	cfg Config
	// Assoc is the associativity of the simulated caches (default 16).
	Assoc int
}

// NewSetAssoc returns a multi-pass profiler.
func NewSetAssoc(cfg Config, assoc int) *SetAssoc {
	if assoc <= 0 {
		assoc = 16
	}
	return &SetAssoc{cfg: cfg.withDefaults(), Assoc: assoc}
}

// Config returns the profiling configuration.
func (s *SetAssoc) Config() Config { return s.cfg }

// Group measures the task range [first, last] by simulation.
func (s *SetAssoc) Group(d *dag.DAG, first, last dag.TaskID) (GroupStats, error) {
	if err := s.cfg.Validate(); err != nil {
		return GroupStats{}, err
	}
	g := GroupStats{First: first, Last: last, Hits: make([]int64, len(s.cfg.CacheSizes))}
	caches := make([]*cache.Cache, len(s.cfg.CacheSizes))
	for i, size := range s.cfg.CacheSizes {
		// Clamp the associativity so a cache is never smaller than one
		// set; requesting a very large associativity therefore yields a
		// fully-associative simulation.
		assoc := s.Assoc
		if maxAssoc := int(size / s.cfg.LineBytes); assoc > maxAssoc {
			assoc = maxAssoc
		}
		c, err := cache.New(cache.Config{SizeBytes: size, LineBytes: s.cfg.LineBytes, Assoc: assoc})
		if err != nil {
			return GroupStats{}, fmt.Errorf("profile: setassoc: %w", err)
		}
		caches[i] = c
	}
	distinct := make(map[uint64]struct{})
	var blk [64]refs.Ref
	for id := first; id <= last && int(id) < d.NumTasks(); id++ {
		task := d.Task(id)
		if task == nil {
			continue
		}
		rd := task.Refs.Reader()
		for k := rd.Read(blk[:]); k > 0; k = rd.Read(blk[:]) {
			for _, r := range blk[:k] {
				g.Refs++
				distinct[r.Addr/uint64(s.cfg.LineBytes)] = struct{}{}
				for i, c := range caches {
					if res := c.Access(r.Addr, r.Write); res.Hit {
						g.Hits[i]++
					}
				}
			}
		}
	}
	g.DistinctLines = int64(len(distinct))
	g.WorkingSetBytes = g.DistinctLines * s.cfg.LineBytes
	return g, nil
}

// GroupOf measures a task-group-tree node.
func (s *SetAssoc) GroupOf(d *dag.DAG, n *taskgroup.Node) (GroupStats, error) {
	if n == nil || n.Last < n.First {
		return GroupStats{Hits: make([]int64, len(s.cfg.CacheSizes))}, nil
	}
	return s.Group(d, n.First, n.Last)
}

// AnnotateTree measures every node of the tree, indexed by node ID.  This is
// the multi-pass computation whose cost the LruTree algorithm avoids.
func (s *SetAssoc) AnnotateTree(d *dag.DAG, tree *taskgroup.Tree) ([]GroupStats, error) {
	out := make([]GroupStats, len(tree.Nodes))
	for _, n := range tree.Nodes {
		g, err := s.GroupOf(d, n)
		if err != nil {
			return nil, err
		}
		out[n.ID] = g
	}
	return out, nil
}
