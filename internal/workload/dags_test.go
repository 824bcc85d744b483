package workload

// DAG pins: one line per case, folding everything a workload builder
// decides into one FNV-64 hash — the DAG's name and recorded metrics, every
// task's name, order, instructions, edges, stream fingerprint, Site, Param,
// Level and Group, every task-group node's identity, labels, Param, Phase,
// place in the tree, owned tasks and covered range, and the workload's
// effective configuration.  streams.txt pins the streams and edges only; a
// change that moved a task's Site, a group's working set or a barrier's
// owner would pass it but fails here.  The cases are every registered
// workload at its stream-pin configuration plus the eight graph kernels on
// three graph families.
//
// Regenerate with:
//
//	go test ./internal/workload -run TestDAGPins -update-dags

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sort"
	"testing"

	"cmpsched/internal/dag"
	"cmpsched/internal/taskgroup"
)

var updateDAGs = flag.Bool("update-dags", false, "rewrite testdata/dags.txt from the current generators")

const dagsFile = "testdata/dags.txt"

// dagPinCases returns every pinned case by name.
func dagPinCases() map[string]Workload {
	cases := make(map[string]Workload)
	for name, w := range pinnedWorkloads() {
		cases[name] = w
	}
	for family, shape := range map[string]GraphShape{
		"uniform": {Family: "uniform", Vertices: 1 << 11, EdgesPerTask: 256, Seed: 3},
		"grid":    {Family: "grid", Vertices: 1 << 10, EdgesPerTask: 64},
		"rmat":    {Family: "rmat", Vertices: 1 << 12},
	} {
		for _, w := range []Workload{
			NewBFS(BFSConfig{Shape: shape}),
			NewSSSP(SSSPConfig{Shape: shape}),
			NewPageRank(PageRankConfig{Shape: shape}),
			NewTriangles(TrianglesConfig{Shape: shape}),
			NewConnectivity(ConnectivityConfig{Shape: shape}),
			NewKCore(KCoreConfig{Shape: shape}),
			NewMIS(MISConfig{Shape: shape}),
			NewMatching(MatchingConfig{Shape: shape}),
		} {
			cases[w.Name()+"/"+family] = w
		}
		cases["sssp-converge/"+family] = NewSSSP(SSSPConfig{Shape: shape, MaxRounds: -1})
		cases["pagerank-5/"+family] = NewPageRank(PageRankConfig{Shape: shape, Iterations: 5})
	}
	return cases
}

// configOf renders a workload's effective configuration, its unexported cfg
// field, as the sweep keys do.
func configOf(w Workload) string {
	return fmt.Sprintf("%+v", reflect.Indirect(reflect.ValueOf(w)).FieldByName("cfg"))
}

// dagPin renders one case's pin line.
func dagPin(d *dag.DAG, tree *taskgroup.Tree, config string) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	ids := func(list []dag.TaskID) {
		put(uint64(len(list)))
		for _, id := range list {
			put(uint64(id))
		}
	}
	str(d.Name)
	metrics := d.Metrics()
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		str(name)
		put(uint64(metrics[name]))
	}
	for _, t := range d.Tasks() {
		str(t.Name)
		put(uint64(t.Seq))
		put(uint64(t.Instrs))
		ids(t.Preds)
		ids(t.Succs)
		put(t.Refs.Fingerprint())
		str(t.Site)
		put(math.Float64bits(t.Param))
		put(uint64(t.Level))
		put(uint64(t.Group))
	}
	groups := 0
	if tree != nil {
		groups = tree.NumGroups()
		for _, n := range tree.Nodes {
			put(uint64(n.ID))
			str(n.Name)
			str(n.Site)
			put(math.Float64bits(n.Param))
			put(uint64(n.Phase))
			parent := -1
			if n.Parent != nil {
				parent = n.Parent.ID
			}
			put(uint64(parent))
			put(uint64(len(n.Children)))
			for _, c := range n.Children {
				put(uint64(c.ID))
			}
			ids(n.Tasks)
			put(uint64(n.First))
			put(uint64(n.Last))
		}
	}
	str(config)
	return fmt.Sprintf("tasks=%d groups=%d hash=%016x", d.NumTasks(), groups, h.Sum64())
}

func TestDAGPins(t *testing.T) {
	got := make(map[string]string)
	for name, w := range dagPinCases() {
		d, tree, err := w.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		got[name] = dagPin(d, tree, configOf(w))
	}
	checkPins(t, dagsFile, *updateDAGs,
		"# DAG pins: case -> task count, group count and an FNV-64 over the DAG name, its\n"+
			"# metrics, every task's and task group's fields and the workload config; regenerate\n"+
			"# with `go test ./internal/workload -run TestDAGPins -update-dags`.\n",
		got)
}
