package graph

import (
	"testing"

	"cmpsched/internal/dag"
)

// The differential suite is the pin for the compressed-CSR tentpole: every
// kernel must emit a byte-identical DAG — same task names, instruction
// counts, dependence edges, and per-task reference-stream fingerprints —
// whether it walks the flat or the byte-compressed representation.  Kernels
// address the simulated flat layout (FirstEdge(v)+k) no matter how the host
// stores the bytes, so any divergence here is a codec or traversal bug.

// kernelRunners enumerates every registered DAG-emitting kernel with fixed
// parameters, so a new kernel only needs one entry here to join the
// differential matrix.
func kernelRunners() map[string]func(g Graph) (*dag.DAG, error) {
	c := tinyCosts()
	return map[string]func(g Graph) (*dag.DAG, error){
		"bfs": func(g Graph) (*dag.DAG, error) {
			d, _, err := BFS(g, 0, c)
			return d, err
		},
		"sssp": func(g Graph) (*dag.DAG, error) {
			d, _, err := BellmanFord(g, 0, 17, 64, 16, c)
			return d, err
		},
		"pagerank": func(g Graph) (*dag.DAG, error) {
			d, _, err := PageRank(g, 3, c)
			return d, err
		},
		"triangles": func(g Graph) (*dag.DAG, error) {
			d, _, _, err := Triangles(g, c)
			return d, err
		},
		"connectivity": func(g Graph) (*dag.DAG, error) {
			d, _, _, err := Connectivity(g, 19, c)
			return d, err
		},
		"kcore": func(g Graph) (*dag.DAG, error) {
			d, _, _, err := KCore(g, c)
			return d, err
		},
		"mis": func(g Graph) (*dag.DAG, error) {
			d, _, _, err := MIS(g, 23, c)
			return d, err
		},
		"matching": func(g Graph) (*dag.DAG, error) {
			d, _, _, err := MaximalMatching(g, 29, c)
			return d, err
		},
	}
}

// taskFingerprint folds one task's identity — name, instruction count,
// predecessor list, and full reference stream — into a single hash.
func taskFingerprint(t *dag.Task) uint64 {
	h := uint64(len(t.Name))
	for _, ch := range []byte(t.Name) {
		h = h*131 + uint64(ch)
	}
	h ^= uint64(t.Instrs) * 0x9E3779B97F4A7C15
	for _, p := range t.Preds {
		h = h*1000003 + uint64(p)
	}
	return h ^ t.Refs.Fingerprint()
}

func TestFlatAndCompressedEmitIdenticalDAGs(t *testing.T) {
	for _, seed := range []uint64{3, 101} {
		for _, family := range Families() {
			flat := mustNew(t, Config{Family: family, Vertices: 1 << 10, AvgDegree: 8, Seed: seed})
			comp, err := Compress(flat)
			if err != nil {
				t.Fatalf("%s seed %d: %v", family, seed, err)
			}
			for kernel, run := range kernelRunners() {
				df, err := run(flat)
				if err != nil {
					t.Fatalf("%s/%s flat: %v", kernel, family, err)
				}
				dc, err := run(comp)
				if err != nil {
					t.Fatalf("%s/%s compressed: %v", kernel, family, err)
				}
				diffDAGs(t, kernel+"/"+family, df, dc)
			}
		}
	}
}

// diffDAGs asserts task-by-task equality of two DAGs and reports the first
// divergence precisely enough to debug a codec fault.
func diffDAGs(t *testing.T, name string, df, dc *dag.DAG) {
	t.Helper()
	if df.NumTasks() != dc.NumTasks() {
		t.Fatalf("%s: task counts differ: flat %d, compressed %d", name, df.NumTasks(), dc.NumTasks())
	}
	ft, ct := df.Tasks(), dc.Tasks()
	for i := range ft {
		if ft[i].Name != ct[i].Name {
			t.Fatalf("%s: task %d name %q (flat) vs %q (compressed)", name, i, ft[i].Name, ct[i].Name)
		}
		if ft[i].Instrs != ct[i].Instrs {
			t.Fatalf("%s: task %q instrs %d (flat) vs %d (compressed)", name, ft[i].Name, ft[i].Instrs, ct[i].Instrs)
		}
		if fp, cp := taskFingerprint(ft[i]), taskFingerprint(ct[i]); fp != cp {
			t.Fatalf("%s: task %q reference streams diverge (%#x vs %#x)", name, ft[i].Name, fp, cp)
		}
	}
}

// TestDifferentialCatchesMutation guards the harness itself: two different
// graphs must NOT fingerprint identically, or the suite is vacuous.
func TestDifferentialCatchesMutation(t *testing.T) {
	a := mustNew(t, Config{Family: FamilyUniform, Vertices: 1 << 10, AvgDegree: 8, Seed: 3})
	b := mustNew(t, Config{Family: FamilyUniform, Vertices: 1 << 10, AvgDegree: 8, Seed: 4})
	da, _, err := BFS(a, 0, tinyCosts())
	if err != nil {
		t.Fatal(err)
	}
	db, _, err := BFS(b, 0, tinyCosts())
	if err != nil {
		t.Fatal(err)
	}
	if da.NumTasks() == db.NumTasks() {
		ta, tb := da.Tasks(), db.Tasks()
		same := true
		for i := range ta {
			if taskFingerprint(ta[i]) != taskFingerprint(tb[i]) {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different graphs produced identical task fingerprints; differential harness is vacuous")
		}
	}
}
