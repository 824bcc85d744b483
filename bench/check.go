package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"cmpsched/internal/cmpsim"
	"cmpsched/internal/sweep"
)

// row holds the simulated fields of one result that the benchmark checks:
// every one is exact, so two correct runs of a job agree on all of them.
type row struct {
	Cycles, Instrs, Refs int64
	L1Hits, L1Misses     int64
	L2Hits, L2Misses     int64
	Fetches, QueueCycles int64
	Tasks, Steals        int64
	label                string
}

// rowOf extracts the checked fields of a simulator result; QueueCycles sums
// the off-chip queueing of every L2 slice's port.
func rowOf(label string, r *cmpsim.Result) row {
	if r == nil {
		return row{label: label}
	}
	var queue int64
	for _, p := range r.MemPorts {
		queue += p.QueueCycles
	}
	return row{
		Cycles: r.Cycles, Instrs: r.Instructions, Refs: r.Refs,
		L1Hits: r.L1.Hits, L1Misses: r.L1.Misses,
		L2Hits: r.L2.Hits, L2Misses: r.L2.Misses,
		Fetches: r.Mem.Fetches, QueueCycles: queue,
		Tasks: int64(r.TasksExecuted), Steals: r.SchedMetrics["steals"],
		label: label,
	}
}

// same reports whether two rows carry identical simulated fields.
func (r row) same(o row) bool {
	r.label, o.label = "", ""
	return r == o
}

// fields renders the simulated fields in a fixed order.
func (r row) fields() string {
	return fmt.Sprintf("cycles=%d instrs=%d refs=%d l1=%d/%d l2=%d/%d fetches=%d queue=%d tasks=%d steals=%d",
		r.Cycles, r.Instrs, r.Refs, r.L1Hits, r.L1Misses, r.L2Hits, r.L2Misses, r.Fetches, r.QueueCycles, r.Tasks, r.Steals)
}

// pin is a row's pinned form: its label and a digest of its fields.
func (r row) pin() string {
	sum := sha256.Sum256([]byte(r.fields()))
	return r.label + " " + hex.EncodeToString(sum[:8])
}

// rowsOf extracts the checked rows of a job list's results, in job order.
func rowsOf(jobs []sweep.Job, results []sweep.Result) []row {
	out := make([]row, len(jobs))
	for i, j := range jobs {
		var sim *cmpsim.Result
		if i < len(results) {
			sim = results[i].Sim
		}
		out[i] = rowOf(jobLabel(j), sim)
	}
	return out
}

// jobLabel names a job in diagnostics and pins: workload, scheduler and
// configuration.  Jobs differing only in their inputs (graph families)
// share a label and are told apart by position.
func jobLabel(j sweep.Job) string {
	return j.Key.Workload + "/" + j.Scheduler + "@" + j.Config.Name
}

// compareRows counts the rows of got that differ from want, returning the
// first difference as a diagnostic.
func compareRows(want, got []row) (mismatches int, first string) {
	for i := range want {
		if i < len(got) && want[i].same(got[i]) {
			continue
		}
		mismatches++
		if first == "" {
			g := "missing"
			if i < len(got) {
				g = got[i].fields()
			}
			first = fmt.Sprintf("row %d %s: want %s, got %s", i, want[i].label, want[i].fields(), g)
		}
	}
	return mismatches, first
}

// pinsFile holds, per workload and seed, the pinned rows of the full-scale
// job list in job order (see -write-pins).
type pinsFile map[string]map[string][]string

//go:embed testdata/pins.json
var pinsJSON []byte

// pinnedSeeds are the seeds the pins cover.  Seed 1 is the default; seed 2
// is held out for checking performance claims.
var pinnedSeeds = []uint64{1, 2}

// loadPins decodes the embedded pins.
func loadPins() (pinsFile, error) {
	var p pinsFile
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("decode pins: %w", err)
	}
	return p, nil
}

// matchPins compares rows with the pins of a workload and seed.  ok is false
// when no pins cover the pair.
func matchPins(p pinsFile, name string, seed uint64, rows []row) (mismatches int, first string, ok bool) {
	want, ok := p[name][strconv.FormatUint(seed, 10)]
	if !ok {
		return 0, "", false
	}
	if len(want) != len(rows) {
		return len(rows), fmt.Sprintf("%d pinned rows, %d run", len(want), len(rows)), true
	}
	for i, r := range rows {
		if got := r.pin(); got != want[i] {
			mismatches++
			if first == "" {
				first = fmt.Sprintf("row %d: pinned %q, got %q (%s)", i, want[i], got, r.fields())
			}
		}
	}
	return mismatches, first, true
}

// writePins simulates every workload's full-scale job list at the pinned
// seeds and writes the pins to path.
func writePins(path string) error {
	p := pinsFile{}
	for _, w := range workloads {
		p[w.name] = map[string][]string{}
		for _, seed := range pinnedSeeds {
			jobs, err := w.jobs(seed, false)
			if err != nil {
				return err
			}
			results, err := sweep.NewEngine(sweep.EngineOptions{Workers: workers}).Run(jobs)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			pins := make([]string, len(jobs))
			for i, r := range rowsOf(jobs, results) {
				pins[i] = r.pin()
			}
			p[w.name][strconv.FormatUint(seed, 10)] = pins
		}
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
