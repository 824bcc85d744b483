package sched

import (
	"maps"
	"slices"
	"testing"

	"cmpsched/internal/dag"
)

// localWSMachine mirrors sbMachine: 4 cores, slices {0,1} and {2,3}.
func localWSMachine() Machine { return sbMachine() }

func TestLocalityWSNameIsCanonical(t *testing.T) {
	if got := NewLocalityWS(StealNearest).Name(); got != "ws:nearest" {
		t.Errorf("nearest Name() = %q", got)
	}
	if got := NewLocalityWS(StealOldest).Name(); got != "ws:oldest" {
		t.Errorf("oldest Name() = %q", got)
	}
	// Out-of-range policies normalise to StealNearest: the Name stays a
	// canonical registry spelling and Next never hits a nil victim table.
	bogus := NewLocalityWS(StealPolicy(99))
	if got := bogus.Name(); got != "ws:nearest" {
		t.Errorf("out-of-range policy Name() = %q, want ws:nearest", got)
	}
	d := fanOutDAG(t, 2)
	bogus.Reset(d, 2)
	bogus.MakeReady(1, []dag.TaskID{1})
	if id, ok := bogus.Next(0); !ok || id != 1 {
		t.Errorf("Next(0) = (%d, %v) after policy normalisation, want steal of task 1", id, ok)
	}
}

func TestStealNearestPrefersOwnSlice(t *testing.T) {
	d := fanOutDAG(t, 4)
	w := NewLocalityWS(StealNearest)
	w.SetMachine(localWSMachine())
	w.Reset(d, 4)

	// Work on cores 0 (slice 0) and 2 (slice 1); thief is core 3 (slice 1).
	// Classic WS scans (3+1)%4 = core 0 first; nearest must steal from its
	// slice mate, core 2.
	w.MakeReady(0, []dag.TaskID{1})
	w.MakeReady(2, []dag.TaskID{2})
	id, ok := w.Next(3)
	if !ok || id != 2 {
		t.Fatalf("Next(3) = (%d, %v), want steal of task 2 from slice mate", id, ok)
	}
	m := w.Metrics()
	if m["near_steals"] != 1 || m["far_steals"] != 0 {
		t.Fatalf("metrics = %v, want one near steal", m)
	}

	// With the slice mate empty, the thief expands to the far slice.
	id, ok = w.Next(3)
	if !ok || id != 1 {
		t.Fatalf("Next(3) = (%d, %v), want far steal of task 1", id, ok)
	}
	m = w.Metrics()
	if m["near_steals"] != 1 || m["far_steals"] != 1 || m["steals"] != 2 {
		t.Fatalf("metrics = %v, want one near and one far steal", m)
	}
}

func TestStealOldestTakesGloballyOldestBottom(t *testing.T) {
	d := fanOutDAG(t, 4)
	w := NewLocalityWS(StealOldest)
	w.Reset(d, 4)

	// Task 1 (oldest) sits on core 2; younger tasks sit on core 1, which a
	// forward scan from core 0 would visit first.
	w.MakeReady(1, []dag.TaskID{3, 4})
	w.MakeReady(2, []dag.TaskID{1})
	id, ok := w.Next(0)
	if !ok || id != 1 {
		t.Fatalf("Next(0) = (%d, %v), want globally oldest task 1", id, ok)
	}
	// Next oldest bottom is task 3 (core 1's deque bottom).
	id, ok = w.Next(0)
	if !ok || id != 3 {
		t.Fatalf("Next(0) = (%d, %v), want task 3", id, ok)
	}
	if got := w.Metrics()["steals"]; got != 2 {
		t.Errorf("steals = %d, want 2", got)
	}
}

func TestLocalityWSLocalPopIsLIFO(t *testing.T) {
	d := fanOutDAG(t, 3)
	for _, policy := range []StealPolicy{StealNearest, StealOldest} {
		w := NewLocalityWS(policy)
		w.Reset(d, 2)
		w.MakeReady(0, []dag.TaskID{1, 2, 3})
		for i, want := range []dag.TaskID{3, 2, 1} {
			id, ok := w.Next(0)
			if !ok || id != want {
				t.Fatalf("%v: Next(0) #%d = (%d, %v), want %d", policy, i, id, ok, want)
			}
		}
		if got := w.Metrics()["local"]; got != 3 {
			t.Errorf("%v: local = %d, want 3", policy, got)
		}
	}
}

// TestStealNearestFlatMachineMatchesClassicWS pins the degenerate case the
// golden engine fingerprints rely on reading about: with one slice (or no
// machine at all) the nearest-victim order is classic WS's forward scan.
func TestStealNearestFlatMachineMatchesClassicWS(t *testing.T) {
	d := fanOutDAG(t, 6)
	ws := NewWS()
	near := NewLocalityWS(StealNearest)
	ws.Reset(d, 4)
	near.Reset(d, 4)
	for _, s := range []Scheduler{ws, near} {
		s.MakeReady(1, []dag.TaskID{1, 2})
		s.MakeReady(3, []dag.TaskID{3, 4})
	}
	for core := 0; core < 4; core++ {
		wid, wok := ws.Next(core)
		nid, nok := near.Next(core)
		if wid != nid || wok != nok {
			t.Fatalf("Next(%d): ws = (%d, %v), ws:nearest = (%d, %v)", core, wid, wok, nid, nok)
		}
	}
}

// TestWSPoliciesNamesMetricsAndVictims pins, for each of the three names the
// WS type serves, Name(), the key set of Metrics() and the victim it steals
// from on a clustered machine.  The golden fingerprints omit the scheduler
// name and SchedMetrics, yet both reach sweep keys, JSON exports and the
// sched.steals totals, so a policy leaking near_steals/far_steals into "ws",
// or "ws" picking up the machine's slices, must fail here.
func TestWSPoliciesNamesMetricsAndVictims(t *testing.T) {
	for _, tc := range []struct {
		s    *WS
		name string
		keys []string
		// The task thief core 3 steals with task 3 on core 0, task 1 (the
		// oldest) on core 1 and task 2 on its slice mate, core 2.
		stolen dag.TaskID
	}{
		{NewWS(), "ws", []string{"local", "steals"}, 3},
		{NewLocalityWS(StealNearest), "ws:nearest", []string{"far_steals", "local", "near_steals", "steals"}, 2},
		{NewLocalityWS(StealOldest), "ws:oldest", []string{"local", "steals"}, 1},
	} {
		if got := tc.s.Name(); got != tc.name {
			t.Errorf("Name() = %q, want %q", got, tc.name)
		}
		tc.s.SetMachine(localWSMachine())
		tc.s.Reset(fanOutDAG(t, 4), 4)
		tc.s.MakeReady(0, []dag.TaskID{3})
		tc.s.MakeReady(1, []dag.TaskID{1})
		tc.s.MakeReady(2, []dag.TaskID{2})
		if id, ok := tc.s.Next(3); !ok || id != tc.stolen {
			t.Errorf("%s: Next(3) = (%d, %v), want steal of task %d", tc.name, id, ok, tc.stolen)
		}
		m := tc.s.Metrics()
		if keys := slices.Sorted(maps.Keys(m)); !slices.Equal(keys, tc.keys) {
			t.Errorf("%s: Metrics() keys = %v, want %v", tc.name, keys, tc.keys)
		}
		if m["steals"] != 1 || m["local"] != 0 {
			t.Errorf("%s: Metrics() = %v, want one steal and no local pops", tc.name, m)
		}
	}
}
