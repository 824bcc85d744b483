package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestNilDisabledState proves the zero-cost-when-off contract at the API
// level: every tracer and metric method on a nil receiver is a no-op and
// allocates nothing.
func TestNilDisabledState(t *testing.T) {
	var tr *Tracer
	var reg *Registry
	allocs := testing.AllocsPerRun(100, func() {
		tr.Reset()
		tr.SetTime(42)
		tr.Spawn(1, 0)
		tr.Ready(1, 0)
		tr.Run(1, 0)
		tr.Finish(1, 0)
		tr.Steal(1, 2, 3)
		tr.Pin(1, 0, PinL1)
		tr.Migrate(1, 0)
		reg.Counter("c").Add(1)
		reg.Gauge("g").Set(1)
		reg.Histogram("h", nil).Observe(1)
		var p *Progress
		p.Step(false)
		p.Finish()
	})
	if allocs != 0 {
		t.Fatalf("disabled instrumentation allocated %.1f times per call set", allocs)
	}
	if tr.Len() != 0 || len(tr.Events()) != 0 {
		t.Fatalf("nil tracer recorded events")
	}
	if reg.Snapshot() != nil {
		t.Fatalf("nil registry produced a snapshot")
	}
}

func TestTracerRecordsLifecycle(t *testing.T) {
	tr := NewTracer()
	tr.Spawn(0, -1)
	tr.Ready(0, -1)
	tr.SetTime(10)
	tr.Run(0, 2)
	tr.SetTime(50)
	tr.Finish(0, 2)
	tr.Steal(1, 3, 0)
	events := tr.Events()
	want := []Event{
		{Time: 0, Task: 0, Core: -1, Aux: -1, Kind: EvSpawn},
		{Time: 0, Task: 0, Core: -1, Aux: -1, Kind: EvReady},
		{Time: 10, Task: 0, Core: 2, Aux: -1, Kind: EvRun},
		{Time: 50, Task: 0, Core: 2, Aux: -1, Kind: EvFinish},
		{Time: 50, Task: 1, Core: 3, Aux: 0, Kind: EvSteal},
	}
	if len(events) != len(want) {
		t.Fatalf("recorded %d events, want %d", len(events), len(want))
	}
	for i, e := range events {
		if e != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, e, want[i])
		}
	}
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatalf("Reset left %d events", tr.Len())
	}
}

// TestChromeTraceDeterministicAndValid pins the export contract: identical
// event streams produce byte-identical documents, and the document is valid
// JSON in the trace-event object format.
func TestChromeTraceDeterministicAndValid(t *testing.T) {
	build := func() *Tracer {
		tr := NewTracer()
		tr.Spawn(0, -1)
		tr.Ready(0, -1)
		tr.Run(0, 0)
		tr.SetTime(100)
		tr.Pin(1, 0, PinSlice)
		tr.Steal(1, 1, 0)
		tr.Run(1, 1)
		tr.SetTime(200)
		tr.Finish(0, 0)
		tr.Finish(1, 1)
		return tr
	}
	var a, b bytes.Buffer
	if err := build().WriteChromeTrace(&a, ChromeTraceConfig{Cores: 2}); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteChromeTrace(&b, ChromeTraceConfig{Cores: 2}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("identical event streams exported different documents")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	// 2 thread-name metadata events + 8 lifecycle events.
	if len(doc.TraceEvents) != 10 {
		t.Fatalf("exported %d events, want 10", len(doc.TraceEvents))
	}
	phases := map[string]int{}
	for _, e := range doc.TraceEvents {
		phases[e["ph"].(string)]++
	}
	if phases["M"] != 2 || phases["B"] != 2 || phases["E"] != 2 || phases["i"] != 4 {
		t.Fatalf("unexpected phase mix %v", phases)
	}
}

func TestRegistrySnapshotSortedAndDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("z.last").Add(3)
		r.Counter("a.first").Add(1)
		r.Gauge("m.gauge").Set(-7)
		h := r.Histogram("h.lat", []int64{10, 100})
		h.Observe(5)
		h.Observe(50)
		h.Observe(5000)
		return r
	}
	var a, b strings.Builder
	if err := build().WriteTable(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteTable(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("snapshot table not deterministic:\n%s\nvs\n%s", a.String(), b.String())
	}
	want := strings.Join([]string{
		"a.first=1",
		"h.lat.count=3",
		"h.lat.le_10=1",
		"h.lat.le_100=1",
		"h.lat.le_inf=1",
		"h.lat.sum=5055",
		"m.gauge=-7",
		"z.last=3",
	}, "\n") + "\n"
	if a.String() != want {
		t.Fatalf("snapshot table:\n%s\nwant:\n%s", a.String(), want)
	}
	var js bytes.Buffer
	if err := build().WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]int64
	if err := json.Unmarshal(js.Bytes(), &decoded); err != nil {
		t.Fatalf("WriteJSON output invalid: %v", err)
	}
	if decoded["z.last"] != 3 || decoded["h.lat.sum"] != 5055 {
		t.Fatalf("WriteJSON decoded %v", decoded)
	}
}

func TestRegistryHandleIdentityAndKindMismatch(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Fatalf("same name returned distinct counter handles")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("kind mismatch did not panic")
		}
	}()
	r.Gauge("x")
}

// TestCounterConcurrent exercises one counter from concurrent writers, as
// the sweep engine's workers share theirs (run under -race in CI's race
// step).
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("jobs")
			for range per {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("jobs").Value(); got != workers*per {
		t.Fatalf("counter sums to %d, want %d", got, workers*per)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(10, 10, 4)
	want := []int64{10, 100, 1000, 10000}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestProgressWritesAndFinishes(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, "sweep", 2)
	p.Step(false)
	p.Step(true)
	p.Finish()
	out := buf.String()
	if !strings.Contains(out, "sweep: 1/2") || !strings.Contains(out, "sweep: 2/2") {
		t.Fatalf("missing step lines in %q", out)
	}
	if !strings.Contains(out, "2/2 done, 1 cached") || !strings.HasSuffix(out, "\n") {
		t.Fatalf("missing finish line in %q", out)
	}
}
