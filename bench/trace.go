package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the call.  Spans of one job or request share its id; parent
// is the index of the enclosing span, -1 for a root.
type span struct {
	name       string
	id         string
	parent     int
	lane       int // Chrome-trace thread row: a worker, a client or the server
	start, end time.Duration
}

// Chrome-trace rows for spans that no worker or client owns.
const (
	laneServer = 100
	laneCache  = 200
)

// tracer keeps spans in memory until the benchmark writes them out.  A nil
// tracer records nothing, so untraced runs pay only a nil check.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name, id string, parent, lane int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, lane: lane, start: now, end: -1})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// mark returns the number of spans recorded so far, to delimit a phase.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.  Children may overlap each other (a client's
// stream and first-row phases, or two workers under one parent); the union
// of their intervals is subtracted once.  Unfinished spans count as empty.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	type interval struct{ lo, hi time.Duration }
	for i, s := range spans {
		if s.end < s.start {
			continue
		}
		var ivs []interval
		for _, c := range children[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				ivs = append(ivs, interval{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach time.Duration
		reach = s.start
		for _, iv := range ivs {
			lo := max(iv.lo, reach)
			if iv.hi > lo {
				covered += iv.hi - lo
				reach = iv.hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, microsecond timestamps), loadable in chrome://tracing or Perfetto.
func writeChrome(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		if s.end < s.start {
			continue
		}
		events = append(events, event{
			Name: s.name, Cat: "bench", Ph: "X",
			TS:  float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: s.lane,
			Args: map[string]any{"id": s.id, "parent": s.parent},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
