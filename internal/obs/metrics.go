package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.  Add is an uncontended
// atomic increment; single-writer users (the simulator's goroutine) pay a
// few nanoseconds per update.  A nil *Counter is the disabled state: Add
// returns immediately.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins metric.  A nil *Gauge is the disabled state.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge's current value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the gauge's current value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram: bounds are inclusive upper bucket
// edges, with an implicit overflow bucket above the last bound.  Observe is
// a binary search plus an atomic increment.  A nil *Histogram is the
// disabled state.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1: the last is the overflow bucket
	count  atomic.Int64
	sum    atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations (0 on a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on a nil histogram).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// ExpBuckets returns n bucket bounds growing geometrically from start by
// factor — the conventional shape for latency- and size-like metrics.
func ExpBuckets(start, factor int64, n int) []int64 {
	if start < 1 {
		start = 1
	}
	if factor < 2 {
		factor = 2
	}
	bounds := make([]int64, 0, n)
	for v := start; len(bounds) < n; v *= factor {
		bounds = append(bounds, v)
	}
	return bounds
}

// metric is one registered metric of any kind.
type metric struct {
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds named metrics and renders deterministic snapshots.
// Handles are created on first use and shared afterwards, so publishers in
// different packages (cmpsim, sched, cache, memsys, sweep) can contribute
// to one registry without coordination.  Registration takes a mutex;
// updates through the returned handles are lock-free.
//
// A nil *Registry is the disabled state: every lookup returns a nil handle
// whose update methods return immediately, so publishing code needs no
// branches and costs nothing when metrics are off.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// lookup returns the named metric, creating it with mk on first use.
// Kind mismatches (a name registered twice as different kinds) panic: they
// are programming errors, like duplicate scheduler registrations.
func (r *Registry) lookup(name string, mk func() *metric, pick func(*metric) bool) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.metrics[name]
	if !ok {
		m = mk()
		r.metrics[name] = m
		return m
	}
	if !pick(m) {
		panic(fmt.Sprintf("obs: metric %q re-registered as a different kind", name))
	}
	return m
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	m := r.lookup(name,
		func() *metric { return &metric{counter: &Counter{}} },
		func(m *metric) bool { return m.counter != nil })
	return m.counter
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	m := r.lookup(name,
		func() *metric { return &metric{gauge: &Gauge{}} },
		func(m *metric) bool { return m.gauge != nil })
	return m.gauge
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds (ascending inclusive upper edges) on first use; later callers
// share the first registration's buckets.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	m := r.lookup(name,
		func() *metric {
			b := make([]int64, len(bounds))
			copy(b, bounds)
			return &metric{hist: &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}}
		},
		func(m *metric) bool { return m.hist != nil })
	return m.hist
}

// Sample is one flattened snapshot entry.
type Sample struct {
	// Name is the metric name; histogram entries carry stable sub-key
	// suffixes (".count", ".sum", ".le_<bound>", ".le_inf").
	Name string
	// Value is the sampled value.
	Value int64
}

// Snapshot returns a flattened, name-sorted view of every metric.  The
// flattening and ordering are deterministic, so two registries fed the same
// updates snapshot identically — which is what makes the CLI `-v` tables
// testable.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Sample, 0, len(r.metrics))
	for name, m := range r.metrics {
		switch {
		case m.counter != nil:
			out = append(out, Sample{Name: name, Value: m.counter.Value()})
		case m.gauge != nil:
			out = append(out, Sample{Name: name, Value: m.gauge.Value()})
		case m.hist != nil:
			out = append(out, Sample{Name: name + ".count", Value: m.hist.Count()})
			out = append(out, Sample{Name: name + ".sum", Value: m.hist.Sum()})
			for i, b := range m.hist.bounds {
				out = append(out, Sample{Name: fmt.Sprintf("%s.le_%d", name, b), Value: m.hist.counts[i].Load()})
			}
			out = append(out, Sample{Name: name + ".le_inf", Value: m.hist.counts[len(m.hist.bounds)].Load()})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteTable writes the snapshot as sorted "name=value" lines — the format
// the CLIs print under -v.
func (r *Registry) WriteTable(w io.Writer) error {
	for _, s := range r.Snapshot() {
		if _, err := fmt.Fprintf(w, "%s=%d\n", s.Name, s.Value); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON writes the snapshot as a single expvar-style JSON object with
// sorted keys — the hook a sweep server can expose over HTTP.
func (r *Registry) WriteJSON(w io.Writer) error {
	samples := r.Snapshot()
	if _, err := io.WriteString(w, "{"); err != nil {
		return err
	}
	for i, s := range samples {
		sep := ","
		if i == 0 {
			sep = ""
		}
		if _, err := fmt.Fprintf(w, "%s%q:%d", sep, s.Name, s.Value); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "}\n")
	return err
}
