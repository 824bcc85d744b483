// Package obs is the simulator's observability layer: a task-lifecycle
// tracer that exports Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing), a low-overhead metrics registry (counters, gauges,
// fixed-bucket histograms) with deterministic snapshot rendering, and a
// live progress reporter for long sweeps.
//
// Everything here is built to be zero-cost when disabled.  The tracer and
// every metric handle are nil-receiver safe: instrumentation points call
// methods on possibly-nil pointers unconditionally, and a nil receiver
// returns immediately without allocating, so the simulator's hot path and
// allocation budget are untouched when no tracer or registry is attached
// (pinned by the cmpsim golden-fingerprint and AllocsPerRun tests).
// Instrumentation also never feeds back into simulated time: a traced run
// produces bit-identical cycles and cache statistics to an untraced one.
//
// The registry's snapshots are deterministic — sorted by metric name, with
// histograms flattened to stable sub-keys — so the `-v` metric tables of
// cmd/cmpsim and cmd/sweep are byte-reproducible and testable, and
// Registry.WriteJSON is the expvar-style snapshot hook a future sweepd
// server can expose over HTTP.
package obs
