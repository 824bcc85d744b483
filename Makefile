GO ?= go
# bash + pipefail so piped recipes (bench) fail when go test fails, not
# just when the final pipeline stage does.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

.PHONY: all build test race-sweep race-pool fuzz-cache fuzz-wire fuzz-arena doc-check vet fmt-check lint bench bench-gate bench-quick bench-module ci clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrent pieces — the sweep engine's worker pool, the scheduler
# registry (Register/New may race against running sweeps), the metrics
# registry's counters, the sweep service's single-flight dedup and its
# memory soak, the cross-process cache leases (two engines contending for
# one directory's locks), the fault-injection shims they are tested
# through, the graph kernels (whose DAG builders sweeps run concurrently),
# the simulator and profiler (concurrent runs share one DAG), and the
# recorded streams and DAGs (every job of a sweep template reads one DAG's
# recordings) — run under the race detector (CI runs this step too).
race-sweep:
	$(GO) test -race ./internal/sweep/... ./internal/sched/... ./internal/obs/... ./internal/sweepsvc/... ./internal/faultinject/... ./internal/graph/... ./internal/cmpsim/... ./internal/profile/... ./internal/refs/... ./internal/dag/...

# The worker pool's timing-dependent contracts, repeated under the race
# detector: dispatch around in-flight template builds (engine and service),
# parallel cache lookups within one template, a held-back job's lease, one
# Workers bound across concurrent runs, the lowest-index error and
# cancellation between jobs, and the service's single-flight, admission,
# cancellation and drain.  CI runs this step too.
POOL_TESTS = ^(TestDispatchDoesNotParkWorker|TestCacheLookupsOfOneTemplateOverlap|TestHeldJobKeepsItsLease|TestEngineBoundsConcurrentRuns|TestEngineErrorIsDeterministic|TestRunContextCancelled|TestServiceDispatchesAroundBuilds|TestSingleFlightAcrossClients|TestAdmissionSaturation|TestCancelSkipsUnstartedJobs|TestDrainRejectsAndFinishes)$$
race-pool:
	$(GO) test -race -count=20 -run '$(POOL_TESTS)' ./internal/sweep ./internal/sweepsvc

# 30-second hunt on the disk cache's entry decoder, DiskCache.Get (the
# committed corpus under internal/sweep/testdata/fuzz replays in plain `go
# test`).  CI runs this step too.
fuzz-cache:
	$(GO) test -run '^$$' -fuzz 'FuzzDiskCacheGet$$' -fuzztime 30s ./internal/sweep

# 30-second hunt on the sweep service's wire decoder: DecodeRequest,
# Validate and ExpandPoints (the committed corpus under
# internal/sweepsvc/testdata/fuzz replays in plain `go test`).  CI runs this
# step too.
fuzz-wire:
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeRequest$$' -fuzztime 30s ./internal/sweepsvc

# 30-second hunt on the recorded-stream codec: arbitrary streams must record,
# decode back exactly however they are read, and resolve to one recording
# per content in a trace store (the committed corpus under
# internal/refs/testdata/fuzz replays in plain `go test`).  CI runs this step
# too.
fuzz-arena:
	$(GO) test -run '^$$' -fuzz 'FuzzRecordedRoundTrip$$' -fuzztime 30s ./internal/refs

# The docs gate: every package of the module (the public facade, the
# internal packages and the commands, as `go list ./...` names them) must
# carry a package comment and a doc comment on every exported identifier.
# CI runs this step too.
doc-check:
	$(GO) run ./cmd/doccheck $$($(GO) list -f '{{.Dir}}' ./...)

vet:
	$(GO) vet ./...

# fmt-check fails (listing the offending files) if any file is not gofmt'd.
fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

lint: fmt-check vet doc-check

# The simulator benchmark suite -> BENCH_simulator.json: ns/op, B/op,
# allocs/op and the shape metrics (L2-MPKI etc.) for every Simulate*
# benchmark, the build-side Build*DAG benchmarks (one per graph kernel) and
# the Profiler* benchmarks, in benchstat-comparable form (each entry keeps
# its raw line).  Record the committed baseline with GOMAXPROCS=1, so its
# names carry no -N suffix and benchgate matches them on any runner.
# Compare two commits with
#   jq -r '.benchmarks[].raw' old.json > old.txt   (and likewise new)
#   benchstat old.txt new.txt
BENCH ?= BenchmarkSimulate|BenchmarkBuild|BenchmarkProfiler
BENCHTIME ?= 1s
BENCH_NOTES ?=
bench:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem -benchtime $(BENCHTIME) . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson -notes '$(BENCH_NOTES)' -o BENCH_simulator.json

# The gating form: rerun the suite into a scratch report and compare it with
# cmd/benchgate against the committed BENCH_simulator.json baseline.  The
# tolerance band: ns/op may grow at most TIME_TOLERANCE (fractional, default
# +10%); B/op at most BYTES_TOLERANCE (byte totals move with runtime
# internals, but deterministically, so the band is tight); allocs/op may not
# grow at all — allocation counts are deterministic, so any increase is a
# real regression.  CI runs this step gating.
TIME_TOLERANCE ?= 0.10
BYTES_TOLERANCE ?= 0.10
BENCH_CANDIDATE ?= /tmp/cmpsched_bench_candidate.json
bench-gate:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem -benchtime $(BENCHTIME) . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson -o $(BENCH_CANDIDATE)
	$(GO) run ./cmd/benchgate -baseline BENCH_simulator.json \
		-candidate $(BENCH_CANDIDATE) -time-tolerance $(TIME_TOLERANCE) \
		-bytes-tolerance $(BYTES_TOLERANCE)

# The full benchmark suite at quick scale: one iteration per benchmark so
# the figure benchmarks, the sweep-engine serial/parallel/cached trio and
# the simulator micro-benchmarks all report without taking minutes.
bench-quick:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The benchmark under bench/ is its own module, which `./...` does not
# reach: vet and test it, so an internal API change that breaks it fails
# here rather than only when the benchmark runs.  CI runs this step too.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

ci: build lint test race-sweep race-pool bench-module

clean:
	$(GO) clean ./...
