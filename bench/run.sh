#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, from the repository root:
#
#   bash bench/run.sh --workload paper-fig2 --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write -- the Go build cache, the binary,
# temporary cache directories and trace files -- stays under .bench_build/
# at the repository root.  The build is offline: the benchmark module
# depends only on the repository's own module (bench/go.mod replaces it
# with ../), so outside a checkout of the repository the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps telemetry counters under the user configuration
# directory.
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOENV=off CGO_ENABLED=0

# Build to a private name and rename, so a concurrent run never executes a
# half-written binary.
(cd bench && go build -o "$out/cmpbench.$$" .)
mv -f "$out/cmpbench.$$" "$out/cmpbench"
exec "$out/cmpbench" "$@"
