#!/usr/bin/env bash
# Builds the kanonperf benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash bench/run.sh --workload k-adt10k --seed 42 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the build writes (compiler
# cache, temporary files, the binary) stays under .bench_build/ in the
# current directory. The build fails, and the script exits non-zero without
# running anything, when the kanon sources are not next to bench/.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOENV=off GOWORK=off

(cd bench && go build -o "$build/kanonperf" ./kanonperf)
exec "$build/kanonperf" "$@"
