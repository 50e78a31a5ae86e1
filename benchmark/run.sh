#!/usr/bin/env bash
# The benchmark's one entry point: builds it from source into .bench_build/
# (Go's build cache too, so nothing is written outside the checkout) and
# runs it from the repository root with the arguments given.
#
#   bash benchmark/run.sh --workload serve_hit --seed 1 --seconds 15 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME: the go command keeps its telemetry counters there;
# GOTMPDIR: its scratch files during a build.
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config" \
	GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -C benchmark -o "$build/copmecs-benchmark" .
exec "$build/copmecs-benchmark" "$@"
