#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Keeps every build artefact inside
# the checkout (.bench_build/), builds the benchmark module, and hands the
# driver's arguments to it. Equivalent to: cd bench && go run . <args>
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/gpdbenchmark" .
exec "$build/gpdbenchmark" "$@"
