#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload kmodes-cold --seed 1 --seconds 35 --trace 0
#
# Run from the repository root. Everything the build writes (compiler
# cache, binary) and everything a run writes stays under .bench_build/
# in the checkout. The build never uses the network.
set -euo pipefail
root="$(pwd)"
# Build output goes to $CARGO_TARGET_DIR when the caller sets it (a
# build-output directory inside the checkout), else to .bench_build.
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --scratch "$out/scratch" "$@"
