#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash perfbench/run.sh --workload seg_chains --seed 1 --seconds 28 --trace 0
# Run from the repository root. Every build and run artefact stays under
# $CARGO_TARGET_DIR (default .bench_build) in the working directory.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

# XDG_CONFIG_HOME keeps the go command's own config and telemetry files
# in the build directory too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -work "$out/work" -spans "$out/spans" "$@"
