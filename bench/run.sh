#!/usr/bin/env bash
# Builds bench/rldperf into .bench_build and runs it from the repository
# root. Everything the Go toolchain writes — build cache, temporary files,
# the binary — stays under .bench_build, inside the checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/bench/go.mod" ]; then
	echo "run.sh: run me from the repository root (bash bench/run.sh ...)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go -C "$root/bench" build -o "$build/rldperf" ./rldperf
exec "$build/rldperf" "$@"
