#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes (binary, Go build cache, compiler temp files)
# goes under .bench_build/ in the checkout this is run from.
set -euo pipefail
root=$PWD
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
go -C "$root/benchmark" build -o "$out/rodsp-benchmark" .
exec "$out/rodsp-benchmark" "$@"
