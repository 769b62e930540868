#!/bin/sh
# Builds the benchmark from the checkout's sources and runs it. The build and
# Go's caches stay inside the checkout, under .bench_build/.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
cd "$here"
go build -o "$build/semandaq-benchmark" .
exec "$build/semandaq-benchmark" "$@"
