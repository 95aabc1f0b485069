#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments:
#
#   bash bench/run.sh --workload fleet --seed 3 --seconds 15 --trace 0
#
# The binary, the Go build cache and anything else the toolchain writes go
# under .bench_build/ at the checkout's root, so a run touches nothing
# outside its checkout. The benchmark runs from bench/, where it writes its
# span files to out/.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build"
export GOCACHE="$build/go-cache" XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local
cd "$here"
go build -o "$build/bench" .
exec "$build/bench" "$@"
