#!/usr/bin/env bash
# Builds the benchmark and its server from the checkout's sources, then
# runs it with the given arguments from the checkout's root:
#
#   bash perfbench/run.sh --workload point-read --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$root/.bench_build/go-cache"
export GOMODCACHE="$root/.bench_build/go-mod"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=
cd "$root/perfbench"
go build -o "$out/bench" . >&2
go build -o "$out/server" ./server >&2
cd "$root"
exec "$out/bench" -server "$out/server" -out "$out" "$@"
