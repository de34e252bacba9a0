#!/usr/bin/env bash
# Builds semwebd and the benchmark from this checkout's sources into
# .bench_build/ at the repository root, then runs the benchmark with
# the arguments given, e.g.
#
#   bash perfbench/run.sh --workload query --seed 1 --seconds 15 --trace 0
#
# Every file the build and the run write stays under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/run"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/bin/semwebd" ./cmd/semwebd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -semwebd "$out/bin/semwebd" -workdir "$out/run" "$@"
