#!/usr/bin/env bash
# Builds the daemon, the figures binary and the benchmark from source,
# then runs the benchmark from the repository root. Everything it
# writes — binaries, Go build cache, run scratch, latest.json — stays
# under benchmark/out/.
#
#   benchmark/run.sh                                  all workloads; writes benchmark/out/latest.json and trace.json
#   benchmark/run.sh -repeat 5                        ... with spread per metric
#   benchmark/run.sh --workload predict-fleet --seed 1 --seconds 15 --trace 0
#   benchmark/run.sh compare a.json b.json
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/benchmark/out"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local
go build -o "$out/bin/caladrius" ./cmd/caladrius
go build -o "$out/bin/figures" ./cmd/figures
go build -C benchmark -o "$out/bin/benchmark" .
exec "$out/bin/benchmark" "$@"
