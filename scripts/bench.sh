#!/usr/bin/env bash
# Benchmark runner: regenerates BENCH_decode.json at the repo root. Pass
# extra cmd/bench flags through, e.g.:
#
#   scripts/bench.sh -quick
#
# or run the benchmark directly:
#
#   go run ./cmd/bench -quick -out /tmp/bench.json
#
# Whole jobs (characterization, EvaluateAll, workload campaign, fleet
# run) are measured by perfbench instead:
#
#   bash perfbench/run.sh --workload ecc_eval --seed 7 --seconds 15 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== decode kernels (BENCH_decode.json) =="
go run ./cmd/bench "$@"
