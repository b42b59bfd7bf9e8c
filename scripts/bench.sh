#!/usr/bin/env bash
# Benchmark runner: regenerates BENCH_decode.json, BENCH_cluster.json,
# and BENCH_serve.json at the repo root. Pass extra cmd/bench flags
# through to every run, e.g.:
#
#   scripts/bench.sh -quick
#
# or run a single benchmark directly:
#
#   go run ./cmd/bench -quick -out /tmp/bench.json
#   go run ./cmd/bench -cluster
#
# Whole jobs (characterization, EvaluateAll, workload campaign, fleet
# run) are measured by perfbench instead:
#
#   bash perfbench/run.sh --workload ecc_eval --seed 7 --seconds 15 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== decode kernels (BENCH_decode.json) =="
go run ./cmd/bench "$@"

echo "== distributed campaign scaling (BENCH_cluster.json) =="
go run ./cmd/bench -cluster "$@"

echo "== online serving tier (BENCH_serve.json) =="
go run ./cmd/bench -serve "$@"
