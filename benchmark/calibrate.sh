#!/usr/bin/env bash
# Calibration: ten end-to-end runs per workload, each with another
# seed, plus one per-layer run per workload, appended to the result
# file given as $1. Judge the file with
#   .bench_build/bin/benchmark -check <file> [<second file>]
# Usage: bash benchmark/calibrate.sh benchmark/calibration/A.jsonl [first-seed]
set -euo pipefail
cd "$(dirname "$0")/.."
out="${1:?usage: calibrate.sh OUT.jsonl [first-seed]}"
first="${2:-1}"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
for w in sky-hot sky-explore sky-rw tpch-mix; do
  for i in 0 1 2 3 4 5 6 7 8 9; do
    bash benchmark/run.sh --workload "$w" --seed "$((first + i))" --seconds "$seconds" --trace 0 --out "$out" | tail -n 1 | cut -c1-120
  done
  bash benchmark/run.sh --workload "$w" --seed "$first" --seconds "$seconds" --trace 1 --out "$out" | tail -n 1 | cut -c1-120
done
