#!/usr/bin/env bash
# Builds alvis_bench and runs the four workloads, one process each, for one
# seed; every run prints its metric table and writes its result file.
#
#   benchmark/run.sh [seed] [seconds] [trace]
#
# Results land in benchmark/results/<seed>/<workload>.json (plus
# <workload>.spans.jsonl when trace is 1). Compare two such directories with
#   alvis_bench --compare benchmark/results/<a> benchmark/results/<b>
set -euo pipefail
cd "$(dirname "$0")/.."

seed="${1:-20080824}"
seconds="${2:-12}"
trace="${3:-0}"

exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --all --seed "$seed" --seconds "$seconds" --trace "$trace" \
    --out "benchmark/results/$seed"
