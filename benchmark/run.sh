#!/usr/bin/env bash
# Build tsyncbench once, run the four workloads in order (SETS end-to-end
# runs each, then one traced run each), and compare against a previous
# result file when one is given.
#
#   benchmark/run.sh [previous.jsonl]
#
# Environment: OUT (result file, default .bench_build/results.jsonl),
# SETS (default 5), SEED (first seed, default 1). The run length is
# run_seconds from BENCHMARK.json and nothing else.
set -euo pipefail
cd "$(dirname "$0")/.."

out=${OUT:-.bench_build/results.jsonl}
sets=${SETS:-5}
seed=${SEED:-1}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)

mkdir -p .bench_build "$(dirname "$out")"
go build -o .bench_build/tsyncbench ./benchmark/cmd/tsyncbench
: > "$out"
for w in sync clc-dense census-wide serve; do
	for ((i = 0; i < sets; i++)); do
		.bench_build/tsyncbench -workload "$w" -seed $((seed + i)) -seconds "$seconds" -out "$out" | tail -n 1
	done
	.bench_build/tsyncbench -workload "$w" -seed "$seed" -seconds "$seconds" -trace 1 \
		-out "$out" -spans ".bench_build/spans-$w.jsonl" | tail -n 1
done
echo "results in $out"
if [ $# -ge 1 ]; then
	.bench_build/tsyncbench -compare "$1" "$out"
fi
