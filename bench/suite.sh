#!/usr/bin/env bash
# Runs the whole suite: every workload, <runs> times, each run with a seed of
# its own, and keeps what each run printed as <outdir>/<workload>.seed<n>.json
# — the layout `go run ./bench/compare A/ B/` reads.
#   bash bench/suite.sh <outdir> [runs=5] [first-seed=1] [trace=0]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out=${1:?usage: suite.sh <outdir> [runs] [first-seed] [trace]}
runs=${2:-5} first=${3:-1} trace=${4:-0}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")
mkdir -p "$out"
for ((i = 0; i < runs; i++)); do
  seed=$((first + i))
  for w in resp-read-small http-read-small resp-read-large resp-churn-durable; do
    bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1 > "$out/$w.seed$seed.json"
  done
done
