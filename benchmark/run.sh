#!/usr/bin/env bash
# Builds the benchmark and runs every workload untraced and traced, printing
# one METRIC line per workload and metric and writing all samples to one JSON
# file (build-benchmark/set.json unless --out is given). Exits non-zero when a
# correctness check fails.
#
#   benchmark/run.sh [--seed N] [--reps 7] [--seconds 15] [--out FILE]
#   benchmark/run.sh --record   # two sets into benchmark/results/baseline_4cpu.json
#   benchmark/run.sh --smoke    # every workload at 1/50 horizon, all checks
#
# See benchmark/README.md.
set -euo pipefail
exec python3 "$(dirname "$0")/run.py" --set "$@"
