#!/usr/bin/env bash
# Builds the benchmark (Release) and runs all four workloads once, printing
# every metric as "workload metric value unit". Exits non-zero if any
# correctness check or request fails.
#
#   e2ebench/run_e2e.sh [--seed N] [--seconds S] [--trace 0|1] [--record F]
#
# --record F appends the run to F for e2ebench/compare.py.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec python3 "${here}/run.py" --all "$@"
