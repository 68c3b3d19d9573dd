#!/usr/bin/env bash
# Full correctness gate: repo lint, the test suite pinned to each SIMD
# dispatch tier, then the test suite under each sanitizer.
#
#   tools/run_checks.sh                 # lint + SIMD tiers + ASan/UBSan/TSan
#   tools/run_checks.sh lint            # lint only
#   tools/run_checks.sh simd            # lint + SIMD-tier legs only
#   tools/run_checks.sh address         # lint + one sanitizer
#   SKIP_LINT=1 tools/run_checks.sh     # skip lint
#   SKIP_SIMD=1 tools/run_checks.sh     # skip the SIMD-tier legs
#   SKIP_TIDY=1 tools/run_checks.sh     # skip the clang-tidy leg
#
# The lint leg runs the regex linter (tools/lint.py), the token/scope-aware
# determinism analyzer (tools/analyze.py), the wire-schema drift gate
# (tools/schema.py --check vs the committed SCHEMA.lock/WIRE.lock), the
# fixture self-test, and the suppression-debt gate
# (lint.py --report-suppressions). The clang-tidy leg
# runs on full (no-argument) invocations when clang-tidy is on PATH; like
# the -Wthread-safety leg it is otherwise CI-enforced
# (.github/workflows/checks.yml, job `clang-tidy`).
#
# Each sanitizer gets its own build tree under build-<name>/ so incremental
# reruns are cheap. Debug-mode invariant validators (CDBTUNE_DCHECK=ON) are
# enabled in every sanitizer build: the gate checks logic invariants and
# memory/threading errors in the same run — including the util::Mutex
# lock-rank detector and its death tests (tests/mutex_test.cc), which are
# DCHECK-gated. TSan runs with CDBTUNE_THREADS=4 so the ComputeContext
# worker pool actually contends.
#
# The *static* half of the lock-discipline gate — clang -Wthread-safety
# -Werror over the CDBTUNE_GUARDED_BY annotations — needs clang++ and runs
# as the `thread-safety` job in .github/workflows/checks.yml; when clang++
# is on PATH this script runs it too (skipped with a note otherwise).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

jobs="$(nproc 2>/dev/null || echo 4)"
sanitizers=(address undefined thread)
run_simd=1
if [[ $# -gt 0 && "$1" != "lint" ]]; then
  if [[ "$1" == "simd" ]]; then
    sanitizers=()
  else
    # An explicit sanitizer list runs just those legs (CI's sanitizer
    # matrix fans out one job per sanitizer; the tier legs have their own).
    sanitizers=("$@")
    run_simd=0
  fi
fi
if [[ "${SKIP_SIMD:-0}" == "1" ]]; then
  run_simd=0
fi

failures=()

if [[ "${SKIP_LINT:-0}" != "1" ]]; then
  echo "==== lint ===="
  if python3 tools/lint.py &&
     python3 tools/analyze.py &&
     python3 tools/schema.py --check &&
     python3 tools/lint_selftest.py &&
     python3 tools/lint.py --report-suppressions; then
    echo "lint: OK"
  else
    failures+=("lint")
  fi
  echo
fi

if [[ $# -gt 0 && "$1" == "lint" ]]; then
  if [[ ${#failures[@]} -gt 0 ]]; then exit 1; fi
  exit 0
fi

# clang-tidy leg: full runs only (explicit sanitizer/simd invocations are
# targeted legs and should not pay for it).
if [[ $# -eq 0 && "${SKIP_TIDY:-0}" != "1" ]]; then
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "==== clang-tidy ===="
    if cmake -B build-tidy -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null &&
       python3 tools/run_clang_tidy.py --build-dir build-tidy -j "$jobs"; then
      echo "clang-tidy: OK"
    else
      failures+=("clang-tidy")
    fi
    echo
  else
    echo "==== clang-tidy: SKIPPED (no clang-tidy on PATH) ===="
    echo
  fi
fi

if [[ "$run_simd" == "1" ]]; then
  # Pin the GEMM dispatch tier via CDBTUNE_SIMD and rerun the whole suite:
  # the scalar leg always runs (scalar is the reference semantics every
  # vector kernel must reproduce bitwise — DESIGN.md §6), the AVX2 leg only
  # when the host CPU can execute it. The cross-tier equivalence test also
  # flips tiers internally, but these legs additionally prove every *other*
  # test (training trajectories, checkpoints, server) is tier-invariant.
  echo "==== SIMD dispatch tiers ===="
  cmake -B build-simd -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-simd -j "$jobs" >/dev/null
  simd_tiers=(scalar)
  if grep -q avx2 /proc/cpuinfo 2>/dev/null && \
     grep -q fma /proc/cpuinfo 2>/dev/null; then
    simd_tiers+=(avx2)
  else
    echo "(host CPU lacks avx2+fma; running the scalar leg only)"
  fi
  for tier in "${simd_tiers[@]}"; do
    echo "---- CDBTUNE_SIMD=${tier} ----"
    if (cd build-simd && CDBTUNE_SIMD="$tier" ctest --output-on-failure -j "$jobs"); then
      echo "simd-${tier}: OK"
    else
      failures+=("simd-${tier}")
    fi
  done
  echo
fi

if [[ ${#sanitizers[@]} -eq 0 ]]; then
  echo "==== summary ===="
  if [[ ${#failures[@]} -gt 0 ]]; then
    echo "FAILED: ${failures[*]}"
    exit 1
  fi
  echo "all checks passed (lint + simd tiers)"
  exit 0
fi

if [[ "${SKIP_TSA:-0}" != "1" ]] && command -v clang++ >/dev/null 2>&1; then
  echo "==== clang thread-safety analysis ===="
  if cmake -B build-tsa -S . \
       -DCMAKE_CXX_COMPILER=clang++ \
       -DCMAKE_BUILD_TYPE=Debug \
       -DCDBTUNE_WERROR=ON >/dev/null &&
     cmake --build build-tsa -j "$jobs" >/dev/null; then
    echo "thread-safety: OK"
  else
    failures+=("thread-safety")
  fi
  echo
elif [[ "${SKIP_TSA:-0}" != "1" ]]; then
  echo "==== clang thread-safety analysis: SKIPPED (no clang++ on PATH) ===="
  echo
fi

for san in "${sanitizers[@]}"; do
  build_dir="build-${san}"
  echo "==== sanitizer: ${san} (${build_dir}) ===="
  cmake -B "$build_dir" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCDBTUNE_SANITIZE="$san" \
    -DCDBTUNE_DCHECK=ON >/dev/null
  cmake --build "$build_dir" -j "$jobs" >/dev/null

  env_vars=()
  case "$san" in
    address)
      env_vars+=("ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1")
      ;;
    undefined)
      env_vars+=("UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1")
      ;;
    thread)
      # Force real parallelism through the compute pool so TSan sees the
      # cross-thread traffic it is meant to vet.
      env_vars+=("TSAN_OPTIONS=halt_on_error=1" "CDBTUNE_THREADS=4")
      ;;
  esac

  if (cd "$build_dir" && env "${env_vars[@]}" ctest --output-on-failure -j "$jobs"); then
    echo "${san}: OK"
  else
    failures+=("$san")
  fi
  echo
done

echo "==== summary ===="
if [[ ${#failures[@]} -gt 0 ]]; then
  echo "FAILED: ${failures[*]}"
  exit 1
fi
simd_note=""
if [[ "$run_simd" == "1" ]]; then simd_note="simd tiers + "; fi
echo "all checks passed (lint + ${simd_note}${sanitizers[*]})"
