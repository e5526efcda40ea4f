#!/usr/bin/env bash
# Builds dfbench from source into build-bench/ and runs workloads, each in a
# fresh process.
#
#   benchmark/run.sh [--workload=NAME|all] [--seed=S] [--seconds=S]
#                    [--trace=0|1 | --traced] [--out=DIR] [--smoke]
#
# Options also take the "--name value" form. Prints every metric as
# "workload metric value unit", writes one result JSON per workload into
# DIR (default build-bench/results), and ends with one JSON line per
# workload. Exits non-zero if the build or any correctness check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build-bench"
workload=all
trace=0
out="$build/results"
args=()
while (($#)); do
  case "$1" in
    --workload=*) workload="${1#*=}" ;;
    --workload) workload="${2:?--workload needs a value}"; shift ;;
    --trace=*) trace="${1#*=}" ;;
    --trace) trace="${2:?--trace needs a value}"; shift ;;
    --traced) trace=1 ;;
    --out=*) out="${1#*=}" ;;
    --out) out="${2:?--out needs a value}"; shift ;;
    --smoke) args+=("$1") ;;
    --*=*) args+=("$1") ;;
    --*) args+=("$1" "${2:?$1 needs a value}"); shift ;;
    *) echo "run.sh: unexpected argument $1" >&2; exit 2 ;;
  esac
  shift
done
case "$trace" in
  0) bin="$build/dfbench" ;;
  1) bin="$build/dfbench_traced" ;;
  *) echo "run.sh: --trace must be 0 or 1" >&2; exit 2 ;;
esac

# Build output goes to stderr: stdout carries only results.
jobs="$(nproc 2>/dev/null || echo 2)"
((jobs > 4)) && jobs=4
cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2 || exit 1
cmake --build "$build" -j "$jobs" >&2 || exit 1

# Only a repository rooted here counts: git must not search parent
# directories of a plain source checkout.
rev="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" \
  git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
if [[ "$workload" == all ]]; then
  names=(theta_milc_prod cori_milc_prod_sharded hacc_ctl_bisection system_stream)
else
  names=("$workload")
fi
status=0
for name in "${names[@]}"; do
  "$bin" --workload "$name" --trace "$trace" --out "$out" \
    --pins "$here/digests.txt" --git-rev "$rev" "${args[@]}" || status=$?
done
exit "$status"
