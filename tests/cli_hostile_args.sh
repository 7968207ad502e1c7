#!/usr/bin/env bash
# Feeds command-line programs malformed and out-of-range numeric options.
# Each run must end within seconds with exit status 2 and an "error: "
# line naming the problem: not abort, hang, or run on a wrapped value.
#
# Usage: cli_hostile_args.sh QUICKSTART ABL_RANDOM_VS_SA CLUSTER_PLANNER
set -u
quickstart=$1
random_vs_sa=$2
cluster_planner=$3
failures=0

expect_usage_error() {
  local err rc
  err=$(timeout 10 "$@" 2>&1 >/dev/null)
  rc=$?
  if [[ $rc -ne 2 || $err != *"error: "* ]]; then
    echo "FAIL (exit $rc): $*"
    echo "$err" | tail -n 3
    failures=$((failures + 1))
  fi
}

expect_usage_error "$quickstart" --hosts abc
expect_usage_error "$quickstart" --hosts -5
expect_usage_error "$quickstart" --hosts 4294967297
expect_usage_error "$quickstart" --hosts 1
expect_usage_error "$quickstart" --iters 0
expect_usage_error "$random_vs_sa" --replicas 99999999999999999999
expect_usage_error "$random_vs_sa" --replicas abc
expect_usage_error "$random_vs_sa" --replicas 4294967297
expect_usage_error "$random_vs_sa" --random-trials -1
expect_usage_error "$cluster_planner" --radix-step 0
expect_usage_error "$cluster_planner" --radix-max 65536

[[ $failures -eq 0 ]]
