#!/usr/bin/env bash
# Feeds command-line programs malformed and out-of-range options.
# Each run must end within seconds with exit status 2 and an "error: "
# line naming the problem: not abort, hang, or run on a wrapped value.
#
# Usage: cli_hostile_args.sh QUICKSTART ABL_RANDOM_VS_SA CLUSTER_PLANNER
#          DESIGN_NETWORK MPI_SIMULATION
set -u
quickstart=$1
random_vs_sa=$2
cluster_planner=$3
design_network=$4
mpi_simulation=$5
failures=0

expect_usage_error() {
  expect_usage_error_naming "" "$@"
}

# expect_usage_error_naming WORD COMMAND...: the "error: " line must also
# contain WORD.
expect_usage_error_naming() {
  local word=$1 err rc
  shift
  err=$(timeout 10 "$@" 2>&1 >/dev/null)
  rc=$?
  if [[ $rc -ne 2 || $err != *"error: "*"$word"* ]]; then
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
# The telemetry sampling caps are fixed; their old spec keys are unknown.
expect_usage_error "$random_vs_sa" --net-telemetry flow_sample=4
expect_usage_error "$random_vs_sa" --net-telemetry link_top_k=8
expect_usage_error "$random_vs_sa" --net-telemetry default
# The snapshot sampler and its interval option are gone.
expect_usage_error "$random_vs_sa" --obs-snapshot-ms 25
# So are the in-memory convergence trace's options: the curve is in the
# --obs-out trace's annealer.* series.
expect_usage_error "$random_vs_sa" --trace-csv x
expect_usage_error "$random_vs_sa" --trace-every 5
expect_usage_error "$cluster_planner" --radix-step 0
expect_usage_error "$cluster_planner" --radix-max 65536
# Radix 6 leaves no host port on a 3-D torus of base >= 3, and base 2
# holds only 24 hosts: the baseline search must refuse at once.
expect_usage_error_naming torus "$mpi_simulation" --topology torus --hosts 64 --radix 6
expect_usage_error_naming torus "$design_network" --hosts 100 --radix 6 --iters 100

# A trace sink that cannot be written (a full disk) must fail the run with
# exit status 1 and name the sink, not exit 0 with a truncated trace.
expect_write_failure() {
  local err rc
  err=$(ORP_RUN_LEDGER=none timeout 20 "$@" 2>&1 >/dev/null)
  rc=$?
  if [[ $rc -ne 1 || $err != *"[obs] error: /dev/full: write failed"* ]]; then
    echo "FAIL (exit $rc): $*"
    echo "$err" | tail -n 3
    failures=$((failures + 1))
  fi
}

if [[ -e /dev/full ]]; then
  expect_write_failure "$random_vs_sa" --iters 200 --random-trials 1 --obs-out /dev/full
  expect_write_failure "$quickstart" --hosts 32 --radix 6 --iters 200 --obs-out /dev/full
fi

[[ $failures -eq 0 ]]
