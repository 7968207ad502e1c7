#!/usr/bin/env bash
# Runs the comparison benches and examples that size conventional
# baselines (torus, dragonfly, fat-tree) at small host counts, and the
# Fig. 5 switch-count sweep, whose small-m points make the delta evaluator
# repair moves that dirty most sources. Each run must exit 0 and print the
# labels of the topologies or panels it covers.
#
# Usage: bench_lineup_smoke.sh ABL_DEADLOCK_FREE ABL_TRAFFIC ABL_ROUTING
#          ABL_FLUID_VS_PACKET ABL_FAULT_RESILIENCE FIG10_VS_DRAGONFLY
#          FIG11_VS_FATTREE DESIGN_NETWORK MPI_SIMULATION
#          FIG05_HASPL_VS_SWITCHES
set -u
deadlock_free=$1
traffic=$2
routing=$3
fluid_vs_packet=$4
fault_resilience=$5
fig10=$6
fig11=$7
design_network=$8
mpi_simulation=$9
fig05=${10}
failures=0

export ORP_SA_ITERS=200 ORP_SIM_FRAC=1 ORP_RUN_LEDGER=none
unset ORP_OBS_OUT ORP_CSV_DIR

# expect_labels "LABEL|LABEL|..." COMMAND...
expect_labels() {
  local labels=$1 out rc label
  shift
  out=$(timeout 60 "$@" 2>&1)
  rc=$?
  if [[ $rc -ne 0 ]]; then
    echo "FAIL (exit $rc): $*"
    echo "$out" | tail -n 3
    failures=$((failures + 1))
    return
  fi
  IFS='|' read -ra wanted <<<"$labels"
  for label in "${wanted[@]}"; do
    if [[ $out != *"$label"* ]]; then
      echo "FAIL (no '$label' in stdout): $*"
      failures=$((failures + 1))
    fi
  done
}

lineup="proposed r=12|3-D torus|dragonfly|fat-tree"
expect_labels "$lineup" "$deadlock_free" --hosts 64
expect_labels "$lineup" "$traffic" --hosts 64
expect_labels "$lineup" "$fault_resilience" --hosts 64 --trials 4
expect_labels "proposed r=12|fat-tree|3-D torus" "$routing" --hosts 64
expect_labels "proposed|fat-tree" "$fluid_vs_packet" --hosts 64
expect_labels "dragonfly (a=8, r=15)|proposed" "$fig10"
expect_labels "16-ary fat-tree (r=16)|proposed" "$fig11"
expect_labels "proposed (ORP)|3-D torus (N=2, r=16)|dragonfly (a=4, r=7)|8-ary fat-tree (r=8)" \
  "$design_network" --hosts 64
expect_labels "topology: torus  hosts=64  switches=8" \
  "$mpi_simulation" --topology torus --hosts 64 --kernels CG
expect_labels "topology: dragonfly  hosts=64  switches=36" \
  "$mpi_simulation" --topology dragonfly --hosts 64 --kernels CG
expect_labels "topology: fattree  hosts=64  switches=80" \
  "$mpi_simulation" --topology fattree --hosts 64 --kernels CG
expect_labels "Fig. 5 panel: n=128, r=24|Fig. 5 panel: n=256, r=12|Fig. 5 panel: n=1024, r=12|Fig. 5 panel: n=1024, r=24|<- m_opt" \
  "$fig05"

[[ $failures -eq 0 ]]
