#pragma once
// Monte-Carlo resilience aggregation: K independent fault draws under one
// spec, summarized into the percentile degradation statistics the
// abl_fault_resilience bench plots as curves. Trial seeds derive
// deterministically from the spec seed, so a sweep is reproducible from a
// single number.

#include <cstdint>

#include "fault/degraded.hpp"
#include "fault/model.hpp"
#include "hsg/host_switch_graph.hpp"

namespace orp {

/// Aggregated degradation at one failure-rate point.
struct ResilienceCurvePoint {
  std::uint32_t trials = 0;
  /// Trials where at least one *live* host pair lost all routes.
  std::uint32_t partitioned_trials = 0;
  /// h-ASPL inflation = degraded h-ASPL / healthy h-ASPL over live pairs
  /// (+infinity when a trial leaves no connected pair). Percentiles over
  /// the trial distribution.
  double p50_haspl_inflation = 1.0;
  double p90_haspl_inflation = 1.0;
  double max_haspl_inflation = 1.0;
  /// Fraction of the original C(n,2) host pairs still communicating.
  double mean_reachable_fraction = 1.0;
  double min_reachable_fraction = 1.0;
  /// Fraction of hosts whose switch died, averaged over trials.
  double mean_dead_host_fraction = 0.0;
};

/// Runs `trials` independent draws of `spec` against `g` (trial i uses a
/// seed derived from spec.seed and i) and aggregates the reports. The
/// healthy graph must be connected.
ResilienceCurvePoint sweep_point(const HostSwitchGraph& g,
                                 const FaultSpec& spec, std::uint32_t trials);

/// The derived per-trial seed, exposed so tests can reproduce any single
/// trial of a sweep exactly.
std::uint64_t trial_seed(std::uint64_t base_seed, std::uint32_t trial);

}  // namespace orp
