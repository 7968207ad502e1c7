#include "fault/montecarlo.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/prng.hpp"
#include "common/require.hpp"
#include "hsg/metrics.hpp"

namespace orp {
namespace {

double percentile(std::vector<double> sorted_copy, double q) {
  // Nearest-rank on a sorted sample; callers pass by value so the sort is
  // contained here.
  std::sort(sorted_copy.begin(), sorted_copy.end());
  const std::size_t k = sorted_copy.size();
  const std::size_t idx = static_cast<std::size_t>(q * static_cast<double>(k - 1) + 0.5);
  return sorted_copy[std::min(idx, k - 1)];
}

}  // namespace

std::uint64_t trial_seed(std::uint64_t base_seed, std::uint32_t trial) {
  std::uint64_t state = base_seed ^ (0x9e3779b97f4a7c15ULL * (trial + 1));
  return splitmix64_next(state);
}

ResilienceCurvePoint sweep_point(const HostSwitchGraph& g,
                                 const FaultSpec& spec, std::uint32_t trials) {
  ORP_REQUIRE(trials > 0, "sweep needs at least one trial");
  const HostMetrics healthy = compute_host_metrics(g);
  ORP_REQUIRE(healthy.connected, "resilience sweep needs a connected baseline");

  ResilienceCurvePoint point;
  point.trials = trials;
  std::vector<double> inflation;
  inflation.reserve(trials);
  double reach_sum = 0.0;
  double dead_sum = 0.0;
  point.min_reachable_fraction = 1.0;

  for (std::uint32_t trial = 0; trial < trials; ++trial) {
    FaultSpec trial_spec = spec;
    trial_spec.seed = trial_seed(spec.seed, trial);
    const ResilienceReport report = evaluate_degraded(g, draw_faults(g, trial_spec));

    if (!report.live_hosts_connected) ++point.partitioned_trials;
    inflation.push_back(report.h_aspl / healthy.h_aspl);
    const double reach = report.reachable_fraction(g.num_hosts());
    reach_sum += reach;
    point.min_reachable_fraction = std::min(point.min_reachable_fraction, reach);
    dead_sum += static_cast<double>(report.dead_hosts) /
                static_cast<double>(g.num_hosts());
  }

  point.p50_haspl_inflation = percentile(inflation, 0.5);
  point.p90_haspl_inflation = percentile(inflation, 0.9);
  point.max_haspl_inflation = *std::max_element(inflation.begin(), inflation.end());
  point.mean_reachable_fraction = reach_sum / trials;
  point.mean_dead_host_fraction = dead_sum / trials;
  return point;
}

}  // namespace orp
