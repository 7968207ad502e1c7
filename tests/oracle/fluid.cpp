#include "oracle/fluid.hpp"

#include <algorithm>
#include <limits>

#include "common/require.hpp"
#include "oracle/fairshare.hpp"

namespace orp {

ReferencePhase reference_phase(const RoutingTable& routes,
                               const SimParams& params,
                               const std::vector<HostId>& rank_to_host,
                               const std::vector<Message>& messages,
                               std::uint64_t phase_index) {
  std::vector<std::vector<LinkId>> paths;
  std::vector<double> bytes;
  std::vector<std::uint32_t> hops;
  for (const Message& m : messages) {
    if (m.src == m.dst) continue;
    const HostId src = rank_to_host[m.src];
    const HostId dst = rank_to_host[m.dst];
    paths.emplace_back();
    if (params.routing == RoutingPolicy::kEcmp) {
      const std::uint64_t key = (static_cast<std::uint64_t>(m.src) << 40) ^
                                (static_cast<std::uint64_t>(m.dst) << 16) ^
                                phase_index;
      hops.push_back(routes.append_host_path_ecmp(src, dst, key, paths.back()));
    } else {
      hops.push_back(routes.append_host_path(src, dst, paths.back()));
    }
    bytes.push_back(static_cast<double>(m.bytes));
  }
  ReferencePhase result;
  const std::size_t num_flows = paths.size();
  if (num_flows == 0) return result;

  std::vector<std::uint8_t> active(num_flows, 1);
  std::vector<double> finish(num_flows, 0.0), progress(num_flows, 0.0), rates;
  std::size_t active_count = num_flows;
  for (std::size_t f = 0; f < num_flows; ++f) {
    if (bytes[f] == 0.0) {
      active[f] = 0;
      --active_count;
    }
  }
  FairShareSolver solver(routes.num_links(), params.link_bandwidth);
  double t = 0.0;
  while (active_count > 0) {
    solver.solve(paths, active, rates);
    double dt = std::numeric_limits<double>::infinity();
    for (std::size_t f = 0; f < num_flows; ++f) {
      if (!active[f]) continue;
      ORP_ASSERT(rates[f] > 0.0);
      dt = std::min(dt, (bytes[f] - progress[f]) / rates[f]);
    }
    ++result.steps;
    const double batch_window = dt * (1.0 + 1e-9) + 1e-15;
    t += dt;
    for (std::size_t f = 0; f < num_flows; ++f) {
      if (!active[f]) continue;
      progress[f] += rates[f] * dt;
      const double left = bytes[f] - progress[f];
      if (left <= rates[f] * (batch_window - dt) + 1e-9) {
        active[f] = 0;
        --active_count;
        finish[f] = t;
      }
    }
  }
  for (std::size_t f = 0; f < num_flows; ++f) {
    result.elapsed = std::max(result.elapsed, finish[f] + params.mpi_overhead +
                                                  hops[f] * params.hop_latency);
  }
  return result;
}

}  // namespace orp
