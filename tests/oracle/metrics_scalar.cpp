#include "oracle/metrics_scalar.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/require.hpp"

namespace orp {
namespace {

constexpr std::uint32_t kInf = HostMetrics::kUnreachable;

// Distances from `src` to every switch (kInf when cut off) into `dist`;
// `queue` is scratch.
void bfs_distances(const HostSwitchGraph& g, SwitchId src,
                   std::vector<std::uint32_t>& dist, std::vector<SwitchId>& queue) {
  dist.assign(g.num_switches(), kInf);
  queue.assign(1, src);
  dist[src] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const SwitchId v = queue[head];
    for (const SwitchId u : g.neighbors(v)) {
      if (dist[u] != kInf) continue;
      dist[u] = dist[v] + 1;
      queue.push_back(u);
    }
  }
}

// Sums over ordered pairs (s, t) of switches with nonzero weight, each pair
// counted w_s * w_t times: the distance total and the unreachable count.
struct PairSums {
  std::uint64_t ordered_sum = 0;
  std::uint32_t max_dist = 0;
  std::uint64_t unreached_ordered = 0;
};

PairSums weighted_pair_sums(const HostSwitchGraph& g,
                            const std::vector<std::uint64_t>& weight) {
  PairSums out;
  std::vector<std::uint32_t> dist;
  std::vector<SwitchId> queue;
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    if (weight[s] == 0) continue;
    bfs_distances(g, s, dist, queue);
    for (SwitchId t = 0; t < g.num_switches(); ++t) {
      if (weight[t] == 0) continue;
      if (dist[t] == kInf) {
        out.unreached_ordered += weight[s] * weight[t];
      } else {
        out.ordered_sum += weight[s] * weight[t] * dist[t];
        out.max_dist = std::max(out.max_dist, dist[t]);
      }
    }
  }
  return out;
}

}  // namespace

HostMetrics compute_host_metrics_scalar(const HostSwitchGraph& g) {
  ORP_REQUIRE(g.fully_attached(), "metrics need every host attached to a switch");
  HostMetrics result;
  std::vector<std::uint64_t> weight(g.num_switches());
  std::uint64_t n = 0;
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    weight[s] = g.hosts_on(s);
    n += weight[s];
  }
  if (n < 2) return result;

  const PairSums sums = weighted_pair_sums(g, weight);
  result.unreachable_pairs = sums.unreached_ordered / 2;
  result.connected_pairs = n * (n - 1) / 2 - result.unreachable_pairs;
  result.connected = result.unreachable_pairs == 0;
  if (result.connected_pairs == 0) {
    result.h_aspl = std::numeric_limits<double>::infinity();
    result.diameter = HostMetrics::kUnreachable;
    return result;
  }
  // Hosts are pendants: each pair adds its two host-switch hops.
  result.total_length = sums.ordered_sum / 2 + 2 * result.connected_pairs;
  result.h_aspl = static_cast<double>(result.total_length) /
                  static_cast<double>(result.connected_pairs);
  result.diameter = sums.max_dist + 2;
  return result;
}

SwitchMetrics compute_switch_metrics_scalar(const HostSwitchGraph& g) {
  const std::uint64_t m = g.num_switches();
  SwitchMetrics result;
  if (m < 2) return result;

  const PairSums sums = weighted_pair_sums(g, std::vector<std::uint64_t>(m, 1));
  result.unreachable_pairs = sums.unreached_ordered / 2;
  result.connected_pairs = m * (m - 1) / 2 - result.unreachable_pairs;
  result.connected = result.unreachable_pairs == 0;
  if (result.connected_pairs == 0) {
    result.aspl = std::numeric_limits<double>::infinity();
    result.diameter = HostMetrics::kUnreachable;
    return result;
  }
  result.total_length = sums.ordered_sum / 2;
  result.aspl = static_cast<double>(result.total_length) /
                static_cast<double>(result.connected_pairs);
  result.diameter = sums.max_dist;
  return result;
}

}  // namespace orp
