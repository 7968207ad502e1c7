#include "hsg/metrics.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "hsg/distance.hpp"
#include "obs/metrics.hpp"

namespace orp {
namespace {

// Call counter and wall-clock histogram of the APSP kernel.
struct KernelInstruments {
  obs::Counter& calls;
  obs::Histogram& latency_ns;

  static KernelInstruments& get() {
    static KernelInstruments instance{
        obs::Registry::global().counter("aspl.kernel.bitparallel.calls"),
        obs::Registry::global().histogram("aspl.kernel.bitparallel.ns")};
    return instance;
  }
};

// Weighted APSP accumulation shared by both public entry points: the
// bit-parallel kernel from every switch in `sources`, 64 sources per block,
// with per-switch weights w (k_s for host metrics, 1 for switch metrics)
// summing to `total_weight`. Each block sums, per source, w_v d(s,v) and w_v
// over the reached weighted targets v; the sources' own weights then scale
// those into the pair sums. The scratch is thread_local, so concurrent
// callers (the replica ladder's rungs) never share state.
WeightedPairSums run_apsp(const HostSwitchGraph& g,
                          std::span<const std::uint32_t> weights,
                          std::span<const SwitchId> sources, std::uint64_t total_weight) {
  KernelInstruments& instruments = KernelInstruments::get();
  instruments.calls.inc();
  obs::ScopedTimer timer(instruments.latency_ns);

  constexpr std::size_t block_size = 64;  // one source per bit of a word
  const auto neighbors = [&g](SwitchId v) { return g.neighbors(v); };
  thread_local DistanceScratch scratch;

  WeightedPairSums total;
  for (std::size_t begin = 0; begin < sources.size(); begin += block_size) {
    const std::span<const SwitchId> block =
        sources.subspan(begin, std::min(block_size, sources.size() - begin));
    std::uint64_t dist_sum[block_size] = {};
    std::uint64_t reached_weight[block_size] = {};
    std::uint32_t max_distance = 0;
    bitparallel_bfs_block(
        g.num_switches(), neighbors, block, scratch,
        [&](SwitchId v, std::uint32_t level, std::uint64_t fresh) {
          const std::uint32_t wv = weights[v];
          if (wv == 0) return;
          max_distance = std::max(max_distance, level);
          while (fresh) {
            const int j = __builtin_ctzll(fresh);
            fresh &= fresh - 1;
            dist_sum[j] += static_cast<std::uint64_t>(wv) * level;
            reached_weight[j] += wv;
          }
        });
    total.max_distance = std::max(total.max_distance, max_distance);
    for (std::size_t j = 0; j < block.size(); ++j) {
      const std::uint64_t ws = weights[block[j]];
      total.ordered_sum += ws * dist_sum[j];
      total.unreached_ordered += ws * (total_weight - reached_weight[j]);
    }
  }
  return total;
}

HostMetrics host_metrics_impl(const HostSwitchGraph& g, bool require_fully_attached) {
  if (require_fully_attached) {
    ORP_REQUIRE(g.fully_attached(), "metrics need every host attached to a switch");
  }
  std::vector<std::uint32_t> weights(g.num_switches());
  std::vector<SwitchId> sources;
  std::uint64_t n = 0;
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    weights[s] = g.hosts_on(s);
    n += weights[s];
    if (weights[s] > 0) sources.push_back(s);
  }
  if (n < 2) return {};
  return connected_pairs_metrics(n, run_apsp(g, weights, sources, n),
                                 /*end_hops=*/2);
}

}  // namespace

HostMetrics connected_pairs_metrics(std::uint64_t n, const WeightedPairSums& sums,
                                    std::uint32_t end_hops) {
  HostMetrics result;
  if (n < 2) return result;
  result.unreachable_pairs = sums.unreached_ordered / 2;
  result.connected_pairs = n * (n - 1) / 2 - result.unreachable_pairs;
  result.connected = result.unreachable_pairs == 0;
  if (result.connected_pairs == 0) {
    result.h_aspl = std::numeric_limits<double>::infinity();
    result.diameter = HostMetrics::kUnreachable;
    return result;
  }
  result.total_length = sums.ordered_sum / 2 + end_hops * result.connected_pairs;
  result.h_aspl = static_cast<double>(result.total_length) /
                  static_cast<double>(result.connected_pairs);
  result.diameter = sums.max_distance + end_hops;
  return result;
}

HostMetrics compute_host_metrics(const HostSwitchGraph& g) {
  return host_metrics_impl(g, /*require_fully_attached=*/true);
}

HostMetrics compute_live_host_metrics(const HostSwitchGraph& g) {
  return host_metrics_impl(g, /*require_fully_attached=*/false);
}

SwitchMetrics compute_switch_metrics(const HostSwitchGraph& g) {
  const std::uint32_t m = g.num_switches();
  if (m < 2) return {};
  const std::vector<std::uint32_t> weights(m, 1);
  std::vector<SwitchId> sources(m);
  std::iota(sources.begin(), sources.end(), SwitchId{0});
  const HostMetrics h =
      connected_pairs_metrics(m, run_apsp(g, weights, sources, m), /*end_hops=*/0);
  return {h.h_aspl, h.diameter, h.connected, h.total_length, h.connected_pairs,
          h.unreachable_pairs};
}

}  // namespace orp
