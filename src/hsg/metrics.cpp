#include "hsg/metrics.hpp"

#include <algorithm>
#include <mutex>
#include <vector>

#include "common/thread_pool.hpp"
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

// Weighted APSP accumulation shared by both public entry points.
//
// Inputs: the switch adjacency, per-switch weights w (k_s for host metrics,
// 1 for switch metrics), and the source list (switches with w > 0 for host
// metrics, all switches for switch metrics).
//
// Output per run: ordered_sum = sum over sources s of w_s * sum_v w_v d(s,v)
// over the *reached* targets, max_dist = max d(s,v) over sources s and
// reached weighted targets v, and unreached_ordered = sum over sources s
// of w_s * (W - reached_weight(s)) — the weighted ordered pair count with
// no path (0 on a connected graph).
struct ApspResult {
  std::uint64_t ordered_sum = 0;
  std::uint32_t max_dist = 0;
  std::uint64_t unreached_ordered = 0;
};

struct ApspInput {
  const HostSwitchGraph* g;
  std::vector<std::uint32_t> weights;   // per switch
  std::vector<SwitchId> sources;
  std::uint64_t total_weight = 0;       // sum of weights
};

// Runs up to 64 BFS sources simultaneously: frontier[v] / reached[v] hold a
// bit per source. One level-synchronous round ORs each vertex's neighbor
// frontiers; newly set bits give the distance of that (source, vertex)
// pair. Total newly-set bits across all rounds is |block| * m, so the
// per-bit accumulation is linear in output size.
ApspResult bitparallel_block(const ApspInput& in, std::size_t begin, std::size_t end) {
  const HostSwitchGraph& g = *in.g;
  const std::uint32_t m = g.num_switches();
  const std::size_t block = end - begin;
  ApspResult out;

  std::vector<std::uint64_t> frontier(m, 0), next, reached(m, 0);
  std::vector<std::uint64_t> dist_sum(block, 0);
  std::vector<std::uint64_t> reached_weight(block, 0);
  for (std::size_t j = 0; j < block; ++j) {
    const SwitchId src = in.sources[begin + j];
    frontier[src] |= 1ULL << j;
    reached[src] |= 1ULL << j;
    reached_weight[j] = in.weights[src];
  }

  for (std::uint32_t round = 1; round <= m; ++round) {
    next.assign(m, 0);
    bool any = false;
    for (SwitchId v = 0; v < m; ++v) {
      std::uint64_t acc = 0;
      for (SwitchId u : g.neighbors(v)) acc |= frontier[u];
      const std::uint64_t fresh = acc & ~reached[v];
      if (fresh == 0) continue;
      any = true;
      next[v] = fresh;
      reached[v] |= fresh;
      const std::uint32_t wv = in.weights[v];
      if (wv > 0) {
        out.max_dist = std::max(out.max_dist, round);
        std::uint64_t bits = fresh;
        while (bits) {
          const int j = __builtin_ctzll(bits);
          bits &= bits - 1;
          dist_sum[static_cast<std::size_t>(j)] +=
              static_cast<std::uint64_t>(wv) * round;
          reached_weight[static_cast<std::size_t>(j)] += wv;
        }
      }
    }
    if (!any) break;
    frontier.swap(next);
  }

  for (std::size_t j = 0; j < block; ++j) {
    const SwitchId src = in.sources[begin + j];
    out.ordered_sum += static_cast<std::uint64_t>(in.weights[src]) * dist_sum[j];
    out.unreached_ordered += static_cast<std::uint64_t>(in.weights[src]) *
                             (in.total_weight - reached_weight[j]);
  }
  return out;
}

ApspResult run_apsp(const ApspInput& in, ThreadPool* pool) {
  KernelInstruments& instruments = KernelInstruments::get();
  instruments.calls.inc();
  obs::ScopedTimer timer(instruments.latency_ns);

  constexpr std::size_t block_size = 64;  // one source per bit of a word
  const std::size_t blocks = (in.sources.size() + block_size - 1) / block_size;

  std::mutex merge_mutex;
  ApspResult total;
  auto body = [&](std::size_t b) {
    const std::size_t begin = b * block_size;
    const std::size_t end = std::min(in.sources.size(), begin + block_size);
    const ApspResult part = bitparallel_block(in, begin, end);
    std::lock_guard lock(merge_mutex);
    total.ordered_sum += part.ordered_sum;
    total.max_dist = std::max(total.max_dist, part.max_dist);
    total.unreached_ordered += part.unreached_ordered;
  };

  if (pool && blocks > 1) {
    pool->parallel_for(blocks, body);
  } else {
    for (std::size_t b = 0; b < blocks; ++b) body(b);
  }
  return total;
}

HostMetrics host_metrics_impl(const HostSwitchGraph& g, ThreadPool* pool,
                              bool require_fully_attached) {
  if (require_fully_attached) {
    ORP_REQUIRE(g.fully_attached(), "metrics need every host attached to a switch");
  }
  HostMetrics result;

  ApspInput in;
  in.g = &g;
  in.weights.resize(g.num_switches());
  std::uint64_t n = 0;
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    in.weights[s] = g.hosts_on(s);
    n += in.weights[s];
    if (in.weights[s] > 0) in.sources.push_back(s);
  }
  if (n < 2) return result;
  in.total_weight = n;

  const ApspResult apsp = run_apsp(in, pool);
  const std::uint64_t pairs = n * (n - 1) / 2;
  result.unreachable_pairs = apsp.unreached_ordered / 2;
  result.connected_pairs = pairs - result.unreachable_pairs;
  result.connected = result.unreachable_pairs == 0;
  if (result.connected_pairs == 0) {
    result.h_aspl = std::numeric_limits<double>::infinity();
    result.diameter = HostMetrics::kUnreachable;
    return result;
  }
  result.total_length = apsp.ordered_sum / 2 + 2 * result.connected_pairs;
  result.h_aspl = static_cast<double>(result.total_length) /
                  static_cast<double>(result.connected_pairs);
  result.diameter = apsp.max_dist + 2;  // +2 for the two host-switch hops
  return result;
}

SwitchMetrics switch_metrics_impl(const HostSwitchGraph& g, ThreadPool* pool) {
  const std::uint64_t m = g.num_switches();
  SwitchMetrics result;
  if (m < 2) return result;

  ApspInput in;
  in.g = &g;
  in.weights.assign(g.num_switches(), 1);
  in.sources.resize(g.num_switches());
  for (SwitchId s = 0; s < g.num_switches(); ++s) in.sources[s] = s;
  in.total_weight = m;

  const ApspResult apsp = run_apsp(in, pool);
  const std::uint64_t pairs = m * (m - 1) / 2;
  result.unreachable_pairs = apsp.unreached_ordered / 2;
  result.connected_pairs = pairs - result.unreachable_pairs;
  result.connected = result.unreachable_pairs == 0;
  if (result.connected_pairs == 0) {
    result.aspl = std::numeric_limits<double>::infinity();
    result.diameter = HostMetrics::kUnreachable;
    return result;
  }
  result.total_length = apsp.ordered_sum / 2;
  result.aspl = static_cast<double>(result.total_length) /
                static_cast<double>(result.connected_pairs);
  result.diameter = apsp.max_dist;
  return result;
}

}  // namespace

HostMetrics compute_host_metrics(const HostSwitchGraph& g, ThreadPool* pool) {
  return host_metrics_impl(g, pool, /*require_fully_attached=*/true);
}

HostMetrics compute_live_host_metrics(const HostSwitchGraph& g, ThreadPool* pool) {
  return host_metrics_impl(g, pool, /*require_fully_attached=*/false);
}

SwitchMetrics compute_switch_metrics(const HostSwitchGraph& g, ThreadPool* pool) {
  return switch_metrics_impl(g, pool);
}

}  // namespace orp
