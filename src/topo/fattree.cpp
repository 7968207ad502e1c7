#include "topo/fattree.hpp"

#include "common/require.hpp"

namespace orp {

std::uint64_t fattree_switch_count(const FatTreeParams& params) {
  ORP_REQUIRE(params.k >= 2 && params.k % 2 == 0, "fat-tree K must be even and >= 2");
  return 5ull * params.k * params.k / 4;
}

std::uint64_t fattree_host_capacity(const FatTreeParams& params) {
  ORP_REQUIRE(params.k >= 2 && params.k % 2 == 0, "fat-tree K must be even and >= 2");
  return static_cast<std::uint64_t>(params.k) * params.k * params.k / 4;
}

FatTreeParams smallest_fattree(std::uint32_t hosts) {
  for (std::uint32_t k = 2;; k += 2) {
    const FatTreeParams params{k};
    if (fattree_host_capacity(params) >= hosts) return params;
  }
}

HostSwitchGraph build_fattree(const FatTreeParams& params, std::uint32_t n,
                              AttachPolicy policy) {
  const std::uint32_t k = params.k;
  const std::uint32_t half = k / 2;
  const std::uint64_t m = fattree_switch_count(params);
  ORP_REQUIRE(n <= fattree_host_capacity(params), "too many hosts for this fat-tree");
  HostSwitchGraph g(n, static_cast<std::uint32_t>(m), k);

  const std::uint32_t edge_base = 0;
  const std::uint32_t aggr_base = half * k;   // K^2/2 edge switches first
  const std::uint32_t core_base = k * k;      // then K^2/2 aggregation
  auto edge_id = [&](std::uint32_t pod, std::uint32_t i) {
    return static_cast<SwitchId>(edge_base + pod * half + i);
  };
  auto aggr_id = [&](std::uint32_t pod, std::uint32_t i) {
    return static_cast<SwitchId>(aggr_base + pod * half + i);
  };
  auto core_id = [&](std::uint32_t group, std::uint32_t i) {
    return static_cast<SwitchId>(core_base + group * half + i);
  };

  for (std::uint32_t pod = 0; pod < k; ++pod) {
    // Pod-internal complete bipartite edge <-> aggregation.
    for (std::uint32_t e = 0; e < half; ++e) {
      for (std::uint32_t a = 0; a < half; ++a) {
        g.add_switch_edge(edge_id(pod, e), aggr_id(pod, a));
      }
    }
    // Aggregation switch `a` of every pod links to all K/2 cores of group a.
    for (std::uint32_t a = 0; a < half; ++a) {
      for (std::uint32_t c = 0; c < half; ++c) {
        g.add_switch_edge(aggr_id(pod, a), core_id(a, c));
      }
    }
  }

  attach_hosts(g, policy);
  return g;
}

}  // namespace orp
