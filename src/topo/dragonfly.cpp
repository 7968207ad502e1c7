#include "topo/dragonfly.hpp"

#include "common/require.hpp"

namespace orp {

std::uint64_t dragonfly_switch_count(const DragonflyParams& params) {
  ORP_REQUIRE(params.group_size >= 2 && params.group_size % 2 == 0,
              "dragonfly group size a must be even and >= 2");
  return static_cast<std::uint64_t>(params.group_size) * params.groups();
}

std::uint64_t dragonfly_host_capacity(const DragonflyParams& params) {
  return dragonfly_switch_count(params) * params.hosts_per_switch();
}

DragonflyParams smallest_dragonfly(std::uint32_t hosts) {
  for (std::uint32_t a = 2;; a += 2) {
    const DragonflyParams params{a};
    if (dragonfly_host_capacity(params) >= hosts) return params;
  }
}

HostSwitchGraph build_dragonfly(const DragonflyParams& params, std::uint32_t n,
                                AttachPolicy policy) {
  const std::uint64_t m = dragonfly_switch_count(params);
  ORP_REQUIRE(n <= dragonfly_host_capacity(params), "too many hosts for this dragonfly");

  const std::uint32_t a = params.group_size;
  const std::uint32_t h = params.global_links_per_switch();
  const std::uint32_t g_count = params.groups();
  HostSwitchGraph graph(n, static_cast<std::uint32_t>(m), params.radix());

  auto switch_id = [&](std::uint32_t group, std::uint32_t local) {
    return static_cast<SwitchId>(group * a + local);
  };

  // Intra-group cliques.
  for (std::uint32_t group = 0; group < g_count; ++group) {
    for (std::uint32_t i = 0; i < a; ++i) {
      for (std::uint32_t j = i + 1; j < a; ++j) {
        graph.add_switch_edge(switch_id(group, i), switch_id(group, j));
      }
    }
  }

  // Global links: one per group pair. Group `group` owns a*h = g-1 global
  // ports, port q reaching group (group + q + 1) mod g; port q lives on
  // local switch q / h. Each unordered group pair is emitted once (from the
  // lower-offset side) by adding only when group < peer is false — instead
  // we add each link from the group with the smaller id.
  for (std::uint32_t group = 0; group < g_count; ++group) {
    for (std::uint32_t q = 0; q < a * h; ++q) {
      const std::uint32_t peer = (group + q + 1) % g_count;
      if (group < peer) {
        // The peer reaches `group` at offset g - (q+1), i.e. its port
        // g - q - 2.
        const std::uint32_t peer_port = g_count - q - 2;
        graph.add_switch_edge(switch_id(group, q / h),
                              switch_id(peer, peer_port / h));
      }
    }
  }

  attach_hosts(graph, policy);
  return graph;
}

}  // namespace orp
