#pragma once
// Dragonfly host-switch graph (§6.1.2, Formulae 4a–4c; Kim et al. 2008).
//
// Parameters follow the paper: a switches per group, h global links per
// switch, p hosts per switch, g groups. The balanced configuration
// a = 2h = 2p is assumed, with g = a*h + 1 so there is exactly one global
// link between every pair of groups (groups form a clique, switches inside
// a group form a clique). Radix r = (a-1) + h + p = 2a - 1.

#include <cstdint>

#include "hsg/host_switch_graph.hpp"
#include "topo/attach.hpp"

namespace orp {

struct DragonflyParams {
  std::uint32_t group_size = 8;  ///< the paper's a; must be even (h = p = a/2)

  std::uint32_t global_links_per_switch() const { return group_size / 2; }  // h
  std::uint32_t hosts_per_switch() const { return group_size / 2; }         // p
  std::uint32_t groups() const {                                            // g
    return group_size * global_links_per_switch() + 1;
  }
  std::uint32_t radix() const { return 2 * group_size - 1; }                // r
};

/// Number of switches: a * g = a^3/2 + a (Formula 4b).
std::uint64_t dragonfly_switch_count(const DragonflyParams& params);
/// Max hosts: p * m = a^4/4 + a^2/2 (Formula 4c).
std::uint64_t dragonfly_host_capacity(const DragonflyParams& params);

/// The smallest balanced dragonfly (least even a) that carries `hosts`.
DragonflyParams smallest_dragonfly(std::uint32_t hosts);

/// Builds the dragonfly carrying n hosts attached per `policy`.
HostSwitchGraph build_dragonfly(const DragonflyParams& params, std::uint32_t n,
                                AttachPolicy policy = AttachPolicy::kRoundRobin);

}  // namespace orp
