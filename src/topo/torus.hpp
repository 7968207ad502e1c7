#pragma once
// K-ary N-torus host-switch graph (§6.1.1, Formulae 3a–3c).
//
// Switches form a `dims`-dimensional torus with `base` switches per
// dimension (the paper's K-ary N-torus has dimension K and base N; we use
// explicit names to avoid the K/N collision with the fat-tree's K). Each
// switch connects to 2*dims neighbors (base >= 3; for base == 2 the +1 and
// -1 neighbors coincide, giving dims links) and carries up to
// r - switch_degree hosts.

#include <cstdint>

#include "hsg/host_switch_graph.hpp"
#include "topo/attach.hpp"

namespace orp {

struct TorusParams {
  std::uint32_t dims = 5;    ///< the paper's K (5-D torus for Sequoia-like)
  std::uint32_t base = 3;    ///< the paper's N
  std::uint32_t radix = 15;  ///< ports per switch; must exceed the link degree
};

/// Number of switches: base^dims (Formula 3a).
std::uint64_t torus_switch_count(const TorusParams& params);
/// Per-switch link degree: 2*dims for base >= 3, dims for base == 2.
std::uint32_t torus_link_degree(const TorusParams& params);
/// Max hosts: (radix - link_degree) * base^dims (Formula 3b).
std::uint64_t torus_host_capacity(const TorusParams& params);

/// The smallest `dims`-D torus of radix `radix` that carries `hosts`: base
/// 2 when it fits (radix > dims), else the least base >= 3 (needs radix >
/// 2*dims). Throws std::invalid_argument when no base fits.
TorusParams smallest_torus(std::uint32_t dims, std::uint32_t radix, std::uint32_t hosts);

/// Builds the torus carrying n hosts attached per `policy`.
/// Requires radix > link degree (Formula 3c) and n <= capacity.
HostSwitchGraph build_torus(const TorusParams& params, std::uint32_t n,
                            AttachPolicy policy = AttachPolicy::kRoundRobin);

}  // namespace orp
