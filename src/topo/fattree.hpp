#pragma once
// Three-layer K-ary fat-tree host-switch graph (§6.1.3, Formulae 5a–5c;
// Al-Fares et al. 2008).
//
// K pods; each pod has K/2 edge switches and K/2 aggregation switches;
// (K/2)^2 core switches. Edge switch: K/2 hosts + K/2 up-links. Aggregation
// switch: K/2 down + K/2 up. Core switch: one link into every pod. Radix
// r = K, m = 5K^2/4, n = K^3/4.

#include <cstdint>

#include "hsg/host_switch_graph.hpp"
#include "topo/attach.hpp"

namespace orp {

struct FatTreeParams {
  std::uint32_t k = 16;  ///< ports per switch; must be even
};

std::uint64_t fattree_switch_count(const FatTreeParams& params);  // 5K^2/4
std::uint64_t fattree_host_capacity(const FatTreeParams& params); // K^3/4

/// The smallest fat-tree (least even K) that carries `hosts`.
FatTreeParams smallest_fattree(std::uint32_t hosts);

/// Builds the fat-tree carrying n hosts. Hosts can only attach to edge
/// switches; `policy` orders the attachment across edge switches.
/// Switch ids: [0, K^2/2) edge, [K^2/2, K^2) aggregation, [K^2, 5K^2/4) core.
HostSwitchGraph build_fattree(const FatTreeParams& params, std::uint32_t n,
                              AttachPolicy policy = AttachPolicy::kRoundRobin);

}  // namespace orp
