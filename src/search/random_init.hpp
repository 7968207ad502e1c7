#pragma once
// Random initial solutions for the ORP local search (§5).
//
// The annealer needs a connected host-switch graph with the requested
// (n, m, r) and all switch ports saturated — swap and swing operations
// preserve the edge count, so the initial solution fixes the edge budget
// and saturation maximizes it (more edges never hurt h-ASPL).
//
// Construction: distribute hosts (balanced), grow a random spanning tree
// over the switches, then fill remaining ports with a random matching.

#include <cstdint>

#include "common/prng.hpp"
#include "hsg/host_switch_graph.hpp"

namespace orp {

/// True when some connected host-switch graph with these parameters exists:
/// hosts fit (n <= m * (r - 1) for m >= 2, n <= r for m == 1) and there are
/// enough spare ports for a spanning tree (m*r >= n + 2*(m-1)).
bool random_init_feasible(std::uint32_t n, std::uint32_t m, std::uint32_t r);

/// Builds a random connected host-switch graph with hosts distributed as
/// evenly as the spanning tree allows and switch ports saturated as far as
/// the random matching manages (always fully connected; at most a few ports
/// may remain free for parity reasons).
/// Throws std::invalid_argument when the parameters are infeasible.
HostSwitchGraph random_host_switch_graph(std::uint32_t n, std::uint32_t m,
                                         std::uint32_t r, Xoshiro256& rng);

/// Builds a *regular* host-switch graph: every switch carries exactly n/m
/// hosts (requires m | n) and the switch subgraph is (r - n/m)-regular up
/// to matching parity. Used by the swap-only baseline of §5.1.
HostSwitchGraph random_regular_host_switch_graph(std::uint32_t n, std::uint32_t m,
                                                 std::uint32_t r, Xoshiro256& rng);

}  // namespace orp
