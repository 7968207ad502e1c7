#pragma once
// The switch-distance kernel: all-pairs shortest hop counts of a switch
// graph into one m x m uint16 matrix, 64 BFS sources per machine word (the
// Graph Golf idiom, Kitasuka & Iida, arXiv:1609.03136). Per block of 64
// sources every switch keeps a frontier and a reached bitmask; one round
// ORs each switch's neighbours' frontier words, and the fresh bits are the
// sources that reach it at that round's distance.
//
// Three callers share it: the delta evaluator's from-scratch rebuild, the
// routing table, and the hsg analyses. compute_host_metrics keeps its own
// accumulating variant (hsg/metrics.cpp), which never materializes the
// matrix.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/require.hpp"
#include "hsg/host_switch_graph.hpp"

namespace orp {

/// Matrix entry of a switch pair with no path between them.
inline constexpr std::uint16_t kNoDistance = 0xffff;

/// Frontier words reused across kernel calls (no steady-state allocation).
struct DistanceScratch {
  std::vector<std::uint64_t> frontier, next, reached;
};

/// Writes dist[s * m + t] = hop distance from switch s to switch t, or
/// kNoDistance when t is unreachable from s. `neighbors(v)` returns any
/// range of the switch ids adjacent to v; `dist` holds m * m entries.
/// Requires m < kNoDistance.
template <class Neighbors>
void all_pairs_switch_distances(std::uint32_t m, const Neighbors& neighbors,
                                std::uint16_t* dist, DistanceScratch& scratch) {
  ORP_REQUIRE(m < kNoDistance, "the distance kernel supports at most 65534 switches");
  std::fill(dist, dist + std::size_t{m} * m, kNoDistance);
  std::vector<std::uint64_t>& frontier = scratch.frontier;
  std::vector<std::uint64_t>& next = scratch.next;
  std::vector<std::uint64_t>& reached = scratch.reached;
  for (std::uint32_t begin = 0; begin < m; begin += 64) {
    const std::uint32_t block = std::min<std::uint32_t>(64, m - begin);
    frontier.assign(m, 0);
    reached.assign(m, 0);
    for (std::uint32_t j = 0; j < block; ++j) {
      const std::uint32_t src = begin + j;
      frontier[src] |= 1ULL << j;
      reached[src] |= 1ULL << j;
      dist[std::size_t{src} * m + src] = 0;
    }
    for (std::uint32_t round = 1; round <= m; ++round) {
      next.assign(m, 0);
      bool any = false;
      for (std::uint32_t v = 0; v < m; ++v) {
        std::uint64_t acc = 0;
        for (const SwitchId u : neighbors(v)) acc |= frontier[u];
        std::uint64_t fresh = acc & ~reached[v];
        if (!fresh) continue;
        any = true;
        next[v] = fresh;
        reached[v] |= fresh;
        while (fresh) {
          const int j = __builtin_ctzll(fresh);
          fresh &= fresh - 1;
          dist[std::size_t{begin + static_cast<std::uint32_t>(j)} * m + v] =
              static_cast<std::uint16_t>(round);
        }
      }
      if (!any) break;
      frontier.swap(next);
    }
  }
}

/// The kernel over a HostSwitchGraph's switch subgraph, into a fresh matrix.
std::vector<std::uint16_t> switch_distance_matrix(const HostSwitchGraph& g);

}  // namespace orp
