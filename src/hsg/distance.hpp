#pragma once
// The switch-distance kernel: BFS over a switch graph from 64 sources per
// machine word (the Graph Golf idiom, Kitasuka & Iida, arXiv:1609.03136).
// Per block of up to 64 sources every switch keeps a frontier and a reached
// bitmask; one round ORs each switch's neighbours' frontier words, and the
// fresh bits are the sources that reach it at that round's distance.
//
// bitparallel_bfs_block is the one frontier loop; callers differ only in the
// sink that consumes the fresh bits. all_pairs_switch_distances writes them
// into an m x m uint16 matrix (the delta evaluator's rebuild, the routing
// table, the hsg analyses); compute_host_metrics and compute_switch_metrics
// accumulate weighted pair sums instead (hsg/metrics.cpp), never
// materializing the matrix.

#include <algorithm>
#include <cstdint>
#include <span>
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

/// BFS from sources[0..k), k <= 64, at once; bit j of a word stands for
/// sources[j]. For level 0 (the sources themselves) and each later level d
/// it calls sink(v, d, fresh) once per switch v that some sources first
/// reach at distance d, `fresh` holding those sources' bits. `neighbors(v)`
/// returns any range of the switch ids adjacent to v.
template <class Neighbors, class Sink>
void bitparallel_bfs_block(std::uint32_t m, const Neighbors& neighbors,
                           std::span<const SwitchId> sources,
                           DistanceScratch& scratch, Sink&& sink) {
  ORP_ASSERT(sources.size() <= 64);
  std::vector<std::uint64_t>& frontier = scratch.frontier;
  std::vector<std::uint64_t>& next = scratch.next;
  std::vector<std::uint64_t>& reached = scratch.reached;
  frontier.assign(m, 0);
  reached.assign(m, 0);
  for (std::size_t j = 0; j < sources.size(); ++j) {
    const SwitchId src = sources[j];
    frontier[src] |= 1ULL << j;
    reached[src] |= 1ULL << j;
    sink(src, std::uint32_t{0}, 1ULL << j);
  }
  for (std::uint32_t round = 1; round <= m; ++round) {
    next.assign(m, 0);
    bool any = false;
    for (std::uint32_t v = 0; v < m; ++v) {
      std::uint64_t acc = 0;
      for (const SwitchId u : neighbors(v)) acc |= frontier[u];
      const std::uint64_t fresh = acc & ~reached[v];
      if (!fresh) continue;
      any = true;
      next[v] = fresh;
      reached[v] |= fresh;
      sink(v, round, fresh);
    }
    if (!any) break;
    frontier.swap(next);
  }
}

/// Writes dist[s * m + t] = hop distance from switch s to switch t, or
/// kNoDistance when t is unreachable from s; `dist` holds m * m entries.
/// Requires m < kNoDistance.
template <class Neighbors>
void all_pairs_switch_distances(std::uint32_t m, const Neighbors& neighbors,
                                std::uint16_t* dist, DistanceScratch& scratch) {
  ORP_REQUIRE(m < kNoDistance, "the distance kernel supports at most 65534 switches");
  std::fill(dist, dist + std::size_t{m} * m, kNoDistance);
  SwitchId block[64];
  for (std::uint32_t begin = 0; begin < m; begin += 64) {
    const std::uint32_t size = std::min<std::uint32_t>(64, m - begin);
    for (std::uint32_t j = 0; j < size; ++j) block[j] = begin + j;
    auto write = [dist, m, begin](SwitchId v, std::uint32_t level, std::uint64_t fresh) {
      while (fresh) {
        const int j = __builtin_ctzll(fresh);
        fresh &= fresh - 1;
        dist[std::size_t{begin + static_cast<std::uint32_t>(j)} * m + v] =
            static_cast<std::uint16_t>(level);
      }
    };
    bitparallel_bfs_block(m, neighbors, std::span<const SwitchId>(block, size), scratch,
                          write);
  }
}

/// The kernel over a HostSwitchGraph's switch subgraph, into a fresh matrix.
std::vector<std::uint16_t> switch_distance_matrix(const HostSwitchGraph& g);

}  // namespace orp
