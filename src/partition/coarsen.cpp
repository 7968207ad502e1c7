#include "partition/coarsen.hpp"

#include <algorithm>
#include <numeric>

namespace orp {
namespace {

constexpr std::uint32_t kNone = 0xffffffffu;

// A level that removes fewer than 1/kStallDivisor of the vertices stalls
// the chain.
constexpr std::uint32_t kStallDivisor = 10;

// Heavy-edge matching: each unmatched vertex (random visiting order) grabs
// its heaviest unmatched neighbor (ties broken by first encounter). Returns
// each vertex's cluster leader: the smaller id of its pair, or itself.
std::vector<std::uint32_t> heavy_edge_leaders(const CsrGraph& fine, Xoshiro256& rng) {
  const std::uint32_t nv = fine.num_vertices();
  std::vector<std::uint32_t> match(nv, kNone);
  std::vector<std::uint32_t> order(nv);
  std::iota(order.begin(), order.end(), 0);
  shuffle(order, rng);
  for (std::uint32_t v : order) {
    if (match[v] != kNone) continue;
    const auto neighbors = fine.neighbors(v);
    const auto weights = fine.edge_weights(v);
    std::uint32_t best = kNone;
    std::uint32_t best_weight = 0;
    for (std::size_t e = 0; e < neighbors.size(); ++e) {
      const std::uint32_t u = neighbors[e];
      if (match[u] == kNone && weights[e] > best_weight) {
        best = u;
        best_weight = weights[e];
      }
    }
    match[v] = (best == kNone) ? v : best;
    if (best != kNone) match[best] = v;
  }
  for (std::uint32_t v = 0; v < nv; ++v) match[v] = std::min(v, match[v]);
  return match;
}

std::uint32_t degree(const CsrGraph& g, std::uint32_t v) { return g.xadj[v + 1] - g.xadj[v]; }

}  // namespace

CoarseLevel coarsen_once(const CsrGraph& fine, Xoshiro256& rng) {
  const std::uint32_t nv = fine.num_vertices();

  // Leaf folding: a degree-1 vertex whose neighbor has degree > 1 joins
  // that neighbor's cluster, so one level takes each switch with all of its
  // hosts. When that would stall the chain, the level matches heavy edges.
  std::vector<std::uint32_t> leader(nv);
  std::uint32_t leaves = 0;
  for (std::uint32_t v = 0; v < nv; ++v) {
    leader[v] = v;
    if (degree(fine, v) == 1 && degree(fine, fine.adjncy[fine.xadj[v]]) > 1) {
      leader[v] = fine.adjncy[fine.xadj[v]];
      ++leaves;
    }
  }
  if (leaves == 0 || leaves < nv / kStallDivisor) leader = heavy_edge_leaders(fine, rng);

  // Coarse ids in order of each cluster's first fine vertex; `members`
  // lists every cluster's fine vertices, ascending, by a counting sort.
  CoarseLevel level;
  level.map.assign(nv, kNone);
  std::vector<std::uint32_t> coarse_id(nv, kNone);
  std::uint32_t coarse_count = 0;
  for (std::uint32_t v = 0; v < nv; ++v) {
    if (coarse_id[leader[v]] == kNone) coarse_id[leader[v]] = coarse_count++;
    level.map[v] = coarse_id[leader[v]];
  }
  std::vector<std::uint32_t> first(coarse_count + 1, 0);
  for (std::uint32_t v = 0; v < nv; ++v) ++first[level.map[v] + 1];
  std::partial_sum(first.begin(), first.end(), first.begin());
  std::vector<std::uint32_t> members(nv);
  std::vector<std::uint32_t> cursor(first.begin(), first.end() - 1);
  for (std::uint32_t v = 0; v < nv; ++v) members[cursor[level.map[v]]++] = v;

  // Contract: one marker-array merge per cluster, appended straight into
  // the coarse CSR. Internal edges vanish and parallel edges sum.
  CsrGraph& coarse = level.graph;
  coarse.vwgt.assign(coarse_count, 0);
  coarse.xadj.assign(coarse_count + 1, 0);
  coarse.adjncy.reserve(fine.adjncy.size());
  coarse.adjwgt.reserve(fine.adjncy.size());
  std::vector<std::uint32_t> marker(coarse_count, kNone);
  for (std::uint32_t cv = 0; cv < coarse_count; ++cv) {
    const std::uint32_t begin = static_cast<std::uint32_t>(coarse.adjncy.size());
    for (std::uint32_t i = first[cv]; i < first[cv + 1]; ++i) {
      const std::uint32_t v = members[i];
      coarse.vwgt[cv] += fine.vwgt[v];
      const auto neighbors = fine.neighbors(v);
      const auto weights = fine.edge_weights(v);
      for (std::size_t e = 0; e < neighbors.size(); ++e) {
        const std::uint32_t cu = level.map[neighbors[e]];
        if (cu == cv) continue;
        if (marker[cu] == kNone) {
          marker[cu] = static_cast<std::uint32_t>(coarse.adjncy.size());
          coarse.adjncy.push_back(cu);
          coarse.adjwgt.push_back(weights[e]);
        } else {
          coarse.adjwgt[marker[cu]] += weights[e];
        }
      }
    }
    for (std::uint32_t e = begin; e < coarse.adjncy.size(); ++e) marker[coarse.adjncy[e]] = kNone;
    coarse.xadj[cv + 1] = static_cast<std::uint32_t>(coarse.adjncy.size());
  }
  return level;
}

std::vector<CoarseLevel> coarsen_chain(const CsrGraph& graph, Xoshiro256& rng,
                                       std::uint32_t target_vertices) {
  std::vector<CoarseLevel> chain;
  const CsrGraph* current = &graph;
  while (current->num_vertices() > target_vertices) {
    CoarseLevel level = coarsen_once(*current, rng);
    // Stop when the level stalls (dense or star-like graphs stop shrinking).
    if (level.graph.num_vertices() >
        current->num_vertices() - current->num_vertices() / kStallDivisor) {
      break;
    }
    chain.push_back(std::move(level));
    current = &chain.back().graph;
  }
  return chain;
}

}  // namespace orp
