#pragma once
// Multilevel coarsening (Karypis & Kumar) shaped for host-switch graphs.
//
// A level first tries leaf folding (the 2-hop/leaf matching of METIS 5):
// every degree-1 vertex whose neighbor has degree > 1 joins that
// neighbor's cluster, so one level contracts each switch with all of its
// hosts. When a graph has no leaf to fold, or folding would remove fewer
// than 10% of its vertices, the level matches heavy edges instead (each
// vertex, in random order, pairs with its heaviest unmatched neighbor).
// Clusters contract with summed vertex weights and merged parallel edges,
// so the coarse graph's cuts equal the fine graph's cuts under the
// projected partition. Coarsening stops when the graph is small enough for
// direct initial partitioning or stops shrinking.

#include <vector>

#include "common/prng.hpp"
#include "partition/csr.hpp"

namespace orp {

struct CoarseLevel {
  CsrGraph graph;                  ///< the coarser graph
  std::vector<std::uint32_t> map;  ///< fine vertex -> coarse vertex
};

/// One level: leaf folding or heavy-edge matching, then contraction.
CoarseLevel coarsen_once(const CsrGraph& fine, Xoshiro256& rng);

/// Full coarsening chain; level[0] coarsens the input, level.back().graph
/// is the coarsest. Stops at `target_vertices` or when a round removes
/// fewer than 10% of vertices.
std::vector<CoarseLevel> coarsen_chain(const CsrGraph& graph, Xoshiro256& rng,
                                       std::uint32_t target_vertices = 48);

}  // namespace orp
