#include "partition/bisect.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"
#include "partition/coarsen.hpp"
#include "partition/fm.hpp"

namespace orp {
namespace {

// Allowed relative overweight per side (METIS-style ubfactor).
constexpr double kImbalance = 0.05;
// Greedy-growing trials for the initial partition at the coarsest level.
constexpr int kInitTrials = 8;
// Coarsening stops at this many vertices.
constexpr std::uint32_t kCoarsestSize = 48;

// Greedy graph growing: BFS-like region that always absorbs the frontier
// vertex with the strongest connection to the grown region, until side 0
// reaches its weight target. Coarsest graphs are tiny, so the linear scans
// are irrelevant.
std::vector<std::uint8_t> grow_initial(const CsrGraph& g, std::uint64_t target0,
                                       Xoshiro256& rng) {
  const std::uint32_t nv = g.num_vertices();
  std::vector<std::uint8_t> side(nv, 1);
  if (nv == 0) return side;
  std::vector<std::int64_t> connection(nv, 0);
  std::vector<std::uint8_t> in_region(nv, 0);

  const std::uint32_t seed = static_cast<std::uint32_t>(rng.below(nv));
  std::uint64_t weight0 = 0;
  std::uint32_t current = seed;
  while (true) {
    in_region[current] = 1;
    side[current] = 0;
    weight0 += g.vwgt[current];
    if (weight0 >= target0) break;
    const auto neighbors = g.neighbors(current);
    const auto weights = g.edge_weights(current);
    for (std::size_t e = 0; e < neighbors.size(); ++e) {
      if (!in_region[neighbors[e]]) connection[neighbors[e]] += weights[e];
    }
    // Pick the most-connected outside vertex; fall back to any outside
    // vertex when the region's component is exhausted.
    std::int64_t best_connection = -1;
    std::uint32_t best_vertex = nv;
    for (std::uint32_t v = 0; v < nv; ++v) {
      if (!in_region[v] && connection[v] > best_connection) {
        best_connection = connection[v];
        best_vertex = v;
      }
    }
    if (best_vertex == nv) break;  // everything absorbed
    current = best_vertex;
  }
  return side;
}

}  // namespace

std::vector<std::uint8_t> bisect(const CsrGraph& g, double fraction0,
                                 Xoshiro256& rng) {
  ORP_REQUIRE(fraction0 > 0.0 && fraction0 < 1.0, "fraction0 must be in (0,1)");
  ORP_REQUIRE(g.num_vertices() > 0, "cannot bisect an empty graph");
  const std::uint64_t total = g.total_vertex_weight();
  const std::uint64_t target0 =
      static_cast<std::uint64_t>(std::llround(fraction0 * static_cast<double>(total)));

  FmOptions fm_options;
  const double over = 1.0 + kImbalance;
  // Caps never drop below the target plus the heaviest vertex, or a legal
  // partition might not exist at coarse levels where vertices are heavy.
  auto caps_for = [&](const CsrGraph& graph) {
    const std::uint32_t max_vwgt =
        *std::max_element(graph.vwgt.begin(), graph.vwgt.end());
    fm_options.max_side_weight[0] = std::max<std::uint64_t>(
        static_cast<std::uint64_t>(std::ceil(static_cast<double>(target0) * over)),
        target0 + max_vwgt);
    const std::uint64_t target1 = total - target0;
    fm_options.max_side_weight[1] = std::max<std::uint64_t>(
        static_cast<std::uint64_t>(std::ceil(static_cast<double>(target1) * over)),
        target1 + max_vwgt);
  };

  // Coarsen.
  const std::vector<CoarseLevel> chain = coarsen_chain(g, rng, kCoarsestSize);
  const CsrGraph& coarsest = chain.empty() ? g : chain.back().graph;

  // Initial partition: several greedy growings, keep the best refined one.
  caps_for(coarsest);
  std::vector<std::uint8_t> best_side;
  std::uint64_t best_cut = ~0ull;
  for (int trial = 0; trial < kInitTrials; ++trial) {
    std::vector<std::uint8_t> side = grow_initial(coarsest, target0, rng);
    const std::uint64_t cut = fm_refine(coarsest, side, fm_options);
    if (cut < best_cut) {
      best_cut = cut;
      best_side = std::move(side);
    }
  }

  // Uncoarsen: project through the chain, refining at every level.
  std::vector<std::uint8_t> side = std::move(best_side);
  for (std::size_t level = chain.size(); level-- > 0;) {
    const CsrGraph& fine = (level == 0) ? g : chain[level - 1].graph;
    const std::vector<std::uint32_t>& map = chain[level].map;
    std::vector<std::uint8_t> fine_side(fine.num_vertices());
    for (std::uint32_t v = 0; v < fine.num_vertices(); ++v) fine_side[v] = side[map[v]];
    caps_for(fine);
    fm_refine(fine, fine_side, fm_options);
    side = std::move(fine_side);
  }
  if (chain.empty()) {
    caps_for(g);
    fm_refine(g, side, fm_options);
  }
  return side;
}

}  // namespace orp
