// Tests for the multilevel partitioner: CSR construction, coarsening
// invariants, FM refinement, bisection quality on graphs with known cuts,
// and k-way balance across P = 2..16.
#include <gtest/gtest.h>

#include <numeric>

#include "common/prng.hpp"
#include "partition/coarsen.hpp"
#include "partition/fm.hpp"
#include "partition/partition.hpp"
#include "topo/fattree.hpp"
#include "topo/torus.hpp"

namespace orp {
namespace {

using Edge = std::pair<std::uint32_t, std::uint32_t>;

// Two K5 cliques joined by a single bridge edge: optimal bisection cut = 1.
CsrGraph two_cliques() {
  std::vector<Edge> edges;
  for (std::uint32_t offset : {0u, 5u}) {
    for (std::uint32_t i = 0; i < 5; ++i) {
      for (std::uint32_t j = i + 1; j < 5; ++j) {
        edges.push_back({offset + i, offset + j});
      }
    }
  }
  edges.push_back({4, 5});
  return csr_from_edges(10, edges);
}

CsrGraph ring(std::uint32_t n) {
  std::vector<Edge> edges;
  for (std::uint32_t i = 0; i < n; ++i) edges.push_back({i, (i + 1) % n});
  return csr_from_edges(n, edges);
}

TEST(Csr, FromEdgesBuildsSymmetricGraph) {
  const auto g = csr_from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}, {5, 1, 2, 7});
  g.check_invariants();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.neighbors(1).size(), 2u);
}

TEST(Csr, FromHostSwitchGraphCountsAllVertices) {
  const auto hsg = build_fattree(FatTreeParams{4}, 16);
  const auto csr = csr_from_host_switch_graph(hsg);
  csr.check_invariants();
  EXPECT_EQ(csr.num_vertices(), 16u + 20u);
  EXPECT_EQ(csr.num_edges(), hsg.num_edges());
}

TEST(Csr, SubgraphKeepsInternalEdgesOnly) {
  const auto g = two_cliques();
  std::vector<std::uint32_t> old_to_new;
  const auto sub = csr_subgraph(g, {0, 1, 2, 3, 4}, old_to_new);
  sub.check_invariants();
  EXPECT_EQ(sub.num_vertices(), 5u);
  EXPECT_EQ(sub.num_edges(), 10u);  // K5, bridge dropped
  EXPECT_EQ(old_to_new[3], 3u);
  EXPECT_EQ(old_to_new[7], 0xffffffffu);
}

TEST(Coarsen, PreservesTotalVertexWeight) {
  Xoshiro256 rng(1);
  const auto g = csr_from_host_switch_graph(build_torus(TorusParams{3, 3, 8}, 54));
  const auto level = coarsen_once(g, rng);
  level.graph.check_invariants();
  EXPECT_EQ(level.graph.total_vertex_weight(), g.total_vertex_weight());
  EXPECT_LT(level.graph.num_vertices(), g.num_vertices());
}

TEST(Coarsen, ProjectedCutMatchesFineCut) {
  Xoshiro256 rng(2);
  const auto g = csr_from_host_switch_graph(build_torus(TorusParams{2, 4, 8}, 32));
  const auto level = coarsen_once(g, rng);
  // Any coarse partition, projected to fine, must have the same cut.
  std::vector<std::uint8_t> coarse_side(level.graph.num_vertices());
  for (std::uint32_t v = 0; v < level.graph.num_vertices(); ++v) {
    coarse_side[v] = static_cast<std::uint8_t>(v % 2);
  }
  std::vector<std::uint8_t> fine_side(g.num_vertices());
  for (std::uint32_t v = 0; v < g.num_vertices(); ++v) {
    fine_side[v] = coarse_side[level.map[v]];
  }
  EXPECT_EQ(bisection_cut(level.graph, coarse_side), bisection_cut(g, fine_side));
}

TEST(Coarsen, ChainReachesTarget) {
  Xoshiro256 rng(3);
  const auto g = csr_from_host_switch_graph(build_torus(TorusParams{5, 3, 15}, 1024));
  const auto chain = coarsen_chain(g, rng, 48);
  ASSERT_FALSE(chain.empty());
  EXPECT_LE(chain.back().graph.num_vertices(), 200u);  // stalls allowed, but must shrink
  for (std::size_t i = 1; i < chain.size(); ++i) {
    EXPECT_LT(chain[i].graph.num_vertices(), chain[i - 1].graph.num_vertices());
  }
}

TEST(Fm, ComputesCutCorrectly) {
  const auto g = two_cliques();
  std::vector<std::uint8_t> side(10, 0);
  for (std::uint32_t v = 5; v < 10; ++v) side[v] = 1;
  EXPECT_EQ(bisection_cut(g, side), 1u);
  side[4] = 1;  // now 4's clique edges are cut, bridge is internal
  EXPECT_EQ(bisection_cut(g, side), 4u);
}

TEST(Fm, RecoversOptimalCutFromBadStart) {
  const auto g = two_cliques();
  // Interleaved start: terrible cut (13). FM needs one-vertex slack in the
  // caps to sequence moves (callers provide target + max vertex weight).
  std::vector<std::uint8_t> side(10);
  for (std::uint32_t v = 0; v < 10; ++v) side[v] = static_cast<std::uint8_t>(v % 2);
  FmOptions options;
  options.max_side_weight[0] = 6;
  options.max_side_weight[1] = 6;
  const auto cut = fm_refine(g, side, options);
  EXPECT_EQ(cut, 1u);
  EXPECT_EQ(bisection_cut(g, side), 1u);
  std::uint64_t w0 = 0;
  for (std::uint32_t v = 0; v < 10; ++v) w0 += (side[v] == 0);
  EXPECT_GE(w0, 4u);
  EXPECT_LE(w0, 6u);
}

TEST(Fm, RepairsImbalanceEvenIfCutGrows) {
  const auto g = two_cliques();
  std::vector<std::uint8_t> side(10, 0);  // everything on side 0 (cut 0)
  FmOptions options;
  options.max_side_weight[0] = 5;
  options.max_side_weight[1] = 5;
  fm_refine(g, side, options);
  std::uint64_t w0 = 0;
  for (std::uint32_t v = 0; v < 10; ++v) w0 += (side[v] == 0);
  EXPECT_EQ(w0, 5u);
}

TEST(Bisect, FindsBridgeOnTwoCliques) {
  Xoshiro256 rng(7);
  const auto g = two_cliques();
  const auto side = bisect(g, 0.5, rng);
  EXPECT_EQ(bisection_cut(g, side), 1u);
}

TEST(Bisect, RingOptimalCutIsTwo) {
  Xoshiro256 rng(11);
  const auto g = ring(64);
  const auto side = bisect(g, 0.5, rng);
  EXPECT_EQ(bisection_cut(g, side), 2u);
}

TEST(Bisect, RespectsAsymmetricFraction) {
  Xoshiro256 rng(13);
  const auto g = ring(60);
  const auto side = bisect(g, 1.0 / 3.0, rng);
  std::uint64_t w0 = 0;
  for (std::uint32_t v = 0; v < 60; ++v) w0 += (side[v] == 0);
  EXPECT_NEAR(static_cast<double>(w0), 20.0, 2.0);
}

TEST(PartitionGraph, AssignmentCoversAllParts) {
  Xoshiro256 rng(17);
  const auto hsg = build_torus(TorusParams{3, 3, 8}, 54);
  const auto g = csr_from_host_switch_graph(hsg);
  for (std::uint32_t parts : {2u, 3u, 5u, 8u}) {
    const auto result = partition_graph(g, parts, 17);
    std::vector<bool> used(parts, false);
    for (std::uint32_t p : result.assignment) {
      ASSERT_LT(p, parts);
      used[p] = true;
    }
    for (std::uint32_t p = 0; p < parts; ++p) EXPECT_TRUE(used[p]) << "parts=" << parts;
    EXPECT_EQ(result.edge_cut, compute_edge_cut(g, result.assignment));
  }
}

// Parameterized balance sweep over the paper's full P range.
class KwayBalance : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(KwayBalance, PartsAreNearEqual) {
  const std::uint32_t parts = GetParam();
  const auto hsg = build_fattree(FatTreeParams{8}, 128);  // 208 vertices
  const auto g = csr_from_host_switch_graph(hsg);
  const auto result = partition_graph(g, parts, 23);
  const double ideal = static_cast<double>(g.num_vertices()) / parts;
  for (std::uint32_t p = 0; p < parts; ++p) {
    EXPECT_LE(static_cast<double>(result.part_weights[p]), ideal * 1.25 + 2)
        << "part " << p << " of " << parts;
    EXPECT_GE(static_cast<double>(result.part_weights[p]), ideal * 0.70 - 2)
        << "part " << p << " of " << parts;
  }
}

INSTANTIATE_TEST_SUITE_P(PaperRange, KwayBalance,
                         ::testing::Range(2u, 17u));

TEST(HostSwitchCut, FullBisectionFatTreeBeatsTorus) {
  // The fat-tree is built for full bisection bandwidth; a 5-D torus with
  // the same host count cuts far fewer links. This mirrors Fig. 11b vs 9b.
  const auto fattree = build_fattree(FatTreeParams{8}, 128);
  const auto torus = build_torus(TorusParams{5, 2, 12}, 128);
  const auto cut_ft = host_switch_cut(fattree, 2, 29);
  const auto cut_torus = host_switch_cut(torus, 2, 29);
  EXPECT_GT(cut_ft, cut_torus);
}

TEST(PartitionGraph, RejectsBadArguments) {
  const auto g = ring(8);
  EXPECT_THROW(partition_graph(g, 0, 1), std::invalid_argument);
  EXPECT_THROW(partition_graph(g, 9, 1), std::invalid_argument);
}

// One level on a host-switch graph folds every host into its switch: the
// coarse graph is exactly the m switches, each weighing 1 + its hosts.
TEST(Coarsen, LeafFoldingContractsEachSwitchWithItsHosts) {
  const HostSwitchGraph graphs[] = {build_torus(TorusParams{3, 3, 8}, 40),
                                    build_fattree(FatTreeParams{4}, 16)};
  for (const HostSwitchGraph& hsg : graphs) {
    const std::uint32_t n = hsg.num_hosts();
    const std::uint32_t m = hsg.num_switches();
    const auto g = csr_from_host_switch_graph(hsg);
    Xoshiro256 rng(5);
    const auto level = coarsen_once(g, rng);
    level.graph.check_invariants();
    ASSERT_EQ(level.graph.num_vertices(), m);
    std::vector<std::uint32_t> hosts(m, 0);
    for (HostId h = 0; h < n; ++h) {
      ++hosts[hsg.host_switch(h)];
      EXPECT_EQ(level.map[h], level.map[n + hsg.host_switch(h)]);
    }
    for (SwitchId s = 0; s < m; ++s) {
      EXPECT_EQ(level.graph.vwgt[level.map[n + s]], 1 + hosts[s]) << "switch " << s;
    }
    std::vector<std::uint8_t> coarse_side(m);
    for (std::uint32_t v = 0; v < m; ++v) coarse_side[v] = static_cast<std::uint8_t>(rng() & 1);
    std::vector<std::uint8_t> fine_side(g.num_vertices());
    for (std::uint32_t v = 0; v < g.num_vertices(); ++v) fine_side[v] = coarse_side[level.map[v]];
    EXPECT_EQ(bisection_cut(level.graph, coarse_side), bisection_cut(g, fine_side));
  }
}

// A ring of 100 with 5 pendant vertices: folding would remove under 10% of
// the vertices, so the level matches heavy edges and the chain goes on.
TEST(Coarsen, FewLeavesFallBackToHeavyEdgeMatching) {
  std::vector<Edge> edges;
  for (std::uint32_t i = 0; i < 100; ++i) edges.push_back({i, (i + 1) % 100});
  for (std::uint32_t i = 0; i < 5; ++i) edges.push_back({20 * i, 100 + i});
  const auto g = csr_from_edges(105, edges);
  Xoshiro256 rng(9);
  const auto level = coarsen_once(g, rng);
  level.graph.check_invariants();
  EXPECT_EQ(level.graph.total_vertex_weight(), 105u);
  EXPECT_LE(level.graph.num_vertices(), 105u - 105u / 10);
  const auto chain = coarsen_chain(g, rng, 48);
  ASSERT_FALSE(chain.empty());
  EXPECT_LE(chain.back().graph.num_vertices(), 48u);
}

// Randomized FM differential: on 200 random weighted graphs from random
// starts, the returned cut is the cut of the returned sides, the caps hold
// whenever the start met them, and the refinement is deterministic.
TEST(Fm, RandomGraphsReturnTheirCutAndKeepFeasibleCaps) {
  Xoshiro256 rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    const auto nv = static_cast<std::uint32_t>(2 + rng.below(60));
    const double density = 0.05 + 0.4 * static_cast<double>(rng.below(100)) / 100.0;
    std::vector<Edge> edges;
    std::vector<std::uint32_t> weights;
    for (std::uint32_t a = 0; a < nv; ++a) {
      for (std::uint32_t b = a + 1; b < nv; ++b) {
        if (static_cast<double>(rng.below(1000)) < density * 1000.0) {
          edges.push_back({a, b});
          weights.push_back(static_cast<std::uint32_t>(1 + rng.below(9)));
        }
      }
    }
    std::vector<std::uint32_t> vwgt(nv);
    for (auto& w : vwgt) w = static_cast<std::uint32_t>(1 + rng.below(3));
    const auto g = csr_from_edges(nv, edges, weights, vwgt);
    const std::uint64_t total = g.total_vertex_weight();

    std::vector<std::uint8_t> start(nv);
    for (auto& side : start) side = static_cast<std::uint8_t>(rng() & 1);
    FmOptions options;
    options.max_side_weight[0] = total / 2 + 1 + rng.below(4);
    options.max_side_weight[1] = total / 2 + 1 + rng.below(4);
    std::uint64_t start_weight[2] = {0, 0};
    for (std::uint32_t v = 0; v < nv; ++v) start_weight[start[v]] += vwgt[v];
    const bool feasible = start_weight[0] <= options.max_side_weight[0] &&
                          start_weight[1] <= options.max_side_weight[1];

    std::vector<std::uint8_t> side = start;
    const std::uint64_t cut = fm_refine(g, side, options);
    EXPECT_EQ(cut, bisection_cut(g, side)) << "trial " << trial;
    if (feasible) {
      std::uint64_t weight[2] = {0, 0};
      for (std::uint32_t v = 0; v < nv; ++v) weight[side[v]] += vwgt[v];
      EXPECT_LE(weight[0], options.max_side_weight[0]) << "trial " << trial;
      EXPECT_LE(weight[1], options.max_side_weight[1]) << "trial " << trial;
      EXPECT_LE(cut, bisection_cut(g, start)) << "trial " << trial;
    }
    std::vector<std::uint8_t> again = start;
    fm_refine(g, again, options);
    EXPECT_EQ(again, side) << "trial " << trial;
  }
}

TEST(Fm, RejectsAnAbsurdGainRange) {
  // One edge of weight 2^24 + 1 would need 2^25 + 3 gain buckets.
  const auto g = csr_from_edges(2, {{0, 1}}, {(1u << 24) + 1});
  std::vector<std::uint8_t> side = {0, 1};
  FmOptions options;
  options.max_side_weight[0] = 1;
  options.max_side_weight[1] = 1;
  EXPECT_THROW(fm_refine(g, side, options), std::invalid_argument);
}

TEST(Bisect, RejectsAnEmptyGraph) {
  Xoshiro256 rng(3);
  EXPECT_THROW(bisect(csr_from_edges(0, {}), 0.5, rng), std::invalid_argument);
}

// Part counts close to the vertex count: every part must get a vertex,
// even where an uneven bisection leaves a side fewer vertices than parts.
TEST(PartitionGraph, RingsWithNearlyAsManyPartsAsVertices) {
  for (std::uint32_t n = 2; n <= 40; ++n) {
    const auto g = ring(n);
    for (std::uint32_t parts = 2; parts <= std::min(n, 17u); ++parts) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const auto result = partition_graph(g, parts, seed);
        for (std::uint32_t p = 0; p < parts; ++p) {
          EXPECT_GT(result.part_weights[p], 0u)
              << "n=" << n << " parts=" << parts << " seed=" << seed;
        }
        EXPECT_EQ(result.edge_cut, compute_edge_cut(g, result.assignment));
      }
    }
  }
}

}  // namespace
}  // namespace orp
