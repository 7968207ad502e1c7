// Tests for the extended simulator features: ECMP routing, phase
// statistics, the scatter/gather/reduce-scatter/ring-allreduce
// collectives, and synthetic traffic patterns.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <set>
#include <utility>

#include "common/prng.hpp"
#include "search/random_init.hpp"
#include "sim/routing.hpp"
#include "sim/traffic.hpp"
#include "topo/fattree.hpp"
#include "topo/torus.hpp"

namespace orp {
namespace {

SimParams simple_params(RoutingPolicy routing = RoutingPolicy::kDeterministic) {
  SimParams p;
  p.link_bandwidth = 1e9;
  p.hop_latency = 1e-6;
  p.mpi_overhead = 1e-6;
  p.routing = routing;
  return p;
}

HostSwitchGraph quad_graph() {
  HostSwitchGraph g(4, 1, 8);
  for (HostId h = 0; h < 4; ++h) g.attach_host(h, 0);
  return g;
}

// Square of switches with hosts on opposite corners: 2 equal-cost paths.
HostSwitchGraph square_graph() {
  HostSwitchGraph g(2, 4, 4);
  g.attach_host(0, 0);
  g.attach_host(1, 2);
  g.add_switch_edge(0, 1);
  g.add_switch_edge(1, 2);
  g.add_switch_edge(2, 3);
  g.add_switch_edge(3, 0);
  return g;
}

// ---- ECMP ---------------------------------------------------------------

TEST(Ecmp, CountsEqualCostNextHops) {
  const auto g = square_graph();
  const RoutingTable routes(g);
  EXPECT_EQ(routes.equal_cost_next_hops(0, 2), 2u);
  EXPECT_EQ(routes.equal_cost_next_hops(0, 1), 1u);
  EXPECT_EQ(routes.equal_cost_next_hops(0, 0), 0u);
}

TEST(Ecmp, PathLengthMatchesDeterministicRoute) {
  const auto g = build_fattree(FatTreeParams{4}, 16);
  const RoutingTable routes(g);
  for (std::uint64_t key = 0; key < 32; ++key) {
    std::vector<LinkId> det, ecmp;
    const auto det_hops = routes.append_host_path(0, 15, det);
    const auto ecmp_hops = routes.append_host_path_ecmp(0, 15, key, ecmp);
    EXPECT_EQ(det_hops, ecmp_hops) << "key=" << key;
  }
}

TEST(Ecmp, SpreadsFlowsAcrossEqualCostPaths) {
  const auto g = square_graph();
  const RoutingTable routes(g);
  std::set<LinkId> first_hops;
  for (std::uint64_t key = 0; key < 64; ++key) {
    std::vector<LinkId> path;
    routes.append_host_path_ecmp(0, 1, key, path);
    first_hops.insert(path[1]);  // the switch link out of s0
  }
  EXPECT_EQ(first_hops.size(), 2u);  // both s0->s1 and s0->s3 used
}

TEST(Ecmp, ImprovesContendedPhaseOnFatTree) {
  // Many cross-pod flows from pod 0: deterministic routing funnels them
  // through one core group; ECMP spreads them.
  const auto g = build_fattree(FatTreeParams{4}, 16);
  Machine det(g, simple_params(RoutingPolicy::kDeterministic));
  Machine ecmp(g, simple_params(RoutingPolicy::kEcmp));
  std::vector<Message> flows;
  for (Rank r = 0; r < 4; ++r) flows.push_back({r, static_cast<Rank>(12 + r), 1000000});
  const double det_time = det.phase(flows);
  const double ecmp_time = ecmp.phase(flows);
  EXPECT_LE(ecmp_time, det_time + 1e-12);
}

// ---- phase statistics -----------------------------------------------------

TEST(PhaseStats, SingleFlowSaturatesItsPath) {
  Machine m(quad_graph(), simple_params());
  m.phase({{0, 1, 1000000000}});
  const auto& stats = m.last_phase_stats();
  EXPECT_EQ(stats.flows, 1u);
  EXPECT_NEAR(m.link_loads().max_utilization, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(stats.mean_hops, 2.0);
}

TEST(PhaseStats, MeanHopsAveragesRoutes) {
  // dumbbell: 2 hops within a switch, 3 hops across.
  HostSwitchGraph g(4, 2, 4);
  g.attach_host(0, 0);
  g.attach_host(1, 0);
  g.attach_host(2, 1);
  g.attach_host(3, 1);
  g.add_switch_edge(0, 1);
  Machine m(g, simple_params());
  m.phase({{0, 1, 1000}, {0, 2, 1000}});
  EXPECT_DOUBLE_EQ(m.last_phase_stats().mean_hops, 2.5);
}

TEST(PhaseStats, SelfMessagePhaseKeepsTheLastFlowPhase) {
  // Two flows converge on host 1's down-link. A later phase of
  // self-messages moves nothing, so both the stats and the link loads must
  // still describe the flow phase, whether or not the loads were read
  // before it.
  const std::vector<Message> flows{{0, 1, 1000000000}, {2, 1, 500000000}};
  const std::vector<Message> self_only{{0, 0, 1000}, {3, 3, 5}};
  Machine read_early(quad_graph(), simple_params());
  Machine read_late(quad_graph(), simple_params());
  read_early.phase(flows);
  read_late.phase(flows);
  const Machine::PhaseStats stats = read_early.last_phase_stats();
  const LinkLoads loads = read_early.link_loads();
  EXPECT_EQ(read_early.phase(self_only), 0.0);
  EXPECT_EQ(read_late.phase(self_only), 0.0);

  for (const Machine* m : {&read_early, &read_late}) {
    const Machine::PhaseStats& after = m->last_phase_stats();
    EXPECT_EQ(after.elapsed, stats.elapsed);
    EXPECT_EQ(after.flows, 2u);
    EXPECT_EQ(after.mean_hops, stats.mean_hops);
    const LinkLoads& now = m->link_loads();
    EXPECT_EQ(now.window_s, loads.window_s);
    EXPECT_EQ(now.max_utilization, loads.max_utilization);
    ASSERT_EQ(now.links.size(), loads.links.size());
    for (std::size_t l = 0; l < loads.links.size(); ++l) {
      EXPECT_EQ(now.links[l].bytes, loads.links[l].bytes) << "link " << l;
      EXPECT_EQ(now.links[l].flows, loads.links[l].flows) << "link " << l;
      EXPECT_EQ(now.links[l].slowest_bps, loads.links[l].slowest_bps)
          << "link " << l;
    }
  }
  // Host 1's down-link carried both flows and was busy the whole window.
  const LinkId down = RoutingTable(quad_graph()).host_downlink(1);
  EXPECT_EQ(loads.links[down].flows, 2u);
  EXPECT_EQ(loads.links[down].bytes, 1.5e9);
  EXPECT_NEAR(loads.utilization(down), 1.0, 1e-9);
  EXPECT_EQ(loads.max_utilization, loads.utilization(down));
}

// ---- extended collectives --------------------------------------------------

TEST(ExtendedCollectives, ScatterOnQuad) {
  Machine m(quad_graph(), simple_params());
  // Rounds: root sends 2 blocks (0.2s), then two parallel 1-block sends
  // (0.1s) -> 0.3s + latency.
  const double elapsed = m.scatter(100000000);
  EXPECT_NEAR(elapsed, 0.3 + 2 * 3e-6, 1e-7);
}

TEST(ExtendedCollectives, GatherMirrorsScatter) {
  Machine m(quad_graph(), simple_params());
  const double scatter_time = m.scatter(100000000);
  m.reset();
  const double gather_time = m.gather(100000000);
  EXPECT_NEAR(scatter_time, gather_time, 1e-9);
}

TEST(ExtendedCollectives, ScatterHandlesNonPowerOfTwo) {
  HostSwitchGraph g(6, 1, 8);
  for (HostId h = 0; h < 6; ++h) g.attach_host(h, 0);
  Machine m(g, simple_params());
  EXPECT_GT(m.scatter(1000), 0.0);
  EXPECT_GT(m.gather(1000), 0.0);
}

TEST(ExtendedCollectives, ReduceScatterHalvesBlocks) {
  Machine m(quad_graph(), simple_params());
  // Rounds: 2 blocks then 1 block per rank pair -> 0.2 + 0.1 s.
  const double elapsed = m.reduce_scatter(100000000);
  EXPECT_NEAR(elapsed, 0.3 + 2 * 3e-6, 1e-7);
}

TEST(ExtendedCollectives, RingAllreduceMovesTwoNMinusOneChunks) {
  Machine m(quad_graph(), simple_params());
  // chunk = total/4 = 1e8 -> 6 steps of 0.1 s.
  const double elapsed = m.ring_allreduce(400000000);
  EXPECT_NEAR(elapsed, 0.6 + 6 * 3e-6, 1e-6);
}

TEST(ExtendedCollectives, RingBeatsRecursiveDoublingForHugeMessages) {
  // Rabenseifner's motivation: ring moves 2(n-1)/n * B per host link while
  // recursive doubling moves log2(n) * B.
  Machine m(quad_graph(), simple_params());
  const std::uint64_t bytes = 1u << 30;
  const double doubling = m.allreduce(bytes);
  m.reset();
  const double ring = m.ring_allreduce(bytes);
  EXPECT_LT(ring, doubling);
}

// ---- traffic patterns -------------------------------------------------------

TEST(Traffic, PatternsHaveOneMessagePerRank) {
  Xoshiro256 rng(1);
  for (const TrafficPattern pattern : all_traffic_patterns()) {
    const auto messages = make_traffic(pattern, 16, 1000, rng);
    EXPECT_EQ(messages.size(), 16u) << traffic_pattern_name(pattern);
    for (const auto& m : messages) {
      EXPECT_LT(m.src, 16u);
      EXPECT_LT(m.dst, 16u);
      EXPECT_EQ(m.bytes, 1000u);
    }
  }
}

TEST(Traffic, PermutationIsABijection) {
  Xoshiro256 rng(2);
  const auto messages = make_traffic(TrafficPattern::kPermutation, 32, 1, rng);
  std::set<Rank> targets;
  for (const auto& m : messages) targets.insert(m.dst);
  EXPECT_EQ(targets.size(), 32u);
}

TEST(Traffic, TransposeMapsGridCorrectly) {
  Xoshiro256 rng(3);
  const auto messages = make_traffic(TrafficPattern::kTranspose, 16, 1, rng);
  EXPECT_EQ(messages[1].dst, 4u);   // (0,1) -> (1,0)
  EXPECT_EQ(messages[7].dst, 13u);  // (1,3) -> (3,1)
  EXPECT_EQ(messages[5].dst, 5u);   // diagonal maps to itself
}

TEST(Traffic, BitPatternsMatchDefinitions) {
  Xoshiro256 rng(4);
  const auto complement = make_traffic(TrafficPattern::kBitComplement, 8, 1, rng);
  EXPECT_EQ(complement[0].dst, 7u);
  EXPECT_EQ(complement[3].dst, 4u);
  const auto reverse = make_traffic(TrafficPattern::kBitReverse, 8, 1, rng);
  EXPECT_EQ(reverse[1].dst, 4u);  // 001 -> 100
  EXPECT_EQ(reverse[6].dst, 3u);  // 110 -> 011
  const auto shuffle_msgs = make_traffic(TrafficPattern::kShuffle, 8, 1, rng);
  EXPECT_EQ(shuffle_msgs[5].dst, 3u);  // 101 -> 011
}

TEST(Traffic, StructuredPatternsRejectBadRankCounts) {
  Xoshiro256 rng(5);
  EXPECT_THROW(make_traffic(TrafficPattern::kTranspose, 8, 1, rng),
               std::invalid_argument);
  EXPECT_THROW(make_traffic(TrafficPattern::kBitReverse, 6, 1, rng),
               std::invalid_argument);
}

TEST(Traffic, RunReportsDeliveredBandwidth) {
  const auto g = build_torus(TorusParams{2, 4, 8}, 16);
  Machine m(g, simple_params());
  Xoshiro256 rng(6);
  const auto result = run_traffic(m, TrafficPattern::kNeighborRing, 1000000, rng);
  EXPECT_GT(result.elapsed, 0.0);
  EXPECT_GT(result.aggregate_bandwidth, 0.0);
  EXPECT_GE(result.mean_hops, 2.0);
  EXPECT_LE(result.max_link_utilization, 1.0 + 1e-9);
}

TEST(Traffic, MaxLinkUtilizationMatchesGoldenValues) {
  // Recorded when PhaseStats still computed the value inside phase(); the
  // two values off 1.0 by one ulp pin the byte summation order as well.
  const std::pair<const char*, double> golden[] = {
      {"uniform-random", 1},
      {"permutation", 1},
      {"transpose", 1},
      {"bit-complement", 1.0000000000000002},
      {"bit-reverse", 1},
      {"neighbor-ring", 1},
      {"shuffle", 0.99999999999999978},
  };
  Xoshiro256 graph_rng(32);
  Machine m(random_host_switch_graph(64, 12, 12, graph_rng));
  Xoshiro256 rng(37);
  const std::vector<TrafficPattern> patterns = all_traffic_patterns();
  ASSERT_EQ(patterns.size(), std::size(golden));
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    const TrafficResult result = run_traffic(m, patterns[i], 3 << 18, rng);
    EXPECT_EQ(result.pattern, golden[i].first);
    EXPECT_EQ(result.max_link_utilization, golden[i].second) << result.pattern;
  }
}

TEST(Traffic, NeighborRingOutrunsBitComplementOnTorus) {
  // Locality-friendly vs adversarial on an 8x8 torus: the ring pattern
  // rides mostly single-hop links while bit-complement crosses the
  // bisection, so it wins on both hop count and delivered bandwidth.
  const auto g = build_torus(TorusParams{2, 8, 8}, 64);
  Machine m(g, simple_params());
  Xoshiro256 rng(7);
  const auto ring = run_traffic(m, TrafficPattern::kNeighborRing, 10000000, rng);
  const auto complement = run_traffic(m, TrafficPattern::kBitComplement, 10000000, rng);
  EXPECT_LT(ring.mean_hops, complement.mean_hops);
  EXPECT_GT(ring.aggregate_bandwidth, 2.0 * complement.aggregate_bandwidth);
}

}  // namespace
}  // namespace orp
