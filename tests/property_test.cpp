// Property-based suites: invariants that must hold across parameter grids
// and random instances, not just on hand-picked examples.
#include <gtest/gtest.h>

#include <cmath>
#include <type_traits>

#include "common/prng.hpp"
#include "hsg/bounds.hpp"
#include "hsg/metrics.hpp"
#include "oracle/fairshare.hpp"
#include "search/random_init.hpp"
#include "search/solver.hpp"
#include "sim/fairshare_fast.hpp"
#include "sim/packet.hpp"

namespace orp {
namespace {

// gtest names each case by the raw bytes of its parameter, so the
// parameter structs below turn the bytes an aggregate would leave as
// padding into zeroed members (MOptCase: see its note), and are pinned
// padding-free: the case names stay the same from build to build.

// ---- bound properties over random instances ------------------------------

struct BoundCase {
  constexpr BoundCase(std::uint32_t n_, std::uint32_t m_, std::uint32_t r_,
                      std::uint64_t seed_)
      : n(n_), m(m_), r(r_), seed(seed_) {}
  std::uint32_t n, m, r;
  std::uint32_t zero = 0;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<BoundCase>);

class TheoremTwoIsALowerBound : public ::testing::TestWithParam<BoundCase> {};

TEST_P(TheoremTwoIsALowerBound, HoldsOnRandomGraphs) {
  const auto param = GetParam();
  Xoshiro256 rng(param.seed);
  const auto g = random_host_switch_graph(param.n, param.m, param.r, rng);
  const auto metrics = compute_host_metrics(g);
  ASSERT_TRUE(metrics.connected);
  EXPECT_GE(metrics.h_aspl, haspl_lower_bound(param.n, param.r) - 1e-12);
  EXPECT_GE(metrics.diameter, diameter_lower_bound(param.n, param.r));
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphGrid, TheoremTwoIsALowerBound,
    ::testing::Values(BoundCase{64, 16, 8, 1}, BoundCase{128, 25, 10, 2},
                      BoundCase{256, 55, 12, 3}, BoundCase{200, 60, 8, 4},
                      BoundCase{512, 120, 12, 5}, BoundCase{96, 30, 6, 6},
                      BoundCase{384, 48, 16, 7}, BoundCase{160, 80, 5, 8}));

class ContinuousMooreBoundsRegularGraphs
    : public ::testing::TestWithParam<BoundCase> {};

TEST_P(ContinuousMooreBoundsRegularGraphs, HoldsOnRandomRegularGraphs) {
  // The continuous Moore bound (Eq. 2 extended) lower-bounds the h-ASPL of
  // every REGULAR host-switch graph with these parameters.
  const auto param = GetParam();
  Xoshiro256 rng(param.seed);
  const auto g = random_regular_host_switch_graph(param.n, param.m, param.r, rng);
  const auto metrics = compute_host_metrics(g);
  ASSERT_TRUE(metrics.connected);
  const double bound = continuous_haspl_moore_bound(param.n, param.m, param.r);
  EXPECT_GE(metrics.h_aspl, bound - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    RegularGrid, ContinuousMooreBoundsRegularGraphs,
    ::testing::Values(BoundCase{64, 16, 8, 11}, BoundCase{128, 32, 10, 12},
                      BoundCase{256, 64, 12, 13}, BoundCase{120, 30, 9, 14},
                      BoundCase{512, 128, 12, 15}, BoundCase{240, 60, 8, 16}));

// m_opt prediction property: over a grid of (n, r), the continuous bound
// at m_opt is no worse than at 0.5x and 2x m_opt (global-minimum shape).
struct NrCase {
  std::uint64_t n;
  std::uint32_t r;
  std::uint32_t zero = 0;
};
static_assert(std::has_unique_object_representations_v<NrCase>);

// gtest names each case by the raw bytes of its parameter, and this suite's
// short name leaves the bytes after r inside the listed test name. The
// name_bytes field fills what would otherwise be padding holding leftover
// stack bytes, so the case names stay the same from run to run; its values
// are the bytes the names were first recorded with.
struct MOptCase {
  std::uint64_t n;
  std::uint32_t r;
  std::uint32_t name_bytes;
};

class MOptShape : public ::testing::TestWithParam<MOptCase> {};

TEST_P(MOptShape, BoundRisesAwayFromMOpt) {
  const std::uint64_t n = GetParam().n;
  const std::uint32_t r = GetParam().r;
  const std::uint32_t m_opt = optimal_switch_count(n, r);
  const double at_opt = continuous_haspl_moore_bound(n, m_opt, r);
  ASSERT_FALSE(std::isinf(at_opt));
  if (m_opt / 2 >= 1) {
    EXPECT_GE(continuous_haspl_moore_bound(n, m_opt / 2.0, r), at_opt - 1e-12);
  }
  EXPECT_GE(continuous_haspl_moore_bound(n, m_opt * 2.0, r), at_opt - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Grid, MOptShape,
                         ::testing::Values(MOptCase{128, 12, 0xFFFFFFFFu},
                                           MOptCase{128, 24, 0x00028E4Eu},
                                           MOptCase{256, 12, 0x00028E4Eu},
                                           MOptCase{256, 24, 0x00028E4Eu},
                                           MOptCase{512, 12, 0xFFFFFFFFu},
                                           MOptCase{512, 24, 0x00028E4Eu},
                                           MOptCase{1024, 12, 0xFFFFFFFFu},
                                           MOptCase{1024, 24, 0u},
                                           MOptCase{2048, 16, 0u},
                                           MOptCase{4096, 32, 0x00007F3Au}));

// ---- max-min fairness certificate -----------------------------------------

// A rate allocation is max-min fair iff every flow has a bottleneck link:
// a saturated link where the flow's rate is maximal among its flows.
struct FairCase {
  constexpr FairCase(std::uint32_t links_, std::uint32_t flows_,
                     std::uint32_t max_path_, std::uint64_t seed_)
      : links(links_), flows(flows_), max_path(max_path_), seed(seed_) {}
  std::uint32_t links, flows, max_path;
  std::uint32_t zero = 0;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<FairCase>);

class MaxMinCertificate : public ::testing::TestWithParam<FairCase> {};

TEST_P(MaxMinCertificate, EveryFlowHasABottleneck) {
  const auto param = GetParam();
  Xoshiro256 rng(param.seed);
  const double capacity = 1e9;

  std::vector<std::vector<LinkId>> paths(param.flows);
  for (auto& path : paths) {
    const std::uint32_t length =
        1 + static_cast<std::uint32_t>(rng.below(param.max_path));
    std::vector<std::uint8_t> used(param.links, 0);
    for (std::uint32_t i = 0; i < length; ++i) {
      const auto l = static_cast<LinkId>(rng.below(param.links));
      if (!used[l]) {
        used[l] = 1;
        path.push_back(l);
      }
    }
  }
  std::vector<std::uint8_t> active(param.flows, 1);
  std::vector<double> rates;
  FastFairShareSolver solver(capacity);
  const PathStore store = to_path_store(paths);
  solver.set_paths(store.links, store.ranges, active);
  solver.solve(rates);

  // Capacity: per-link sum of rates <= capacity (within fp tolerance).
  std::vector<double> load(param.links, 0.0);
  for (std::uint32_t f = 0; f < param.flows; ++f) {
    EXPECT_GT(rates[f], 0.0);
    for (const LinkId l : paths[f]) load[l] += rates[f];
  }
  for (std::uint32_t l = 0; l < param.links; ++l) {
    EXPECT_LE(load[l], capacity * (1.0 + 1e-9));
  }
  // Bottleneck certificate.
  for (std::uint32_t f = 0; f < param.flows; ++f) {
    bool has_bottleneck = false;
    for (const LinkId l : paths[f]) {
      if (load[l] < capacity * (1.0 - 1e-6)) continue;  // not saturated
      bool is_max = true;
      for (std::uint32_t other = 0; other < param.flows && is_max; ++other) {
        if (other == f) continue;
        for (const LinkId ol : paths[other]) {
          if (ol == l && rates[other] > rates[f] * (1.0 + 1e-9)) {
            is_max = false;
            break;
          }
        }
      }
      if (is_max) {
        has_bottleneck = true;
        break;
      }
    }
    EXPECT_TRUE(has_bottleneck) << "flow " << f << " rate " << rates[f];
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, MaxMinCertificate,
    ::testing::Values(FairCase{4, 3, 2, 1}, FairCase{8, 10, 3, 2},
                      FairCase{16, 20, 4, 3}, FairCase{6, 12, 3, 4},
                      FairCase{32, 40, 5, 5}, FairCase{10, 30, 2, 6},
                      FairCase{50, 80, 6, 7}, FairCase{3, 9, 2, 8}));

// ---- solver invariants over a (n, r) grid ----------------------------------

class SolverInvariants : public ::testing::TestWithParam<NrCase> {};

TEST_P(SolverInvariants, SolutionRespectsModelAndBounds) {
  const auto n = static_cast<std::uint32_t>(GetParam().n);
  const std::uint32_t r = GetParam().r;
  SolveOptions options;
  options.iterations = 400;
  const auto result = solve_orp(n, r, options);
  result.graph.check_invariants();
  EXPECT_TRUE(result.graph.fully_attached());
  EXPECT_TRUE(result.metrics.connected);
  EXPECT_GE(result.metrics.h_aspl, result.haspl_lower_bound - 1e-12);
  EXPECT_GE(result.metrics.diameter, diameter_lower_bound(n, r));
  EXPECT_EQ(result.graph.num_switches(), result.switch_count);
  for (SwitchId s = 0; s < result.graph.num_switches(); ++s) {
    EXPECT_LE(result.graph.ports_used(s), r);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, SolverInvariants,
                         ::testing::Values(NrCase{16, 6}, NrCase{48, 8},
                                           NrCase{64, 12}, NrCase{100, 10},
                                           NrCase{128, 24}, NrCase{200, 9},
                                           NrCase{256, 12}, NrCase{333, 17}));

// ---- packet simulator physical lower bounds --------------------------------

TEST(PacketProperties, ElapsedRespectsPhysicalLowerBounds) {
  Xoshiro256 rng(21);
  const auto g = random_host_switch_graph(24, 6, 10, rng);
  PacketSimParams params;
  params.base.link_bandwidth = 1e9;
  params.base.hop_latency = 1e-6;
  PacketMachine machine(g, params);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Xoshiro256 mrng(seed);
    std::vector<Message> messages;
    std::uint64_t max_bytes = 0;
    for (int i = 0; i < 10; ++i) {
      const auto src = static_cast<Rank>(mrng.below(24));
      auto dst = static_cast<Rank>(mrng.below(23));
      if (dst >= src) ++dst;
      const std::uint64_t bytes = 1000 * (1 + mrng.below(1000));
      messages.push_back({src, dst, bytes});
      max_bytes = std::max(max_bytes, bytes);
    }
    const auto result = machine.phase(messages);
    // No message can beat its own serialization plus two hops of latency.
    EXPECT_GE(result.elapsed,
              static_cast<double>(max_bytes) / params.base.link_bandwidth +
                  2 * params.base.hop_latency);
    EXPECT_GE(result.max_packet_latency, result.mean_packet_latency);
  }
}

}  // namespace
}  // namespace orp
