// Tests for the Order/Degree Problem solver (ODP as a special case of ORP).
#include <gtest/gtest.h>

#include "hsg/bounds.hpp"
#include "search/odp.hpp"

namespace orp {
namespace {

OdpOptions quick(std::uint64_t iterations = 1500) {
  OdpOptions options;
  options.iterations = iterations;
  return options;
}

TEST(Odp, ProducesRegularishGraphAboveMooreBound) {
  const auto result = solve_odp(32, 4, quick());
  result.graph.check_invariants();
  EXPECT_TRUE(result.metrics.connected);
  EXPECT_GE(result.metrics.aspl, result.moore_aspl_bound - 1e-12);
  // Every vertex (switch) has one pendant host and <= degree edges.
  for (SwitchId s = 0; s < 32; ++s) {
    EXPECT_EQ(result.graph.hosts_on(s), 1u);
    EXPECT_LE(result.graph.switch_degree(s), 4u);
  }
}

TEST(Odp, CompleteGraphReachesOptimum) {
  // degree = order-1 admits the complete graph: ASPL exactly 1.
  const auto result = solve_odp(8, 7, quick(300));
  EXPECT_DOUBLE_EQ(result.metrics.aspl, 1.0);
  EXPECT_EQ(result.metrics.diameter, 1u);
}

TEST(Odp, RingIsOptimalForDegreeTwo) {
  // Degree 2 connected graphs are cycles; ASPL is fixed by the cycle.
  const auto result = solve_odp(10, 2, quick(500));
  EXPECT_TRUE(result.metrics.connected);
  // C10 per-vertex distances: 1,1,2,2,3,3,4,4,5 -> sum 25, ASPL 25/9.
  EXPECT_DOUBLE_EQ(result.metrics.aspl, 25.0 / 9.0);
}

TEST(Odp, HigherDegreeNeverHurts) {
  const auto d3 = solve_odp(48, 3, quick());
  const auto d6 = solve_odp(48, 6, quick());
  EXPECT_LE(d6.metrics.aspl, d3.metrics.aspl);
}

TEST(Odp, ApproachesMooreBoundOnSmallInstance) {
  // Petersen-graph parameters (10, 3): Moore ASPL bound 5/3 is attainable.
  OdpOptions options = quick(12000);
  const auto result = solve_odp(10, 3, options);
  EXPECT_NEAR(result.metrics.aspl, 5.0 / 3.0, 0.15);
}

TEST(Odp, DeterministicForEqualSeeds) {
  const auto a = solve_odp(24, 4, quick(600));
  const auto b = solve_odp(24, 4, quick(600));
  EXPECT_TRUE(a.graph == b.graph);
}

TEST(Odp, RejectsDegenerateParameters) {
  EXPECT_THROW(solve_odp(1, 2, quick(10)), std::invalid_argument);
  EXPECT_THROW(solve_odp(10, 1, quick(10)), std::invalid_argument);
  EXPECT_THROW(solve_odp(10, 10, quick(10)), std::invalid_argument);
}

}  // namespace
}  // namespace orp
