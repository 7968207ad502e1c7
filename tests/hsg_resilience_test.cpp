// Tests for the Graph Golf edge-list interop and the diameter-then-ASPL
// annealing objective. Link-failure resilience is tested on the
// src/fault Monte-Carlo sweep (fault_test.cpp, MonteCarlo.*).
#include <gtest/gtest.h>

#include <sstream>

#include "hsg/io.hpp"
#include "hsg/metrics.hpp"
#include "search/odp.hpp"

namespace orp {
namespace {

// ---- Graph Golf edge-list interop ------------------------------------------

TEST(EdgeList, RoundTripsOdpGraph) {
  const auto odp = solve_odp(16, 4, {.iterations = 500});
  std::stringstream buffer;
  write_edgelist(buffer, odp.graph);
  const auto loaded = read_edgelist(buffer, 16, 4);
  loaded.check_invariants();
  EXPECT_TRUE(loaded == odp.graph);
}

TEST(EdgeList, ReadsKnownGraph) {
  std::istringstream in("0 1\n1 2\n2 0  # triangle\n");
  const auto g = read_edgelist(in, 3, 2);
  EXPECT_TRUE(g.has_switch_edge(0, 1));
  EXPECT_TRUE(g.has_switch_edge(1, 2));
  EXPECT_TRUE(g.has_switch_edge(2, 0));
  EXPECT_DOUBLE_EQ(compute_switch_metrics(g).aspl, 1.0);
}

TEST(EdgeList, EnforcesDegreeBound) {
  std::istringstream in("0 1\n0 2\n0 3\n");  // vertex 0 would need degree 3
  EXPECT_THROW(read_edgelist(in, 4, 2), std::invalid_argument);
}

TEST(EdgeList, RejectsMalformedInput) {
  std::istringstream self("0 0\n");
  EXPECT_THROW(read_edgelist(self, 2, 2), std::invalid_argument);
  std::istringstream dup("0 1\n1 0\n");
  EXPECT_THROW(read_edgelist(dup, 2, 2), std::invalid_argument);
  std::istringstream range("0 9\n");
  EXPECT_THROW(read_edgelist(range, 2, 2), std::invalid_argument);
}

// ---- diameter-then-ASPL objective --------------------------------------------

TEST(DiameterObjective, NeverWorseDiameterThanHasplObjective) {
  OdpOptions haspl_options{.iterations = 2000, .restarts = 2, .seed = 7,
                           .objective = AnnealObjective::kHaspl};
  OdpOptions diameter_options = haspl_options;
  diameter_options.objective = AnnealObjective::kDiameterThenHaspl;
  const auto by_haspl = solve_odp(40, 4, haspl_options);
  const auto by_diameter = solve_odp(40, 4, diameter_options);
  EXPECT_LE(by_diameter.metrics.diameter, by_haspl.metrics.diameter);
}

TEST(DiameterObjective, StillRespectsMooreBound) {
  const auto result = solve_odp(32, 4, {.iterations = 1500,
                                        .objective = AnnealObjective::kDiameterThenHaspl});
  EXPECT_GE(result.metrics.aspl, result.moore_aspl_bound - 1e-12);
  EXPECT_TRUE(result.metrics.connected);
}

}  // namespace
}  // namespace orp
