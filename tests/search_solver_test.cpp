// Tests for the end-to-end ORP solver and the clique construction.
#include <gtest/gtest.h>

#include "hsg/bounds.hpp"
#include "search/annealer.hpp"
#include "search/clique.hpp"
#include "search/random_init.hpp"
#include "search/solver.hpp"

namespace orp {
namespace {

SolveOptions quick(std::uint64_t iterations = 1200) {
  SolveOptions options;
  options.iterations = iterations;
  return options;
}

TEST(CliqueGraph, SingleSwitchWhenHostsFit) {
  const auto g = build_clique_graph(8, 24);
  EXPECT_EQ(g.num_switches(), 1u);
  EXPECT_DOUBLE_EQ(compute_host_metrics(g).h_aspl, 2.0);
}

TEST(CliqueGraph, PaperCaseN128R24) {
  // §5.3: only for (n, r) = (128, 24) can the h-ASPL go below 3 (m = 8).
  const auto g = build_clique_graph(128, 24);
  EXPECT_EQ(g.num_switches(), 8u);
  g.check_invariants();
  const auto metrics = compute_host_metrics(g);
  EXPECT_LT(metrics.h_aspl, 3.0);
  EXPECT_EQ(metrics.diameter, 3u);
  // Every switch pair is directly connected.
  for (SwitchId a = 0; a < 8; ++a) {
    for (SwitchId b = a + 1; b < 8; ++b) EXPECT_TRUE(g.has_switch_edge(a, b));
  }
}

TEST(CliqueGraph, InfeasibleThrows) {
  EXPECT_THROW(build_clique_graph(1024, 24), std::invalid_argument);
}

TEST(CliqueGraph, RespectsTheorem2) {
  for (std::uint32_t n : {50u, 100u, 150u}) {
    if (!clique_feasible(n, 24)) continue;
    EXPECT_GE(clique_haspl(n, 24), haspl_lower_bound(n, 24) - 1e-12);
  }
}

TEST(Solver, TrivialSingleSwitch) {
  const auto result = solve_orp(8, 24, quick());
  EXPECT_TRUE(result.used_clique);
  EXPECT_EQ(result.switch_count, 1u);
  EXPECT_DOUBLE_EQ(result.metrics.h_aspl, 2.0);
}

TEST(Solver, UsesCliqueWhenFeasible) {
  const auto result = solve_orp(128, 24, quick());
  EXPECT_TRUE(result.used_clique);
  EXPECT_EQ(result.switch_count, 8u);
  EXPECT_NEAR(result.metrics.h_aspl, clique_haspl(128, 24), 1e-12);
}

TEST(Solver, SearchPathProducesValidGraph) {
  const auto result = solve_orp(256, 12, quick());
  EXPECT_FALSE(result.used_clique);
  result.graph.check_invariants();
  EXPECT_TRUE(result.metrics.connected);
  EXPECT_EQ(result.graph.num_switches(), result.switch_count);
  EXPECT_EQ(result.switch_count, result.predicted_m_opt);
  EXPECT_GE(result.metrics.h_aspl, result.haspl_lower_bound - 1e-12);
}

TEST(Solver, ForcedSwitchCountIsHonored) {
  SolveOptions options = quick(600);
  options.force_switch_count = 40;
  const auto result = solve_orp(256, 12, options);
  EXPECT_EQ(result.graph.num_switches(), 40u);
  EXPECT_FALSE(result.used_clique);
}

TEST(Solver, ForcedInfeasibleSwitchCountThrows) {
  SolveOptions options = quick(100);
  options.force_switch_count = 5;  // 5 switches cannot carry 256 hosts at r=12
  EXPECT_THROW(solve_orp(256, 12, options), std::invalid_argument);
}

TEST(Solver, SearchIsOneAnnealFromTheSplitSeed) {
  // The seed contract a step-by-step replay of solve_orp relies on: at
  // K = 1, solve_orp(n, r, {iterations, seed}) is one anneal() of
  // random_host_switch_graph(n, m_opt, r, rng) with
  // rng = Xoshiro256(seed).split() and AnnealOptions::seed = rng().
  constexpr std::uint32_t n = 192, r = 10;
  SolveOptions options;
  options.iterations = 500;
  options.seed = 42;
  const auto solved = solve_orp(n, r, options);
  ASSERT_FALSE(solved.used_clique);

  Xoshiro256 rng = Xoshiro256(options.seed).split();
  const HostSwitchGraph initial =
      random_host_switch_graph(n, optimal_switch_count(n, r), r, rng);
  AnnealOptions anneal_options;
  anneal_options.iterations = options.iterations;
  anneal_options.seed = rng();
  const auto annealed = anneal(initial, anneal_options);

  EXPECT_TRUE(solved.graph == annealed.best);
  EXPECT_EQ(solved.metrics.total_length, annealed.best_metrics.total_length);
  EXPECT_EQ(solved.metrics.diameter, annealed.best_metrics.diameter);
  EXPECT_EQ(solved.metrics.h_aspl, annealed.best_metrics.h_aspl);
}

TEST(Solver, RegularSwapSolveClearsTheEquationTwoBound) {
  // A regular start searched by swaps stays regular, so solve_orp also
  // audits the result against the Eq. (2) Moore bound of regular graphs.
  SolveOptions options = quick(2000);
  options.mode = MoveMode::kSwap;
  options.regular_start = true;
  options.force_switch_count = 32;
  const auto result = solve_orp(128, 12, options);
  for (SwitchId s = 0; s < 32; ++s) EXPECT_EQ(result.graph.hosts_on(s), 4u);
  EXPECT_TRUE(result.metrics.connected);
  EXPECT_GE(result.metrics.h_aspl, regular_haspl_moore_bound(128, 32, 12));
  EXPECT_GT(regular_haspl_moore_bound(128, 32, 12), result.haspl_lower_bound);
}

TEST(Solver, SolutionBeatsNaiveRandomOnAverage) {
  // SA at m_opt should land well under the continuous Moore bound + 20%.
  const auto result = solve_orp(256, 12, quick(2500));
  EXPECT_LT(result.metrics.h_aspl, result.continuous_moore_bound * 1.2);
}

TEST(Solver, RejectsDegenerateInputs) {
  EXPECT_THROW(solve_orp(1, 12, quick()), std::invalid_argument);
  EXPECT_THROW(solve_orp(100, 2, quick()), std::invalid_argument);
  // Degenerate search settings are rejected before anything divides by
  // them or rounds them up.
  SolveOptions no_replicas = quick();
  no_replicas.replicas = 0;
  EXPECT_THROW(solve_orp(64, 8, no_replicas), std::invalid_argument);
  SolveOptions no_interval = quick();
  no_interval.swap_interval = 0;
  EXPECT_THROW(solve_orp(64, 8, no_interval), std::invalid_argument);
  EXPECT_THROW(solve_orp(64, 8, quick(0)), std::invalid_argument);
}

}  // namespace
}  // namespace orp
