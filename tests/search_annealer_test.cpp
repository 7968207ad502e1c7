// Tests for the simulated annealer: improvement over random starts,
// structural invariants of the result, determinism, mode behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "hsg/bounds.hpp"
#include "obs/metrics.hpp"
#include "search/annealer.hpp"
#include "search/annealer_core.hpp"
#include "search/operations.hpp"
#include "search/random_init.hpp"
#include "search/solver.hpp"

namespace orp {
namespace {

AnnealOptions quick(MoveMode mode, std::uint64_t iterations = 1500,
                    std::uint64_t seed = 1) {
  AnnealOptions options;
  options.iterations = iterations;
  options.mode = mode;
  options.seed = seed;
  return options;
}

TEST(Annealer, ImprovesOverRandomStart) {
  Xoshiro256 rng(1);
  const auto initial = random_host_switch_graph(96, 24, 8, rng);
  const auto initial_metrics = compute_host_metrics(initial);
  const auto result = anneal(initial, quick(MoveMode::kTwoNeighborSwing));
  EXPECT_LE(result.best_metrics.total_length, initial_metrics.total_length);
  EXPECT_LT(result.best_metrics.h_aspl, initial_metrics.h_aspl);
  result.best.check_invariants();
  EXPECT_TRUE(result.best_metrics.connected);
}

TEST(Annealer, BestNeverWorseThanReported) {
  Xoshiro256 rng(2);
  const auto initial = random_host_switch_graph(64, 16, 8, rng);
  const auto result = anneal(initial, quick(MoveMode::kSwing));
  const auto recomputed = compute_host_metrics(result.best);
  EXPECT_EQ(recomputed.total_length, result.best_metrics.total_length);
  EXPECT_EQ(recomputed.diameter, result.best_metrics.diameter);
}

TEST(Annealer, RespectsLowerBound) {
  Xoshiro256 rng(3);
  const auto initial = random_host_switch_graph(128, 32, 10, rng);
  const auto result = anneal(initial, quick(MoveMode::kTwoNeighborSwing));
  EXPECT_GE(result.best_metrics.h_aspl, haspl_lower_bound(128, 10) - 1e-12);
}

#ifndef ORP_OBS_DISABLED
// Every 4096th evaluation is re-checked against a from-scratch recompute
// (the check throws on a mismatch, so a completed run passed them all).
TEST(Annealer, AuditsTheDeltaEvaluatorEvery4096Evaluations) {
  auto& checks = obs::Registry::global().counter("annealer.audit.checks");
  const auto before = checks.value();
  Xoshiro256 rng(5);
  const auto initial = random_host_switch_graph(64, 16, 8, rng);
  const auto result =
      anneal(initial, quick(MoveMode::kTwoNeighborSwing, 9000, 5));
  ASSERT_GE(result.evaluations, 8192u);
  EXPECT_EQ(checks.value() - before, result.evaluations / 4096);
}

// The h-ASPL objective lets the evaluator stop a rejected move before its
// repair is done; the diameter objective's key has no such bound, so there
// every apply completes.
TEST(Annealer, StopsRejectedMovesEarlyUnderTheHasplObjective) {
  auto& registry = obs::Registry::global();
  auto& early = registry.counter("delta_eval.early_rejects");
  auto& skipped = registry.counter("delta_eval.sources_skipped");
  Xoshiro256 rng(12);
  const auto initial = random_host_switch_graph(96, 24, 8, rng);

  auto before = early.value();
  const auto skipped_before = skipped.value();
  anneal(initial, quick(MoveMode::kTwoNeighborSwing, 1200, 3));
  EXPECT_GT(early.value(), before);
  EXPECT_GT(skipped.value(), skipped_before);

  before = early.value();
  auto options = quick(MoveMode::kTwoNeighborSwing, 1200, 3);
  options.objective = AnnealObjective::kDiameterThenHaspl;
  anneal(initial, options);
  EXPECT_EQ(early.value(), before);
}
#endif

TEST(Annealer, DeterministicForEqualSeeds) {
  Xoshiro256 rng_a(4), rng_b(4);
  const auto init_a = random_host_switch_graph(64, 16, 8, rng_a);
  const auto init_b = random_host_switch_graph(64, 16, 8, rng_b);
  ASSERT_TRUE(init_a == init_b);
  const auto res_a = anneal(init_a, quick(MoveMode::kTwoNeighborSwing, 800, 9));
  const auto res_b = anneal(init_b, quick(MoveMode::kTwoNeighborSwing, 800, 9));
  EXPECT_TRUE(res_a.best == res_b.best);
  EXPECT_EQ(res_a.accepted, res_b.accepted);
  EXPECT_EQ(res_a.evaluations, res_b.evaluations);
}

// The chain evaluates every move incrementally; after each step its
// reported current metrics must equal a from-scratch evaluation of its
// current graph, field by field, for every move mode. (Candidate-level
// exactness, rejected moves included, is pinned by
// tests/hsg_delta_metrics_test.cpp.)
TEST(Annealer, FullAndDeltaAgree) {
  for (const MoveMode mode :
       {MoveMode::kSwap, MoveMode::kSwing, MoveMode::kTwoNeighborSwing}) {
    Xoshiro256 rng(21);
    const auto initial = random_host_switch_graph(96, 24, 8, rng);
    const auto options = quick(mode, 1200, 33);
    const HostMetrics initial_metrics = compute_host_metrics(initial);
    SaChain::Config config;
    config.schedule = calibrate_schedule(initial, initial_metrics, options);
    SaChain chain(initial, initial_metrics, options, config);
    while (!chain.finished()) {
      ASSERT_EQ(chain.run(1), 1u);
      const HostMetrics& delta = chain.current_metrics();
      const HostMetrics full = compute_host_metrics(chain.current());
      const std::string at = "iteration " + std::to_string(chain.iteration());
      ASSERT_EQ(delta.total_length, full.total_length) << at;
      ASSERT_EQ(delta.diameter, full.diameter) << at;
      ASSERT_EQ(delta.connected, full.connected) << at;
      ASSERT_EQ(delta.connected_pairs, full.connected_pairs) << at;
      ASSERT_EQ(delta.unreachable_pairs, full.unreachable_pairs) << at;
      ASSERT_DOUBLE_EQ(delta.h_aspl, full.h_aspl) << at;
    }
    EXPECT_EQ(chain.iteration(), 1200u);
    EXPECT_GT(chain.accepted(), 0u);
  }
}

// A one-rung ladder IS the paper's serial annealer. Rung 0 keeps the seed
// verbatim, its temperature scale is exactly 1.0, the swap schedule is
// empty, and no restart can fire (the only rung always owns the global
// best) — so K = 1 with exchange barriers every 100 moves must reproduce
// the uninterrupted chain (the whole budget in one chunk) bit for bit, in
// every move mode, including the step-by-step trace.
TEST(Annealer, PoolBackendWithOneReplicaMatchesSerialExactly) {
  for (const MoveMode mode :
       {MoveMode::kSwap, MoveMode::kSwing, MoveMode::kTwoNeighborSwing}) {
    Xoshiro256 rng_serial(31), rng_pool(31);
    const auto init_serial = random_host_switch_graph(96, 24, 8, rng_serial);
    const auto init_pool = random_host_switch_graph(96, 24, 8, rng_pool);
    ASSERT_TRUE(init_serial == init_pool);

    auto options = quick(mode, 1200, 57);
    options.trace_every = 1;
    options.swap_interval = options.iterations;  // no barrier before the end
    const auto serial = anneal(init_serial, options);
    EXPECT_EQ(serial.round_best_haspl.size(), 1u);

    auto pool_options = options;
    pool_options.replicas = 1;
    pool_options.swap_interval = 100;  // chunking must not matter
    const auto pool = anneal(init_pool, pool_options);

    EXPECT_EQ(serial.best_replica, 0u);
    EXPECT_EQ(pool.best_replica, 0u);
    EXPECT_TRUE(serial.best == pool.best);
    EXPECT_EQ(serial.accepted, pool.accepted);
    EXPECT_EQ(serial.evaluations, pool.evaluations);
    EXPECT_EQ(serial.best_metrics.total_length,
              pool.best_metrics.total_length);
    EXPECT_DOUBLE_EQ(serial.best_metrics.h_aspl, pool.best_metrics.h_aspl);
    ASSERT_EQ(serial.trace.size(), pool.trace.size());
    for (std::size_t i = 0; i < serial.trace.size(); ++i) {
      EXPECT_EQ(serial.trace[i].iteration, pool.trace[i].iteration);
      EXPECT_DOUBLE_EQ(serial.trace[i].current_haspl,
                       pool.trace[i].current_haspl);
      EXPECT_DOUBLE_EQ(serial.trace[i].best_haspl, pool.trace[i].best_haspl);
      EXPECT_DOUBLE_EQ(serial.trace[i].temperature,
                       pool.trace[i].temperature);
    }
  }
}

// FNV-1a over a graph's sorted switch edges and every host's switch: two
// graphs hash equal only if they are the same labelled graph.
std::uint64_t graph_hash(const HostSwitchGraph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ULL;
  };
  mix(g.num_hosts());
  mix(g.num_switches());
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    std::vector<SwitchId> nb(g.neighbors(s).begin(), g.neighbors(s).end());
    std::sort(nb.begin(), nb.end());
    for (const SwitchId t : nb) {
      if (s < t) mix(std::uint64_t{s} << 32 | t);
    }
  }
  for (HostId h2 = 0; h2 < g.num_hosts(); ++h2) mix(g.host_switch(h2));
  return h;
}

// Golden trajectories: the walk of every move mode under both objectives,
// pinned by its outcome. Any change to the PRNG stream, the accept/reject
// decisions or the evaluator's metrics moves at least one of these.
struct GoldenCase {
  MoveMode mode;
  AnnealObjective objective;
  std::uint64_t total_length, accepted, evaluations, hash;
};

class AnnealerGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(AnnealerGolden, TrajectoryIsPinned) {
  const GoldenCase& want = GetParam();
  Xoshiro256 rng(41);
  const auto initial = random_host_switch_graph(96, 24, 8, rng);
  auto options = quick(want.mode, 1200, 43);
  options.objective = want.objective;
  const auto result = anneal(initial, options);
  EXPECT_EQ(result.best_metrics.total_length, want.total_length);
  EXPECT_EQ(result.accepted, want.accepted);
  EXPECT_EQ(result.evaluations, want.evaluations);
  EXPECT_EQ(graph_hash(result.best), want.hash);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndObjectives, AnnealerGolden,
    ::testing::Values(
        GoldenCase{MoveMode::kSwap, AnnealObjective::kHaspl, 18528, 189, 1201,
                   0x47e90ca1b3f6b62fULL},
        GoldenCase{MoveMode::kSwing, AnnealObjective::kHaspl, 18620, 179, 1201,
                   0x0886a2b7a063135eULL},
        GoldenCase{MoveMode::kTwoNeighborSwing, AnnealObjective::kHaspl, 18592, 263, 2226,
                   0x5141a48ea5a40f5dULL},
        GoldenCase{MoveMode::kSwap, AnnealObjective::kDiameterThenHaspl, 18560, 92, 1201,
                   0x745e0c30796cab23ULL},
        GoldenCase{MoveMode::kSwing, AnnealObjective::kDiameterThenHaspl, 18690, 138, 1201,
                   0x88812abb346092bbULL},
        GoldenCase{MoveMode::kTwoNeighborSwing, AnnealObjective::kDiameterThenHaspl, 18571,
                   230, 2235, 0xc3b3dddc8d595ce3ULL}));

// The paper's headline size: solve_orp(1024, 16) anneals at m = 183.
TEST(AnnealerGolden, PaperSizeSolveIsPinned) {
  SolveOptions options;
  options.iterations = 2000;
  const SolveResult result = solve_orp(1024, 16, options);
  ASSERT_EQ(result.switch_count, 183u);
  EXPECT_EQ(result.metrics.total_length, 2313411u);
  EXPECT_EQ(graph_hash(result.graph), 0xe68f9ef1d6b8ca82ULL);
}

#ifndef ORP_OBS_DISABLED
// A swing that strands a leaf switch's hosts is rejected as disconnected
// without a Metropolis draw: after the step the chain's PRNG has advanced by
// exactly the proposal's draws.
TEST(Annealer, DisconnectingSwingIsRejectedWithoutADraw) {
  // Ring 0-1-2-3-4-5 with leaf switches 6 (on 0) and 7 (on 3); one host on
  // every switch. A swing whose removed edge ends at a leaf strands it.
  HostSwitchGraph g(8, 8, 4);
  for (SwitchId s = 0; s < 6; ++s) g.add_switch_edge(s, (s + 1) % 6);
  g.add_switch_edge(0, 6);
  g.add_switch_edge(3, 7);
  for (HostId h = 0; h < 8; ++h) g.attach_host(h, h);
  std::vector<std::pair<SwitchId, SwitchId>> edges;
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    for (const SwitchId t : g.neighbors(s)) {
      if (s < t) edges.emplace_back(s, t);
    }
  }
  // Find a seed whose first swing disconnects the graph.
  std::uint64_t seed = 0;
  Xoshiro256 after_proposal;
  for (std::uint64_t candidate = 1; seed == 0 && candidate < 1000; ++candidate) {
    Xoshiro256 mirror(candidate);
    const auto move = propose_swing(g, edges, mirror);
    if (!move) continue;
    HostSwitchGraph probe = g;
    apply_swing(probe, *move);
    if (!compute_host_metrics(probe).connected) {
      seed = candidate;
      after_proposal = mirror;
    }
  }
  ASSERT_NE(seed, 0u);

  AnnealOptions options = quick(MoveMode::kSwing, 10, seed);
  options.initial_temperature = 1.0;
  options.final_temperature = 0.5;
  const HostMetrics initial_metrics = compute_host_metrics(g);
  SaChain::Config config;
  config.schedule = calibrate_schedule(g, initial_metrics, options);
  SaChain chain(g, initial_metrics, options, config);
  auto& disconnected =
      obs::Registry::global().counter("annealer.rejected.disconnected");
  const auto before = disconnected.value();
  ASSERT_EQ(chain.run(1), 1u);
  EXPECT_EQ(disconnected.value() - before, 1u);
  EXPECT_EQ(chain.accepted(), 0u);
  EXPECT_TRUE(chain.current() == g);
  Xoshiro256 chain_rng = chain.rng();
  EXPECT_EQ(chain_rng(), after_proposal());
}
#endif

TEST(Annealer, SwapModePreservesHostDistribution) {
  Xoshiro256 rng(5);
  const auto initial = random_regular_host_switch_graph(96, 24, 8, rng);
  const auto result = anneal(initial, quick(MoveMode::kSwap));
  for (SwitchId s = 0; s < initial.num_switches(); ++s) {
    EXPECT_EQ(result.best.hosts_on(s), initial.hosts_on(s));
  }
}

TEST(Annealer, SwingModeCanChangeHostDistribution) {
  Xoshiro256 rng(6);
  const auto initial = random_host_switch_graph(96, 24, 8, rng);
  const auto result = anneal(initial, quick(MoveMode::kTwoNeighborSwing, 3000));
  bool changed = false;
  for (SwitchId s = 0; s < initial.num_switches(); ++s) {
    changed |= (result.best.hosts_on(s) != initial.hosts_on(s));
  }
  EXPECT_TRUE(changed);  // with 3000 iterations some swing lands
}

TEST(Annealer, PreservesEdgeAndPortBudget) {
  Xoshiro256 rng(7);
  const auto initial = random_host_switch_graph(80, 20, 9, rng);
  const auto result = anneal(initial, quick(MoveMode::kTwoNeighborSwing));
  EXPECT_EQ(result.best.num_switch_edges(), initial.num_switch_edges());
  EXPECT_EQ(result.best.num_hosts(), initial.num_hosts());
  EXPECT_TRUE(result.best.fully_attached());
}

TEST(Annealer, TraceRecordsSamples) {
  Xoshiro256 rng(8);
  const auto initial = random_host_switch_graph(48, 12, 8, rng);
  auto options = quick(MoveMode::kTwoNeighborSwing, 1000);
  options.trace_every = 100;
  const auto result = anneal(initial, options);
  EXPECT_EQ(result.trace.size(), 10u);
  for (std::size_t i = 0; i < result.trace.size(); ++i) {
    const AnnealTracePoint& sample = result.trace[i];
    EXPECT_EQ(sample.iteration, i * 100);
    EXPECT_GT(sample.current_haspl, 2.0);
    EXPECT_GT(sample.best_haspl, 2.0);
    // The best seen so far can never trail the current solution.
    EXPECT_LE(sample.best_haspl, sample.current_haspl);
    EXPECT_GT(sample.temperature, 0.0);
    // Geometric cooling: temperatures are non-increasing along the trace.
    if (i > 0) {
      EXPECT_LE(sample.temperature, result.trace[i - 1].temperature);
    }
  }
}

TEST(Annealer, RejectsDisconnectedInitial) {
  HostSwitchGraph g(2, 2, 4);
  g.attach_host(0, 0);
  g.attach_host(1, 1);
  EXPECT_THROW(anneal(g, quick(MoveMode::kSwap)), std::invalid_argument);
}

TEST(Annealer, SingleSwitchGraphIsStable) {
  HostSwitchGraph g(4, 1, 8);
  for (HostId h = 0; h < 4; ++h) g.attach_host(h, 0);
  const auto result = anneal(g, quick(MoveMode::kTwoNeighborSwing, 10));
  EXPECT_DOUBLE_EQ(result.best_metrics.h_aspl, 2.0);
}

}  // namespace
}  // namespace orp
