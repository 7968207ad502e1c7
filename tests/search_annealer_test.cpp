// Tests for the simulated annealer: improvement over random starts,
// structural invariants of the result, determinism, mode behaviour.
#include <gtest/gtest.h>

#include <string>

#include "common/prng.hpp"
#include "hsg/bounds.hpp"
#include "obs/metrics.hpp"
#include "search/annealer.hpp"
#include "search/annealer_core.hpp"
#include "search/parallel.hpp"
#include "search/random_init.hpp"

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

// Differential test against the replica-exchange backend: a one-rung
// ladder IS the serial annealer. Rung 0 keeps the seed verbatim, its
// temperature scale is exactly 1.0, the swap schedule is empty, and no
// restart can fire (the only rung always owns the global best) — so the
// pool backend at K=1 must reproduce the serial walk bit for bit,
// including the step-by-step trace.
TEST(Annealer, PoolBackendWithOneReplicaMatchesSerialExactly) {
  for (const MoveMode mode :
       {MoveMode::kSwap, MoveMode::kSwing, MoveMode::kTwoNeighborSwing}) {
    Xoshiro256 rng_serial(31), rng_pool(31);
    const auto init_serial = random_host_switch_graph(96, 24, 8, rng_serial);
    const auto init_pool = random_host_switch_graph(96, 24, 8, rng_pool);
    ASSERT_TRUE(init_serial == init_pool);

    auto options = quick(mode, 1200, 57);
    options.trace_every = 1;
    const auto serial = anneal(init_serial, options);

    ParallelAnnealOptions pool_options;
    pool_options.base = options;
    pool_options.replicas = 1;
    pool_options.swap_interval = 100;  // chunking must not matter
    const auto pool = parallel_anneal(init_pool, pool_options);

    EXPECT_EQ(pool.best_replica, 0u);
    EXPECT_TRUE(serial.best == pool.result.best);
    EXPECT_EQ(serial.accepted, pool.result.accepted);
    EXPECT_EQ(serial.evaluations, pool.result.evaluations);
    EXPECT_EQ(serial.best_metrics.total_length,
              pool.result.best_metrics.total_length);
    EXPECT_DOUBLE_EQ(serial.best_metrics.h_aspl,
                     pool.result.best_metrics.h_aspl);
    ASSERT_EQ(serial.trace.size(), pool.result.trace.size());
    for (std::size_t i = 0; i < serial.trace.size(); ++i) {
      EXPECT_EQ(serial.trace[i].iteration, pool.result.trace[i].iteration);
      EXPECT_DOUBLE_EQ(serial.trace[i].current_haspl,
                       pool.result.trace[i].current_haspl);
      EXPECT_DOUBLE_EQ(serial.trace[i].best_haspl,
                       pool.result.trace[i].best_haspl);
      EXPECT_DOUBLE_EQ(serial.trace[i].temperature,
                       pool.result.trace[i].temperature);
    }
  }
}

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
