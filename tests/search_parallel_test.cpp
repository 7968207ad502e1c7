// Tests for the annealer's temperature ladder (replica-exchange parallel
// tempering): determinism across thread-pool sizes, runs and barrier
// chunkings, the exchange-rule properties the protocol's correctness rests
// on, structural invariants, quality at matched budgets, and the
// solver-level wiring.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "common/prng.hpp"
#include "common/thread_pool.hpp"
#include "hsg/io.hpp"
#include "search/parallel.hpp"
#include "search/random_init.hpp"
#include "search/solver.hpp"
#include "trace_lines.hpp"

namespace orp {
namespace {

AnnealOptions pool_options(std::uint32_t replicas,
                           std::uint64_t per_replica_iters,
                           std::uint64_t seed,
                           std::uint64_t swap_interval = 64) {
  AnnealOptions options;
  options.iterations = per_replica_iters;
  options.seed = seed;
  options.mode = MoveMode::kTwoNeighborSwing;
  options.replicas = replicas;
  options.swap_interval = swap_interval;
  return options;
}

HostSwitchGraph test_graph(std::uint32_t n, std::uint32_t m, std::uint32_t r,
                           std::uint64_t seed) {
  Xoshiro256 rng(seed);
  return random_host_switch_graph(n, m, r, rng);
}

/// Canonical bytes of one anneal() run: the .hsg edge list, the metric
/// integers, the per-rung stats, the barrier bests and the trace's
/// annealer.* lines. Two runs are "the same result" iff these bytes match.
std::string canonical_bytes(const HostSwitchGraph& initial, const AnnealOptions& options) {
  const auto [out, lines] =
      run_traced("annealer.", [&] { return anneal(initial, options); });
  std::ostringstream os;
  write_hsg(os, out.best);
  os << "total_length " << out.best_metrics.total_length << "\n"
     << "diameter " << out.best_metrics.diameter << "\n"
     << "evaluations " << out.evaluations << "\n"
     << "accepted " << out.accepted << "\n"
     << "best_replica " << out.best_replica << "\n";
  for (const ReplicaStats& r : out.replicas) {
    os << r.moves << " " << r.accepted << " " << r.swaps_attempted << " "
       << r.swaps_accepted << " " << r.restarts << " " << r.best_haspl << "\n";
  }
  for (const double b : out.round_best_haspl) os << b << "\n";
  for (const std::string& line : lines) os << line << "\n";
  return os.str();
}

// ---- determinism ---------------------------------------------------------

// The ladder's core guarantee: the K=8 result is a pure function of
// (seed, K) — byte-identical across thread-pool sizes 1, 2, and
// hardware_concurrency, across pool vs no-pool execution, and across
// repeated runs in the same process. With a pool, rung 0 writes its
// annealer.* windows from a pool worker.
TEST(ParallelAnnealer, K8ByteIdenticalAcrossPoolSizesAndRuns) {
  const auto initial = test_graph(96, 24, 8, 11);
  auto options = pool_options(8, 400, 77);

  const std::string no_pool = canonical_bytes(initial, options);

  std::vector<std::size_t> sizes = {1, 2};
  const std::size_t hw = std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  if (hw != 1 && hw != 2) sizes.push_back(hw);
  for (const std::size_t threads : sizes) {
    ThreadPool pool(threads);
    options.pool = &pool;
    EXPECT_EQ(no_pool, canonical_bytes(initial, options))
        << "pool size " << threads;
    // Second run with the same pool: no state leaks between runs.
    EXPECT_EQ(no_pool, canonical_bytes(initial, options))
        << "pool size " << threads << " (second run)";
  }
}

TEST(ParallelAnnealer, SwapIntervalChunkingDoesNotChangeReplicaWalks) {
  // Different swap intervals change WHEN barriers happen (so the number of
  // round_best samples differs by design) — but a single replica has no
  // exchanges, so its WALK must be chunk-invariant: same graph, same
  // annealer.* trace lines, same counters.
  const auto initial = test_graph(64, 16, 8, 5);
  const auto fine = pool_options(1, 600, 13, /*swap_interval=*/7);
  const auto coarse = pool_options(1, 600, 13, /*swap_interval=*/600);
  const auto [a, a_lines] = run_traced("annealer.", [&] { return anneal(initial, fine); });
  const auto [b, b_lines] = run_traced("annealer.", [&] { return anneal(initial, coarse); });
  EXPECT_TRUE(a.best == b.best);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_FALSE(a_lines.empty());
  EXPECT_EQ(a_lines, b_lines);
}

TEST(ParallelAnnealer, DifferentSeedsDiverge) {
  const auto initial = test_graph(64, 16, 8, 5);
  EXPECT_NE(canonical_bytes(initial, pool_options(4, 400, 1)),
            canonical_bytes(initial, pool_options(4, 400, 2)));
}

// ---- structural invariants ----------------------------------------------

TEST(ParallelAnnealer, ResultSatisfiesGraphInvariants) {
  const auto initial = test_graph(96, 24, 8, 21);
  const auto out = anneal(initial, pool_options(4, 500, 3));
  out.best.check_invariants();
  EXPECT_TRUE(out.best.fully_attached());
  EXPECT_TRUE(out.best_metrics.connected);
  EXPECT_EQ(out.best.num_switch_edges(), initial.num_switch_edges());
  const auto recomputed = compute_host_metrics(out.best);
  EXPECT_EQ(recomputed.total_length, out.best_metrics.total_length);
  EXPECT_EQ(recomputed.diameter, out.best_metrics.diameter);
}

TEST(ParallelAnnealer, AggregatesCountersAcrossReplicas) {
  const std::uint32_t replicas = 4;
  const std::uint64_t per_replica = 300;
  const auto initial = test_graph(64, 16, 8, 9);
  const auto out = anneal(initial, pool_options(replicas, per_replica, 4));
  ASSERT_EQ(out.replicas.size(), replicas);
  std::uint64_t moves = 0, accepted = 0;
  for (const ReplicaStats& stats : out.replicas) {
    EXPECT_EQ(stats.moves, per_replica);
    moves += stats.moves;
    accepted += stats.accepted;
  }
  EXPECT_EQ(moves, replicas * per_replica);
  EXPECT_EQ(out.accepted, accepted);
  // evaluations = initial evaluation per replica + one per proposed move
  // (two-neighbor swing may evaluate twice per iteration), so at least
  // moves + replicas.
  EXPECT_GE(out.evaluations, moves + replicas);
  EXPECT_LT(out.best_replica, replicas);
  // The global best is the min over every rung's own best.
  double best_rung = out.replicas[0].best_haspl;
  for (const ReplicaStats& stats : out.replicas) {
    best_rung = std::min(best_rung, stats.best_haspl);
  }
  EXPECT_DOUBLE_EQ(out.best_metrics.h_aspl, best_rung);
}

// ---- exchange-rule properties (randomized) ------------------------------

TEST(ParallelExchange, LadderIsSortedStartsAtOneAndIsGeometric) {
  for (std::uint32_t k = 1; k <= 12; ++k) {
    const auto ladder = temperature_ladder(k);
    ASSERT_EQ(ladder.size(), k);
    EXPECT_DOUBLE_EQ(ladder[0], 1.0);
    EXPECT_TRUE(std::is_sorted(ladder.begin(), ladder.end()));
    for (std::size_t i = 2; i < ladder.size(); ++i) {
      // Geometric: constant adjacent ratio.
      EXPECT_NEAR(ladder[i] / ladder[i - 1], ladder[1] / ladder[0], 1e-9);
    }
    if (k > 1) {
      EXPECT_NEAR(ladder.back(), 4.0, 1e-9);  // the hottest rung runs at 4x
    }
  }
  EXPECT_THROW(temperature_ladder(0), std::invalid_argument);
}

TEST(ParallelExchange, SwapScheduleIsDisjointAdjacentAndAlternating) {
  Xoshiro256 rng(200);
  for (int trial = 0; trial < 100; ++trial) {
    const auto k = static_cast<std::uint32_t>(1 + rng.below(16));
    const std::uint64_t round = rng.below(1000);
    const auto pairs = swap_pairs_for_round(round, k);
    std::vector<bool> used(k, false);
    for (const auto& [lo, hi] : pairs) {
      EXPECT_EQ(hi, lo + 1);                    // adjacent rungs only
      EXPECT_EQ(lo % 2, round % 2);             // parity follows the round
      ASSERT_LT(hi, k);
      EXPECT_FALSE(used[lo]) << "rung in two pairs";
      EXPECT_FALSE(used[hi]) << "rung in two pairs";
      used[lo] = used[hi] = true;
    }
    // Consecutive rounds cover every adjacent pair.
    if (k >= 2) {
      const auto even = swap_pairs_for_round(0, k);
      const auto odd = swap_pairs_for_round(1, k);
      EXPECT_EQ(even.size() + odd.size(), k - 1);
    }
  }
}

TEST(ParallelExchange, ForcedAcceptWhenColderRungHoldsHigherEnergy) {
  Xoshiro256 rng(300);
  for (int trial = 0; trial < 200; ++trial) {
    const double t_cold = 0.01 + rng.uniform();
    const double t_hot = t_cold * (1.01 + rng.uniform());
    const double e_hot = rng.uniform() * 10.0;
    const double e_cold = e_hot + rng.uniform() * 5.0 + 1e-6;  // E_i > E_j
    const double exponent = exchange_exponent(e_cold, e_hot, t_cold, t_hot);
    EXPECT_GE(exponent, 0.0);
    // Forced accepts never draw from the stream.
    const Xoshiro256 before = rng;
    Xoshiro256 probe = rng;
    EXPECT_TRUE(accept_exchange(exponent, probe));
    Xoshiro256 untouched = before;
    EXPECT_EQ(probe(), untouched());
  }
}

TEST(ParallelExchange, UnfavorableSwapAcceptedWithMetropolisProbability) {
  // exponent = ln(p): over many draws the acceptance rate approaches p.
  Xoshiro256 rng(400);
  const double p = 0.25;
  const double exponent = std::log(p);
  int accepted = 0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) accepted += accept_exchange(exponent, rng);
  EXPECT_NEAR(static_cast<double>(accepted) / trials, p, 0.02);
}

// Swaps exchange configurations between rungs — the multiset of replica
// states is preserved, and the global best never regresses across rounds.
// Restarts do not break either: a restart copies the owner's best into a
// trailing rung and leaves the global best as it was.
TEST(ParallelAnnealer, SwapsPreserveStateMultisetAndBestIsMonotone) {
  const auto initial = test_graph(64, 16, 8, 33);

  // Drive the exchange machinery hard: many rungs, frequent barriers.
  const auto out = anneal(initial, pool_options(6, 600, 5, /*swap_interval=*/16));

  // Monotone global best across swap rounds.
  ASSERT_FALSE(out.round_best_haspl.empty());
  for (std::size_t i = 1; i < out.round_best_haspl.size(); ++i) {
    EXPECT_LE(out.round_best_haspl[i], out.round_best_haspl[i - 1]);
  }
  // Exchanges happened and were only ever pairwise (each accepted swap is
  // counted once on each endpoint).
  std::uint64_t attempted = 0, swapped = 0;
  for (const ReplicaStats& stats : out.replicas) {
    attempted += stats.swaps_attempted;
    swapped += stats.swaps_accepted;
    EXPECT_LE(stats.swaps_accepted, stats.swaps_attempted);
  }
  EXPECT_EQ(attempted % 2, 0u);
  EXPECT_EQ(swapped % 2, 0u);
  EXPECT_GT(attempted, 0u);

  // Multiset preservation, observed end to end: every move is a valid SA
  // move, a pairwise exchange or a restart from a state some rung held, so
  // the edge/port budget of the final state matches the initial graph's
  // (no state was invented or lost into a rung).
  EXPECT_EQ(out.best.num_switch_edges(), initial.num_switch_edges());
  EXPECT_EQ(out.best.num_hosts(), initial.num_hosts());
}

// The exchange machinery at its busiest on the fixed ladder (hottest rung
// at 4x): four rungs with a barrier every 8 moves, so every adjacent pair
// is tried every other barrier and a rung can restart after 24 moves
// without improving. Two runs must give the same bytes and a valid,
// connected result.
TEST(ParallelAnnealer, BarrierEvery8MovesStillProducesValidDeterministicResult) {
  const auto initial = test_graph(48, 12, 8, 44);
  const auto options = pool_options(4, 300, 6, /*swap_interval=*/8);
  EXPECT_EQ(canonical_bytes(initial, options), canonical_bytes(initial, options));
  const auto a = anneal(initial, options);
  a.best.check_invariants();
  EXPECT_TRUE(a.best_metrics.connected);
}

// ---- quality -------------------------------------------------------------

// The wall-clock claim, phrased deterministically: on K cores the ladder
// runs K replicas in the time the K = 1 chain runs one, so at EQUAL WALL
// TIME K8 affords 8x the total moves. Compare the
// two at the same per-chain move count (= same wall time on 8 cores): the
// tempered population must do at least as well as the single serial chain.
TEST(ParallelAnnealer, TemperedPopulationBeatsSerialAtEqualWallTimeBudget) {
  const std::uint64_t per_chain = 2000;
  const auto initial = test_graph(256, 55, 12, 7);

  AnnealOptions serial_options;
  serial_options.iterations = per_chain;
  serial_options.seed = 99;
  serial_options.mode = MoveMode::kTwoNeighborSwing;
  const auto serial = anneal(initial, serial_options);

  const auto pool = anneal(initial, pool_options(8, per_chain, 99, 64));

  EXPECT_LE(pool.best_metrics.total_length,
            serial.best_metrics.total_length);
}

// ---- solver wiring -------------------------------------------------------

TEST(ParallelSolver, PoolBackendSplitsBudgetAcrossReplicas) {
  SolveOptions options;
  options.iterations = 2000;
  options.seed = 12;
  options.replicas = 4;
  options.swap_interval = 100;
  options.force_switch_count = 16;
  const auto result = solve_orp(64, 8, options);
  result.graph.check_invariants();
  EXPECT_TRUE(result.metrics.connected);
  EXPECT_FALSE(result.used_clique);
  EXPECT_FALSE(result.interrupted);
}

TEST(ParallelSolver, PoolBackendDeterministicAcrossPoolSizes) {
  SolveOptions options;
  options.iterations = 3200;
  options.seed = 8;
  options.replicas = 16;
  options.swap_interval = 50;
  options.force_switch_count = 16;

  auto bytes = [&](ThreadPool* pool) {
    options.pool = pool;
    const auto result = solve_orp(64, 8, options);
    std::ostringstream os;
    write_hsg(os, result.graph);
    os << result.metrics.total_length << " " << result.metrics.diameter;
    return os.str();
  };

  const std::string serial_run = bytes(nullptr);
  ThreadPool one(1), two(2);
  EXPECT_EQ(serial_run, bytes(&one));
  EXPECT_EQ(serial_run, bytes(&two));
}

}  // namespace
}  // namespace orp
