// Differential test for the incremental h-ASPL evaluator: long randomized
// swap/swing/2n-swing move sequences (accepted AND reverted, including
// disconnect-and-reject paths) must match a from-scratch metrics.cpp
// recompute after every single move, on every escalation tier. Rejections
// alternate randomly between the two supported mechanisms — applying the
// inverse delta and revert_last() — so both stay exact, including nested
// (2n-swing) frames and reverts of fallback rebuilds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/prng.hpp"
#include "hsg/delta_metrics.hpp"
#include "hsg/metrics.hpp"
#include "search/operations.hpp"
#include "search/random_init.hpp"

namespace orp {
namespace {

using EdgeList = std::vector<std::pair<SwitchId, SwitchId>>;

EdgeList collect_edges(const HostSwitchGraph& g) {
  EdgeList edges;
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    for (SwitchId t : g.neighbors(s)) {
      if (s < t) edges.emplace_back(s, t);
    }
  }
  return edges;
}

void sync_delta(EdgeList& edges, const GraphDelta& delta) {
  for (std::uint8_t i = 0; i < delta.num_removed; ++i) {
    auto [a, b] = delta.removed[i];
    if (a > b) std::swap(a, b);
    const auto it = std::find(edges.begin(), edges.end(), std::make_pair(a, b));
    ASSERT_NE(it, edges.end());
    *it = edges.back();
    edges.pop_back();
  }
  for (std::uint8_t i = 0; i < delta.num_added; ++i) {
    auto [a, b] = delta.added[i];
    if (a > b) std::swap(a, b);
    edges.emplace_back(a, b);
  }
}

void expect_metrics_equal(const HostMetrics& got, const HostMetrics& want,
                          const char* where) {
  EXPECT_EQ(got.connected, want.connected) << where;
  EXPECT_EQ(got.total_length, want.total_length) << where;
  EXPECT_EQ(got.diameter, want.diameter) << where;
  EXPECT_EQ(got.connected_pairs, want.connected_pairs) << where;
  EXPECT_EQ(got.unreachable_pairs, want.unreachable_pairs) << where;
  if (want.connected_pairs > 0) {
    EXPECT_DOUBLE_EQ(got.h_aspl, want.h_aspl) << where;
  } else {
    EXPECT_TRUE(std::isinf(got.h_aspl)) << where;
    EXPECT_TRUE(std::isinf(want.h_aspl)) << where;
  }
}

// Every distance entry, not just the aggregates: catches compensating
// per-row errors that the h-ASPL sum could hide.
void expect_state_exact(const DeltaHasplEvaluator& eval,
                        const HostSwitchGraph& g) {
  DeltaHasplEvaluator reference(g);
  ASSERT_EQ(eval.num_switches(), reference.num_switches());
  for (SwitchId a = 0; a < g.num_switches(); ++a) {
    for (SwitchId b = a; b < g.num_switches(); ++b) {
      ASSERT_EQ(eval.distance(a, b), reference.distance(a, b))
          << "a=" << a << " b=" << b;
      ASSERT_EQ(eval.distance(a, b), eval.distance(b, a)) << "symmetry";
    }
  }
}

// Repair paths a drive must reach at least once (DriveCase::must_reach),
// read from the evaluator's Stats.
enum RepairPath : std::uint32_t {
  kSingleAffected = 1,  // removal fixed by a direct min
  kTwoPhase = 2,        // removal re-relaxed by the bucket queue
  kRowBfs = 4,          // removal fixed by a full-row BFS
  kFallback = 8,        // apply rebuilt everything from scratch
  kRowRescan = 16,      // a row's max count reached 0
  kIncremental = kSingleAffected | kTwoPhase | kRowRescan,
};

struct DriveCase {
  std::uint32_t n, m, r;
  std::uint64_t seed;
  int moves;
  DeltaEvalOptions eval_options;
  std::uint32_t must_reach;
};

// Applies random moves until `moves` of them landed; after every apply and
// every revert the evaluator must agree with compute_host_metrics on the
// mutated graph. Disconnecting moves are always reverted (mirroring the
// annealer's reject path); connected ones are kept or reverted at random.
// The battery is only as strong as the branches it reaches, so each case
// also asserts the repair paths it names in `must_reach` fired.
void drive(const DriveCase& tc) {
  Xoshiro256 rng(tc.seed);
  HostSwitchGraph g = random_host_switch_graph(tc.n, tc.m, tc.r, rng);
  DeltaHasplEvaluator eval(g, tc.eval_options);
  EdgeList edges = collect_edges(g);
  expect_metrics_equal(eval.metrics(), compute_host_metrics(g), "initial");

  // Undo the most recent apply. The mechanism is drawn once per proposal
  // chain: within a nested 2n-swing rejection the two undos must match,
  // because an inverse-apply pushes its own frame and a subsequent
  // revert_last() would undo that instead of the original move. Called
  // after `g` has been restored (revert_last needs the pre-apply graph when
  // the apply fell back to a rebuild).
  bool use_revert = false;
  const auto undo = [&](const GraphDelta& delta) {
    if (use_revert) {
      eval.revert_last(g);
    } else {
      eval.apply(delta.inverse());
    }
  };

  int performed = 0;
  for (int guard = 0; performed < tc.moves && guard < tc.moves * 16; ++guard) {
    const std::uint64_t kind = rng.below(3);
    use_revert = rng.bernoulli(0.5);
    if (kind == 0) {
      const auto move = propose_swap(g, edges, rng);
      if (!move) continue;
      const GraphDelta delta = delta_of(*move);
      apply_swap(g, *move);
      const HostMetrics got = eval.apply(delta);
      expect_metrics_equal(got, compute_host_metrics(g), "swap");
      ++performed;
      if (got.connected && rng.bernoulli(0.5)) {
        sync_delta(edges, delta);
      } else {
        apply_swap(g, move->inverse());
        undo(delta);
        expect_metrics_equal(eval.metrics(), compute_host_metrics(g),
                             "revert-swap");
      }
    } else {
      const auto first = propose_swing(g, edges, rng);
      if (!first) continue;
      const GraphDelta first_delta = delta_of(*first);
      apply_swing(g, *first);
      const HostMetrics one = eval.apply(first_delta);
      expect_metrics_equal(one, compute_host_metrics(g), "swing");
      ++performed;
      if (one.connected && rng.bernoulli(0.5)) {
        sync_delta(edges, first_delta);
      } else {
        // Rejected first swing. In 2n-swing mode chain the completing
        // swing before deciding, exactly like the annealer (Fig. 4).
        bool completed = false;
        if (kind == 2) {
          const auto completion = propose_completion_swing(g, *first, rng);
          if (completion) {
            const GraphDelta completion_delta = delta_of(*completion);
            apply_swing(g, *completion);
            const HostMetrics two = eval.apply(completion_delta);
            expect_metrics_equal(two, compute_host_metrics(g), "2n-swing");
            ++performed;
            if (two.connected && rng.bernoulli(0.5)) {
              sync_delta(edges, first_delta);
              sync_delta(edges, completion_delta);
              completed = true;
            } else {
              apply_swing(g, completion->inverse());
              undo(completion_delta);
              expect_metrics_equal(eval.metrics(), compute_host_metrics(g),
                                   "revert-completion");
            }
          }
        }
        if (!completed) {
          apply_swing(g, first->inverse());
          undo(first_delta);
          expect_metrics_equal(eval.metrics(), compute_host_metrics(g),
                               "revert-swing");
        }
      }
    }
    if (performed % 64 == 0) expect_state_exact(eval, g);
  }
  EXPECT_GT(performed, tc.moves / 2) << "proposals kept missing";
  expect_state_exact(eval, g);
  const DeltaHasplEvaluator::Stats& stats = eval.stats();
  EXPECT_GE(stats.applies, static_cast<std::uint64_t>(performed));
  const auto reached = [&](RepairPath path, std::uint64_t count) {
    if (tc.must_reach & path) {
      EXPECT_GT(count, 0u) << "path " << path;
    }
  };
  reached(kSingleAffected, stats.single_affected);
  reached(kTwoPhase, stats.two_phase_repairs);
  reached(kRowBfs, stats.row_bfs_repairs);
  reached(kFallback, stats.fallback_rebuilds);
  reached(kRowRescan, stats.row_rescans);
}

class DeltaDifferential : public ::testing::TestWithParam<DriveCase> {};

TEST_P(DeltaDifferential, MatchesFromScratchRecompute) { drive(GetParam()); }

// ~1.2k landed moves across the grid n in {16,64,128,1024}, r in
// {4,8,12,16}, with fallback fractions that pin both tiers (per-source
// repair only, always rebuild, and mixes of the two), plus the paper's
// headline size (n=1024, m_opt=183, r=16). Together the cases reach every
// repair path.
INSTANTIATE_TEST_SUITE_P(
    RandomizedMoves, DeltaDifferential,
    ::testing::Values(
        DriveCase{16, 8, 4, 1, 120, {}, kIncremental | kRowBfs | kFallback},
        DriveCase{64, 16, 8, 2, 120, {}, kIncremental},
        DriveCase{128, 24, 12, 3, 120, {}, kIncremental},
        DriveCase{64, 16, 8, 4, 120, DeltaEvalOptions{1.0}, kIncremental},
        DriveCase{64, 16, 8, 5, 120, DeltaEvalOptions{0.0}, kFallback},
        DriveCase{128, 24, 12, 6, 120, DeltaEvalOptions{0.3}, kIncremental},
        DriveCase{16, 8, 4, 7, 120, DeltaEvalOptions{0.5}, kIncremental | kFallback},
        DriveCase{100, 40, 6, 8, 120, {}, kIncremental | kRowBfs},
        DriveCase{128, 70, 6, 9, 100, {}, kIncremental},
        DriveCase{1024, 183, 16, 10, 150, {}, kIncremental}));

TEST(DeltaEvaluator, MatchesInitialMetricsExactly) {
  Xoshiro256 rng(11);
  const auto g = random_host_switch_graph(96, 24, 8, rng);
  DeltaHasplEvaluator eval(g);
  expect_metrics_equal(eval.metrics(), compute_host_metrics(g), "fresh");
}

TEST(DeltaEvaluator, BridgeRemovalDisconnectsAndInverseRestores) {
  // Path 0-1-2, hosts on the ends: removing {0,1} cuts host 0 off.
  HostSwitchGraph g(2, 3, 4);
  g.attach_host(0, 0);
  g.attach_host(1, 2);
  g.add_switch_edge(0, 1);
  g.add_switch_edge(1, 2);
  DeltaHasplEvaluator eval(g);

  GraphDelta cut;
  cut.remove_edge(0, 1);
  g.remove_switch_edge(0, 1);
  const HostMetrics broken = eval.apply(cut);
  EXPECT_FALSE(broken.connected);
  EXPECT_EQ(broken.diameter, HostMetrics::kUnreachable);
  EXPECT_TRUE(std::isinf(broken.h_aspl));
  EXPECT_EQ(eval.distance(0, 1), HostMetrics::kUnreachable);
  expect_metrics_equal(broken, compute_host_metrics(g), "disconnected");

  g.add_switch_edge(0, 1);
  const HostMetrics restored = eval.apply(cut.inverse());
  expect_metrics_equal(restored, compute_host_metrics(g), "restored");
  EXPECT_EQ(eval.distance(0, 2), 2u);
}

TEST(DeltaEvaluator, PartialDisconnectKeepsConnectedPairMetrics) {
  // Path 0-1-2 with one host per switch: cutting {1,2} strands host 2 but
  // pair (h0,h1) survives at distance 3 — the evaluator must report the
  // connected-pairs metrics, not bail to infinity.
  HostSwitchGraph g(3, 3, 4);
  g.attach_host(0, 0);
  g.attach_host(1, 1);
  g.attach_host(2, 2);
  g.add_switch_edge(0, 1);
  g.add_switch_edge(1, 2);
  DeltaHasplEvaluator eval(g);

  GraphDelta cut;
  cut.remove_edge(1, 2);
  g.remove_switch_edge(1, 2);
  const HostMetrics broken = eval.apply(cut);
  EXPECT_FALSE(broken.connected);
  EXPECT_EQ(broken.connected_pairs, 1u);
  EXPECT_EQ(broken.unreachable_pairs, 2u);
  EXPECT_DOUBLE_EQ(broken.h_aspl, 3.0);
  EXPECT_EQ(broken.diameter, 3u);
  expect_metrics_equal(broken, compute_host_metrics(g), "partial-cut");

  g.add_switch_edge(1, 2);
  expect_metrics_equal(eval.apply(cut.inverse()), compute_host_metrics(g),
                       "healed");
}

TEST(DeltaEvaluator, RejectsDisconnectedSnapshot) {
  // Mirroring a split graph would corrupt every subsequent delta, so both
  // construction and rebuild() refuse it outright.
  HostSwitchGraph split(2, 2, 4);
  split.attach_host(0, 0);
  split.attach_host(1, 1);
  EXPECT_THROW(DeltaHasplEvaluator eval(split), std::invalid_argument);

  HostSwitchGraph ok(2, 2, 4);
  ok.attach_host(0, 0);
  ok.attach_host(1, 1);
  ok.add_switch_edge(0, 1);
  DeltaHasplEvaluator eval(ok);
  ok.remove_switch_edge(0, 1);  // external edit splits the graph
  EXPECT_THROW(eval.rebuild(ok), std::invalid_argument);
}

TEST(DeltaEvaluator, HostMoveUpdatesWeightsWithoutTouchingDistances) {
  HostSwitchGraph g(4, 3, 6);
  g.attach_host(0, 0);
  g.attach_host(1, 0);
  g.attach_host(2, 1);
  g.attach_host(3, 2);
  g.add_switch_edge(0, 1);
  g.add_switch_edge(1, 2);
  DeltaHasplEvaluator eval(g);

  GraphDelta delta;
  delta.move_host(0, 2);
  g.move_host(0, 2);
  expect_metrics_equal(eval.apply(delta), compute_host_metrics(g), "moved");

  g.move_host(0, 0);
  expect_metrics_equal(eval.apply(delta.inverse()), compute_host_metrics(g),
                       "moved-back");
}

TEST(DeltaEvaluator, HostMoveZeroCrossingsKeepMaxCountsAcrossRevert) {
  // Path 0-1-2-3 with a spur 2-4 and one host on switches 0, 1 and 3, so
  // row 0 has exactly one weighted target (switch 3) at its max, 3.
  // Moving the host from 1 onto the empty spur crosses zero twice and puts
  // a second target at that max; revert_last() must restore the count to
  // one, not only the value. Moving the host off switch 3 then leaves row
  // 0 with no target at its max, so the row is rescanned, and the result
  // is only exact if the count was restored.
  HostSwitchGraph g(3, 5, 4);
  g.attach_host(0, 0);
  g.attach_host(1, 1);
  g.attach_host(2, 3);
  g.add_switch_edge(0, 1);
  g.add_switch_edge(1, 2);
  g.add_switch_edge(2, 3);
  g.add_switch_edge(2, 4);
  DeltaHasplEvaluator eval(g);
  ASSERT_EQ(eval.metrics().diameter, 5u);

  GraphDelta spread;
  spread.move_host(1, 4);
  g.move_host(1, 4);
  expect_metrics_equal(eval.apply(spread), compute_host_metrics(g), "spread");
  g.move_host(1, 1);
  eval.revert_last(g);
  expect_metrics_equal(eval.metrics(), compute_host_metrics(g), "spread-reverted");

  const std::uint64_t rescans = eval.stats().row_rescans;
  GraphDelta gather;
  gather.move_host(3, 1);
  g.move_host(2, 1);
  const HostMetrics gathered = eval.apply(gather);
  expect_metrics_equal(gathered, compute_host_metrics(g), "gathered");
  EXPECT_EQ(gathered.diameter, 3u);
  EXPECT_GT(eval.stats().row_rescans, rescans);

  g.move_host(2, 3);
  eval.revert_last(g);
  expect_metrics_equal(eval.metrics(), compute_host_metrics(g), "gathered-reverted");
  expect_state_exact(eval, g);
}

TEST(DeltaEvaluator, FallbackTierIsExercisedAndCounted) {
  Xoshiro256 rng(13);
  auto g = random_host_switch_graph(64, 16, 8, rng);
  DeltaHasplEvaluator eval(g, DeltaEvalOptions{0.0});  // always rebuild
  EdgeList edges = collect_edges(g);
  std::uint64_t landed = 0;
  for (int i = 0; i < 50; ++i) {
    const auto move = propose_swap(g, edges, rng);
    if (!move) continue;
    apply_swap(g, *move);
    expect_metrics_equal(eval.apply(delta_of(*move)), compute_host_metrics(g),
                         "fallback-apply");
    sync_delta(edges, delta_of(*move));
    ++landed;
  }
  ASSERT_GT(landed, 0u);
  // fallback_fraction = 0 forces a rebuild on every apply with a dirty
  // removal; random swaps essentially always dirty at least one source.
  EXPECT_GT(eval.stats().fallback_rebuilds, 0u);
  EXPECT_EQ(eval.stats().applies, landed);
}

TEST(DeltaEvaluator, RevertLastUndoesFallbackRebuild) {
  // fallback_fraction = 0 turns every apply with a dirty removal into a
  // full rebuild; revert_last() must then resync from the restored graph.
  Xoshiro256 rng(19);
  auto g = random_host_switch_graph(64, 16, 8, rng);
  DeltaHasplEvaluator eval(g, DeltaEvalOptions{0.0});
  EdgeList edges = collect_edges(g);
  std::uint64_t reverted = 0;
  for (int i = 0; i < 20; ++i) {
    const auto move = propose_swap(g, edges, rng);
    if (!move) continue;
    apply_swap(g, *move);
    eval.apply(delta_of(*move));
    apply_swap(g, move->inverse());
    eval.revert_last(g);
    expect_metrics_equal(eval.metrics(), compute_host_metrics(g),
                         "fallback-revert");
    ++reverted;
  }
  ASSERT_GT(reverted, 0u);
  EXPECT_GT(eval.stats().fallback_rebuilds, 0u);
  EXPECT_EQ(eval.stats().reverts, reverted);
  expect_state_exact(eval, g);
}

TEST(DeltaEvaluator, RevertLastPopsNestedFramesInLifoOrder) {
  // Mirrors the annealer's 2-neighbor chain: two stacked applies, undone
  // newest-first. After both reverts the state must be entry-exact.
  Xoshiro256 rng(23);
  auto g = random_host_switch_graph(96, 24, 8, rng);
  DeltaHasplEvaluator eval(g);
  EdgeList edges = collect_edges(g);

  const auto first = propose_swing(g, edges, rng);
  ASSERT_TRUE(first.has_value());
  apply_swing(g, *first);
  eval.apply(delta_of(*first));
  sync_delta(edges, delta_of(*first));

  const auto second = propose_swing(g, edges, rng);
  ASSERT_TRUE(second.has_value());
  apply_swing(g, *second);
  eval.apply(delta_of(*second));

  apply_swing(g, second->inverse());
  eval.revert_last(g);
  expect_metrics_equal(eval.metrics(), compute_host_metrics(g), "pop-second");

  apply_swing(g, first->inverse());
  eval.revert_last(g);
  expect_metrics_equal(eval.metrics(), compute_host_metrics(g), "pop-first");
  expect_state_exact(eval, g);
}

TEST(DeltaEvaluator, RevertLastWithoutPendingApplyThrows) {
  Xoshiro256 rng(29);
  const auto g = random_host_switch_graph(32, 8, 8, rng);
  DeltaHasplEvaluator eval(g);
  EXPECT_THROW(eval.revert_last(g), std::invalid_argument);
}

TEST(DeltaEvaluator, RebuildResynchronizesAfterExternalEdits) {
  Xoshiro256 rng(17);
  auto g = random_host_switch_graph(48, 12, 8, rng);
  DeltaHasplEvaluator eval(g);
  EdgeList edges = collect_edges(g);
  const auto move = propose_swap(g, edges, rng);
  ASSERT_TRUE(move.has_value());
  apply_swap(g, *move);  // evaluator not told
  eval.rebuild(g);
  expect_metrics_equal(eval.metrics(), compute_host_metrics(g), "resynced");
}

TEST(GraphDelta, InverseSwapsAdditionsAndRemovals) {
  GraphDelta delta;
  delta.add_edge(1, 2).remove_edge(3, 4).move_host(5, 6);
  const GraphDelta inv = delta.inverse();
  ASSERT_EQ(inv.num_added, 1);
  ASSERT_EQ(inv.num_removed, 1);
  ASSERT_EQ(inv.num_host_moves, 1);
  EXPECT_EQ(inv.added[0], std::make_pair(SwitchId{3}, SwitchId{4}));
  EXPECT_EQ(inv.removed[0], std::make_pair(SwitchId{1}, SwitchId{2}));
  EXPECT_EQ(inv.host_moves[0].from, 6u);
  EXPECT_EQ(inv.host_moves[0].to, 5u);
}

}  // namespace
}  // namespace orp
