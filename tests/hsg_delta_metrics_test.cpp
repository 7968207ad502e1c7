// Differential test for the incremental h-ASPL evaluator: long randomized
// swap/swing/2n-swing move sequences (accepted AND reverted, including
// disconnect-and-reject paths) must match a from-scratch metrics.cpp
// recompute after every single move, on every escalation tier. Rejections
// alternate randomly between the two supported mechanisms — applying the
// inverse delta and revert_last() — so both stay exact, including nested
// (2n-swing) frames and reverts of fallback rebuilds. The early-exit
// cases stop apply_or_reject() at every checkpoint and check that the
// partial frame reverts exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
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

// A RejectTest that rejects at its `reject_at`-th call (never when 0) and
// records every bound it was shown.
class ScriptedTest final : public DeltaHasplEvaluator::RejectTest {
 public:
  explicit ScriptedTest(std::uint64_t reject_at = 0) : reject_at_(reject_at) {}
  bool rejects(std::uint64_t total_length_bound) override {
    bounds.push_back(total_length_bound);
    return bounds.size() == reject_at_;
  }
  std::vector<std::uint64_t> bounds;

 private:
  std::uint64_t reject_at_;
};

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
  // Evaluate swaps, swings and completion swings (not the 2n-swing's first
  // swing, as in the annealer) with apply_or_reject(), under a test that
  // rejects at a random checkpoint or never.
  bool early_exit = false;
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

  // Early-exit drives draw their checkpoints from a stream of their own.
  // A stopped apply is always reverted with revert_last(); the returned
  // metrics of a completed one must match like apply()'s.
  Xoshiro256 early_rng(tc.seed ^ 0x5eedULL);
  std::uint64_t early_stops = 0;
  const auto evaluate = [&](const GraphDelta& delta,
                            bool may_stop) -> std::optional<HostMetrics> {
    if (!tc.early_exit || !may_stop) return eval.apply(delta);
    ScriptedTest test(early_rng.below(8));  // 0 = never reject
    const std::optional<HostMetrics> got = eval.apply_or_reject(delta, test);
    if (!got) {
      ++early_stops;
      EXPECT_FALSE(test.bounds.empty());
    }
    return got;
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
      const std::optional<HostMetrics> got = evaluate(delta, true);
      ++performed;
      if (got) expect_metrics_equal(*got, compute_host_metrics(g), "swap");
      if (got && got->connected && rng.bernoulli(0.5)) {
        sync_delta(edges, delta);
      } else {
        apply_swap(g, move->inverse());
        got ? undo(delta) : eval.revert_last(g);
        expect_metrics_equal(eval.metrics(), compute_host_metrics(g),
                             "revert-swap");
      }
    } else {
      const auto first = propose_swing(g, edges, rng);
      if (!first) continue;
      const GraphDelta first_delta = delta_of(*first);
      apply_swing(g, *first);
      const std::optional<HostMetrics> one = evaluate(first_delta, kind == 1);
      ++performed;
      if (one) expect_metrics_equal(*one, compute_host_metrics(g), "swing");
      if (one && one->connected && rng.bernoulli(0.5)) {
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
            const std::optional<HostMetrics> two = evaluate(completion_delta, true);
            ++performed;
            if (two) expect_metrics_equal(*two, compute_host_metrics(g), "2n-swing");
            if (two && two->connected && rng.bernoulli(0.5)) {
              sync_delta(edges, first_delta);
              sync_delta(edges, completion_delta);
              completed = true;
            } else {
              apply_swing(g, completion->inverse());
              two ? undo(completion_delta) : eval.revert_last(g);
              expect_metrics_equal(eval.metrics(), compute_host_metrics(g),
                                   "revert-completion");
            }
          }
        }
        if (!completed) {
          apply_swing(g, first->inverse());
          one ? undo(first_delta) : eval.revert_last(g);
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
  EXPECT_EQ(stats.early_rejects, early_stops);
  if (tc.early_exit) {
    EXPECT_GT(early_stops, 0u);
  }
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

// The same grid with early exits: swaps, swings and completion swings may
// stop at a random checkpoint, and a stopped apply is always reverted.
INSTANTIATE_TEST_SUITE_P(
    EarlyExitMoves, DeltaDifferential,
    ::testing::Values(
        DriveCase{16, 8, 4, 1, 120, {}, kIncremental | kRowBfs | kFallback, true},
        DriveCase{64, 16, 8, 2, 120, {}, kIncremental, true},
        DriveCase{128, 24, 12, 3, 120, {}, kIncremental, true},
        DriveCase{16, 8, 4, 7, 120, DeltaEvalOptions{0.5}, kIncremental | kFallback, true},
        DriveCase{100, 40, 6, 8, 120, {}, kIncremental | kRowBfs, true},
        DriveCase{1024, 183, 16, 10, 150, {}, kIncremental, true}));

// ---- early exit ---------------------------------------------------------

// The whole distance matrix and the metrics, for bit-exact comparisons.
struct EvalState {
  std::vector<std::uint32_t> dist;
  HostMetrics metrics;
};

EvalState capture(const DeltaHasplEvaluator& eval) {
  EvalState state;
  const std::uint32_t m = eval.num_switches();
  state.dist.reserve(std::size_t{m} * m);
  for (SwitchId a = 0; a < m; ++a) {
    for (SwitchId b = 0; b < m; ++b) state.dist.push_back(eval.distance(a, b));
  }
  state.metrics = eval.metrics();
  return state;
}

void expect_same_state(const DeltaHasplEvaluator& eval, const EvalState& want,
                       const char* where) {
  const EvalState got = capture(eval);
  EXPECT_TRUE(got.dist == want.dist) << where;
  expect_metrics_equal(got.metrics, want.metrics, where);
  EXPECT_EQ(std::memcmp(&got.metrics.h_aspl, &want.metrics.h_aspl, sizeof(double)), 0)
      << where;
}

// What the moves checked by stop_at_every_checkpoint() exercised.
struct Coverage {
  std::uint64_t single_affected = 0, two_phase = 0, row_bfs = 0;
  std::uint64_t second_removal_stops = 0;  // stops inside a swap's 2nd removal
  std::uint64_t zero_crossings = 0;        // host moves emptying / filling a switch
  std::uint64_t stops = 0;
};

// `delta` takes `before` to `after`. Applies it once with a test that never
// rejects, checking the bounds it is shown (never above the final
// total_length, never falling, equal to it at the last checkpoint), then
// once per checkpoint k with a test that rejects at the k-th: each stopped
// apply must show the same bounds, and revert_last() must bring back the
// pre-apply matrix and metrics bit for bit.
void stop_at_every_checkpoint(DeltaHasplEvaluator& eval, const HostSwitchGraph& before,
                              const HostSwitchGraph& after, const GraphDelta& delta,
                              Coverage& coverage) {
  const EvalState pre = capture(eval);
  const DeltaHasplEvaluator::Stats s0 = eval.stats();
  ScriptedTest full;
  const std::optional<HostMetrics> done = eval.apply_or_reject(delta, full);
  ASSERT_TRUE(done.has_value());
  const HostMetrics want = compute_host_metrics(after);
  expect_metrics_equal(*done, want, "complete");
  const DeltaHasplEvaluator::Stats s1 = eval.stats();
  eval.revert_last(before);
  expect_same_state(eval, pre, "revert-complete");
  if (full.bounds.empty()) return;  // not certified connected

  EXPECT_TRUE(want.connected);
  for (std::size_t i = 0; i < full.bounds.size(); ++i) {
    EXPECT_LE(full.bounds[i], want.total_length) << "checkpoint " << i;
    if (i > 0) {
      EXPECT_GE(full.bounds[i], full.bounds[i - 1]) << "checkpoint " << i;
    }
  }
  if (s1.fallback_rebuilds == s0.fallback_rebuilds) {
    EXPECT_EQ(full.bounds.back(), want.total_length);
  }
  if (full.bounds.size() > 1) {
    // A checkpoint follows every removal repair of this apply.
    coverage.single_affected += s1.single_affected - s0.single_affected;
    coverage.two_phase += s1.two_phase_repairs - s0.two_phase_repairs;
    coverage.row_bfs += s1.row_bfs_repairs - s0.row_bfs_repairs;
  }
  // A swap's checkpoints up to the end of its first removal are those of
  // the same delta without the second removal.
  std::size_t first_removal_end = full.bounds.size();
  if (delta.num_removed == 2) {
    GraphDelta first_only = delta;
    first_only.num_removed = 1;
    ScriptedTest probe;
    ASSERT_TRUE(eval.apply_or_reject(first_only, probe).has_value());
    eval.revert_last(before);
    ASSERT_LE(probe.bounds.size(), full.bounds.size());
    EXPECT_TRUE(std::equal(probe.bounds.begin(), probe.bounds.end(), full.bounds.begin()));
    first_removal_end = probe.bounds.size();
  }

  for (std::size_t k = 1; k <= full.bounds.size(); ++k) {
    ScriptedTest stop(k);
    const DeltaHasplEvaluator::Stats before_stop = eval.stats();
    ASSERT_FALSE(eval.apply_or_reject(delta, stop).has_value()) << "k=" << k;
    EXPECT_EQ(eval.stats().early_rejects, before_stop.early_rejects + 1);
    ASSERT_EQ(stop.bounds.size(), k);
    EXPECT_TRUE(std::equal(stop.bounds.begin(), stop.bounds.end(), full.bounds.begin()));
    if (k > first_removal_end) ++coverage.second_removal_stops;
    eval.revert_last(before);
    expect_same_state(eval, pre, "revert-stopped");
    ++coverage.stops;
  }
}

TEST(EarlyExit, StopsAtEveryCheckpointAndRevertsExactly) {
  struct Instance {
    std::uint32_t n, m, r;
    std::uint64_t seed;
  };
  Coverage coverage;
  for (const Instance inst : {Instance{16, 8, 4, 31}, Instance{64, 16, 8, 32},
                              Instance{100, 40, 6, 33}, Instance{128, 24, 12, 34}}) {
    Xoshiro256 rng(inst.seed);
    HostSwitchGraph g = random_host_switch_graph(inst.n, inst.m, inst.r, rng);
    DeltaHasplEvaluator eval(g);
    EdgeList edges = collect_edges(g);
    for (int i = 0; i < 40; ++i) {
      const HostSwitchGraph before = g;
      GraphDelta delta;
      if (i % 2 == 0) {
        const auto move = propose_swap(g, edges, rng);
        if (!move) continue;
        delta = delta_of(*move);
        apply_swap(g, *move);
      } else {
        const auto move = propose_swing(g, edges, rng);
        if (!move) continue;
        if (before.hosts_on(move->c) == 1 || before.hosts_on(move->b) == 0) {
          ++coverage.zero_crossings;
        }
        delta = delta_of(*move);
        apply_swing(g, *move);
      }
      stop_at_every_checkpoint(eval, before, g, delta, coverage);
      // Keep a connected move now and then so the walk moves on.
      const HostMetrics now = eval.apply(delta);
      if (now.connected && rng.bernoulli(0.5)) {
        sync_delta(edges, delta);
      } else {
        g = before;
        eval.revert_last(g);
      }
    }
    expect_state_exact(eval, g);
  }
  EXPECT_GT(coverage.stops, 0u);
  EXPECT_GT(coverage.single_affected, 0u);
  EXPECT_GT(coverage.two_phase, 0u);
  EXPECT_GT(coverage.row_bfs, 0u);
  EXPECT_GT(coverage.zero_crossings, 0u);
  EXPECT_GT(coverage.second_removal_stops, 0u);
}

// The annealer's 2-neighbor chain: a complete first swing stays pending
// while the completion swing stops at each checkpoint; popping both frames
// afterwards must restore the state before the first swing.
TEST(EarlyExit, StopsOverAPendingFrame) {
  Coverage coverage;
  Xoshiro256 rng(37);
  HostSwitchGraph g = random_host_switch_graph(128, 24, 12, rng);
  DeltaHasplEvaluator eval(g);
  const EdgeList edges = collect_edges(g);
  const EvalState start = capture(eval);
  int nested = 0;
  for (int i = 0; i < 30; ++i) {
    const auto first = propose_swing(g, edges, rng);
    if (!first) continue;
    const HostSwitchGraph before = g;
    apply_swing(g, *first);
    eval.apply(delta_of(*first));
    const auto completion = propose_completion_swing(g, *first, rng);
    if (completion) {
      const HostSwitchGraph middle = g;
      apply_swing(g, *completion);
      stop_at_every_checkpoint(eval, middle, g, delta_of(*completion), coverage);
      g = middle;
      ++nested;
    }
    g = before;
    eval.revert_last(g);
    expect_same_state(eval, start, "pop-first");
  }
  EXPECT_GT(nested, 0);
  EXPECT_GT(coverage.stops, 0u);
}

// A removal whose endpoints are not shown to stay within three hops never
// reaches the test: a bridge (the candidate disconnects), and a ring edge
// whose detour is four hops (it stays connected). A three-hop detour does.
TEST(EarlyExit, OnlyCertifiedRemovalsReachTheTest) {
  {
    // Path 0-1-2-3 with hosts on 0 and 3: dropping {2,3} strands host 1.
    HostSwitchGraph g(2, 4, 4);
    g.attach_host(0, 0);
    g.attach_host(1, 3);
    for (SwitchId s = 0; s < 3; ++s) g.add_switch_edge(s, s + 1);
    DeltaHasplEvaluator eval(g);
    const EvalState pre = capture(eval);
    const HostSwitchGraph before = g;
    GraphDelta bridge;
    bridge.remove_edge(2, 3).add_edge(0, 2);
    g.remove_switch_edge(2, 3);
    g.add_switch_edge(0, 2);
    ScriptedTest test(1);
    const std::optional<HostMetrics> got = eval.apply_or_reject(bridge, test);
    EXPECT_TRUE(test.bounds.empty());
    ASSERT_TRUE(got.has_value());
    EXPECT_FALSE(got->connected);
    expect_metrics_equal(*got, compute_host_metrics(g), "bridge");

    // Over that disconnected pending frame no bound exists either.
    GraphDelta heal;
    heal.add_edge(1, 3);
    g.add_switch_edge(1, 3);
    ScriptedTest over(1);
    const std::optional<HostMetrics> healed = eval.apply_or_reject(heal, over);
    EXPECT_TRUE(over.bounds.empty());
    ASSERT_TRUE(healed.has_value());
    expect_metrics_equal(*healed, compute_host_metrics(g), "healed");
    g.remove_switch_edge(1, 3);
    eval.revert_last(g);
    g = before;
    eval.revert_last(g);
    expect_same_state(eval, pre, "bridge-reverted");
  }
  for (const std::uint32_t ring : {8u, 6u}) {
    // A ring of `ring` switches with one host each loses {0,1} and gains a
    // chord from 0: {0,4} on 8 switches leaves the detour 0-4-3-2-1 (four
    // hops), {0,3} on 6 switches the detour 0-3-2-1 (three).
    const SwitchId chord = ring == 8 ? 4 : 3;
    HostSwitchGraph g(ring, ring, 4);
    for (SwitchId s = 0; s < ring; ++s) {
      g.attach_host(s, s);
      g.add_switch_edge(s, (s + 1) % ring);
    }
    DeltaHasplEvaluator eval(g);
    GraphDelta cut;
    cut.remove_edge(0, 1).add_edge(0, chord);
    g.remove_switch_edge(0, 1);
    g.add_switch_edge(0, chord);
    ScriptedTest test;
    const std::optional<HostMetrics> got = eval.apply_or_reject(cut, test);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(got->connected);
    expect_metrics_equal(*got, compute_host_metrics(g), "ring");
    if (ring == 8) {
      EXPECT_TRUE(test.bounds.empty());
    } else {
      ASSERT_FALSE(test.bounds.empty());
      EXPECT_EQ(test.bounds.back(), got->total_length);
    }
  }
}

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
