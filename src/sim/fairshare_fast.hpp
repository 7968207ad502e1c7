#pragma once
// Scaled max-min fair allocation: the fluid engine's solver.
//
// Plain progressive filling (the test oracle, tests/oracle/fairshare.hpp)
// re-solves from scratch on every active-set change and scans every
// touched link per filling round, which makes a communication phase cost
// O(#completion-batches * #rounds * (links + flows * path length)). This
// solver brings that down to roughly
// "what changed" with three cooperating ideas (docs/sim.md):
//
//  1. Same-route flow aggregation. Flows are hashed by their exact link
//     sequence and each distinct route is solved as ONE weighted flow
//     (weight = live flow count). Progressive filling gives identical
//     rates to flows with identical paths, so fanning the per-route rate
//     back out to the member flows reproduces the per-flow allocation
//     exactly — telemetry and the Machine always see de-aggregated
//     per-flow rates.
//
//  2. Bucketed bottleneck search. Instead of scanning every touched link
//     per filling round, links live in a monotone min-queue keyed by the
//     level at which they would saturate (remaining headroom divided by
//     unfrozen crossing weight). A round pops the minimum bucket, freezes
//     the routes crossing the saturated links via per-link incidence
//     lists, and re-keys only the links those routes touch.
//
//  3. Incremental re-solve. Within a phase the route set is fixed; the
//     only mid-phase change is flows completing or failing (weights
//     decrease). Each solve records its freeze trajectory — per filling
//     round the level, the links that saturated, and the routes frozen.
//     When weights drop, every round strictly before the first round in
//     which a changed route's link saturated is provably unaffected
//     (those links were not binding earlier, and shrinking a weight only
//     raises a link's saturation level), so the solver replays that
//     prefix verbatim, re-runs filling only on the suffix routes, and
//     writes and reports only those routes' member flows — the caller's
//     event loop re-keys just the flows whose rate may have moved.
//
// The progressive-filling oracle lives in the test-only orp_oracle
// library: tests/sim_fairshare_diff_test.cpp asserts rate agreement within
// 1e-9 * capacity on randomized instances, and the max-min certificate
// below is checked for both solvers (and asserted after every solve in
// debug builds).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/routing.hpp"

namespace orp {

/// Checks the KKT-style max-min certificate for an allocation produced by
/// either solver: no link carries more than `capacity + tol`, every active
/// flow with a non-empty path crosses at least one saturated link (load >=
/// capacity - tol) on which its rate is maximal among the active crossers
/// (within tol), and every active zero-link flow runs at line rate. On
/// failure returns false and, when `why` is non-null, describes the first
/// violated condition. `tol` is an absolute rate bound (callers typically
/// pass 1e-9 * capacity).
bool max_min_certificate_ok(const PathStore& paths,
                            const std::vector<std::uint8_t>& active,
                            const std::vector<double>& rates, double capacity,
                            double tol, std::string* why = nullptr);

/// The fast fluid solver. Stateful across the solves of one communication
/// phase: set_paths() builds the aggregated route tableau, deactivate()
/// retires one flow (weight decrement), solve() brings the per-flow rates up
/// to date and reports which flows it wrote, warm-starting from the previous
/// trajectory when only deactivations happened in between. Re-pathing flows
/// (fault rebuild) requires a fresh set_paths(). Active flows with empty
/// ranges (a same-switch pair whose host links are both private) are given
/// line rate and excluded from filling.
class FastFairShareSolver {
 public:
  explicit FastFairShareSolver(double link_capacity);

  /// Rebuilds the route tableau for a new phase: flow f crosses
  /// links[ranges[f].begin, ranges[f].end). Aggregates the ranges of every
  /// flow with `active[f]` by identical link sequence, and lists each
  /// route's member flows. O(sum of active range lengths). The ranges may
  /// leave out links that can never bind (the Machine drops host links a
  /// flow holds alone); a flow with an empty range rides at line rate.
  /// Link ids may come from any routing table (the id range grows on
  /// demand). Invalidates any warm-start state.
  void set_paths(std::span<const LinkId> links,
                 std::span<const PathRange> ranges,
                 const std::vector<std::uint8_t>& active);

  /// Flow `f` completed or failed: drop it from its route's weight. O(1).
  void deactivate(std::size_t f);

  /// Brings `rates` up to date with the current active set and returns the
  /// active flows whose rate it wrote (in no particular order). The first
  /// solve after set_paths() is cold: `rates` is reset to one zero per flow
  /// and every active flow is written and listed. Later solves are
  /// incremental and need the vector the previous solve left: flows
  /// deactivated since then are zeroed (not listed), and only the member
  /// flows of the routes whose filling re-ran are written and listed — the
  /// suffix routes of a warm solve, every live route when the change forces
  /// a cold one, none when nothing changed. Every other flow's rate is
  /// provably unchanged. The list stays valid until the next call.
  const std::vector<std::uint32_t>& solve(std::vector<double>& rates);

  /// The allocator's current rate for flow `f` (its route's rate; line rate
  /// for a zero-link flow, 0 once deactivated). Valid after a solve.
  double rate_of(std::size_t f) const {
    const std::uint32_t r = flow_route_[f];
    if (r == kNone) return 0.0;
    return r == kZeroLink ? capacity_ : route_rate_[r];
  }

  /// Validates the internal (aggregated) max-min certificate of the last
  /// solve; used by tests and by the debug assertion hook. Returns true
  /// with no solve yet performed.
  bool self_check(std::string* why = nullptr) const;

  /// Work counters, cumulative over the solver's lifetime.
  struct Stats {
    std::uint64_t solves = 0;       ///< solve() calls
    std::uint64_t warm_solves = 0;  ///< solves that replayed a log prefix
    /// Live suffix routes whose filling a warm solve re-ran.
    std::uint64_t refilled_routes = 0;
  };
  const Stats& stats() const noexcept { return stats_; }

  double capacity() const noexcept { return capacity_; }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  /// flow_route_ sentinel: active flow with an empty path (line rate).
  static constexpr std::uint32_t kZeroLink = 0xfffffffeu;

  void cold_solve();
  bool warm_solve();  ///< false when the change forces a cold solve
  /// Writes route `r`'s rate to its live member flows and lists them.
  void write_route(std::uint32_t r, std::vector<double>& rates);
  void fill(double start_level, std::uint32_t unfrozen);
  void freeze_route(std::uint32_t route, double level);
  void reset_queue(double lo, double hi);
  void push_slot(std::uint32_t slot);
  std::uint32_t bucket_index(double key) const;

  double capacity_;
  // Global link id -> dense slot, valid between set_paths() calls.
  std::vector<std::uint32_t> link_slot_;
  std::vector<LinkId> touched_;  ///< slot -> global link id

  // Route tableau (rebuilt by set_paths).
  std::size_t num_flows_ = 0;
  std::vector<std::uint32_t> flow_route_;   ///< per flow: route / sentinel
  std::vector<std::uint32_t> route_offset_;  ///< CSR into route_slots_
  std::vector<std::uint32_t> route_slots_;
  std::vector<std::uint32_t> route_weight_;  ///< live member-flow count
  std::vector<double> route_rate_;
  // Per-route member flows (CSR). The first route_weight_[r] entries of a
  // route's range are its live members; deactivate() swaps a retiring flow
  // behind them, so a warm solve writes exactly the live flows.
  std::vector<std::uint32_t> route_flow_offset_;
  std::vector<std::uint32_t> route_flows_;
  std::vector<std::uint32_t> flow_pos_;  ///< per flow: index in route_flows_
  std::vector<std::uint32_t> csr_cursor_;  ///< set_paths() scratch
  // Per-slot incidence: which routes cross this link (CSR, static per phase).
  std::vector<std::uint32_t> slot_route_offset_;
  std::vector<std::uint32_t> slot_routes_;
  // Open-addressed route dedup table: (sequence hash, route id).
  std::vector<std::pair<std::uint64_t, std::uint32_t>> dedup_;
  std::uint64_t dedup_mask_ = 0;

  // Filling state (valid for the last solve).
  std::vector<std::uint8_t> frozen_;
  std::vector<std::uint64_t> slot_count_;   ///< unfrozen weight crossing
  std::vector<double> slot_residual_;       ///< headroom at slot_level_
  std::vector<double> slot_level_;          ///< level of last slot update
  std::vector<std::uint32_t> slot_sat_round_;
  // Monotone bucket queue: slots bucketed by the level at which they
  // would saturate (slot_level_ + slot_residual_ / slot_count_). Filling
  // rounds pop the minimum bucket instead of scanning every touched
  // link. An entry goes stale in place when a crossing route freezes
  // (its true key only grows); `count` is the staleness fingerprint —
  // counts change exactly when a slot's key does — and stale entries are
  // rehoused forward lazily when their bucket is scanned.
  struct QueueEntry {
    double key;            ///< saturation level at push time
    std::uint32_t slot;
    std::uint32_t count;   ///< slot_count_ at push time
  };
  static constexpr std::uint32_t kNumBuckets = 1024;
  std::vector<std::vector<QueueEntry>> buckets_;
  std::vector<std::uint64_t> bucket_epoch_;  ///< lazily-cleared buckets
  std::uint64_t queue_epoch_ = 0;
  double bucket_lo_ = 0.0;
  double bucket_winv_ = 0.0;  ///< buckets per key unit (0: single bucket)
  double bucket_width_ = 0.0;
  std::uint32_t cur_bucket_ = 0;

  // Freeze log of the last solve, the warm-start replay source.
  struct FreezeRound {
    double level = 0.0;
    std::uint32_t routes_end = 0;  ///< prefix length of log_routes_
    std::uint32_t slots_end = 0;   ///< prefix length of log_slots_
  };
  std::vector<FreezeRound> log_rounds_;
  std::vector<std::uint32_t> log_routes_;  ///< routes in freeze order
  std::vector<std::uint32_t> log_slots_;   ///< saturated slots in order
  std::vector<std::uint32_t> route_round_;  ///< per route: freeze round

  bool have_solution_ = false;
  std::vector<std::uint32_t> changed_routes_;  ///< since last solve
  std::vector<std::uint8_t> route_changed_;
  std::vector<std::uint32_t> deactivated_;  ///< flows retired since last solve
  std::vector<std::uint32_t> written_;      ///< solve()'s report
  Stats stats_;

  // Scratch for warm_solve.
  std::vector<std::uint32_t> suffix_routes_;
  std::vector<std::uint32_t> suffix_slots_;
  std::vector<std::uint8_t> slot_in_suffix_;
};

}  // namespace orp
