#pragma once
// Incremental (delta) h-ASPL evaluation for local-search moves.
//
// The §5 annealer evaluates h-ASPL after every proposed swap / swing /
// 2-neighbor-swing, and a from-scratch APSP per move dominates search
// wall-clock (see bench/microbench.cpp, family "search"). This evaluator
// instead mirrors the switch subgraph and maintains the full switch-to-
// switch distance matrix across moves, repairing only the BFS trees that a
// move can actually change.
//
// State per evaluator (all arena-allocated once, no per-move allocation on
// the steady-state path):
//   * D[s][v]      — switch-to-switch distance matrix (uint16, 0xffff = inf)
//   * w[s]         — attached host count k_s (the APSP weights)
//   * S_w[s]       — sum over reachable v of w[v] * D[s][v]
//   * unreach_w[s] — summed weight of targets unreachable from s
//   * M[s]         — max finite D[s][v] over weighted targets v, with the
//                    count of weighted targets that sit at it
// from which h-ASPL, host diameter, and connectivity are assembled in O(m)
// (matching compute_host_metrics bit for bit; asserted by the differential
// test tests/hsg_delta_metrics_test.cpp).
//
// A move is described as a GraphDelta (edge additions/removals plus host
// moves) and replayed one primitive change at a time, each with an exact
// single-change repair. Host moves come first, so every later entry write
// already sees the final weights; then the additions, then the removals:
//   * host move: distances are untouched; the weighted aggregates are
//     updated from one row of D in O(m).
//   * edge addition {u,v}: source s is dirty iff |D[s][u] - D[s][v]| >= 2
//    (the standard feasible-potential argument); repaired by a pruned BFS
//    cascade from the farther endpoint that touches only improved vertices.
//   * edge removal {u,v}: adjacent endpoints differ by at most one level,
//    so s is dirty iff the endpoints' levels differ AND the deeper endpoint
//    has no surviving predecessor on an adjacent BFS level (surviving-
//    predecessor masks built by vectorizable row-vs-row sweeps, one per
//    endpoint neighbor); repaired Ramalingam–Reps style (level-ordered
//    affected-set discovery, then a direct min for a single affected
//    vertex or a bucketed re-relaxation of the affected region only).
//    The endpoint rows u and v are repaired last, each as one saturating
//    uint16 min over its surviving neighbors' rows, which by then are all
//    final (D is symmetric, and u and v are no longer neighbors).
// Each entry write updates its row's weighted sum, unreachable weight and
// max count in place; only a row whose count of targets at the max drops to
// zero is queued for a single deferred rescan at the end of apply(), and is
// rescanned only if no later write brought the count back up.
//
// Every entry change and every touched row's pre-apply aggregates are
// recorded in an undo frame, so rejecting a move costs one revert_last()
// that replays the log backwards — no inverse repair, no graph copy.
// Frames stack (the 2-neighbor-swing move nests two applies), popping in
// LIFO order. Applying the inverse delta also works and is exercised by
// the differential tests; revert_last() is just much cheaper.
//
// apply_or_reject() lets the caller reject a move before its repair is
// done. Removals only raise distances, so a lower bound on the candidate's
// total_length, kept by the entry writes, rises towards its final value as
// the dirty sources are repaired; after the additions and after each
// repaired removal source the caller's RejectTest sees it, and may stop the
// apply. The bound counts a pair's change twice when the first of its two
// rows is repaired, which makes it exact once every dirty source is. The
// test is only consulted once the move is shown to keep every host pair
// connected (docs/search.md, "Early rejection").
//
// Every dirty source is repaired on its own, however many a change dirties.
// Only the constructor and rebuild() compute the whole state, with the
// shared bit-parallel distance kernel (hsg/distance.hpp).

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "hsg/distance.hpp"
#include "hsg/host_switch_graph.hpp"
#include "hsg/metrics.hpp"

namespace orp {

/// A batch of primitive mutations describing one local-search move.
/// Capacities cover the §5 move set (swap: 2+2 edges, swing: 1+1 edges and
/// one host move); composite operations apply one delta per primitive move.
struct GraphDelta {
  struct HostMove {
    SwitchId from, to;
  };

  std::pair<SwitchId, SwitchId> added[2];
  std::pair<SwitchId, SwitchId> removed[2];
  HostMove host_moves[1];
  std::uint8_t num_added = 0;
  std::uint8_t num_removed = 0;
  std::uint8_t num_host_moves = 0;

  GraphDelta& add_edge(SwitchId a, SwitchId b) {
    ORP_ASSERT(num_added < 2);
    added[num_added++] = {a, b};
    return *this;
  }
  GraphDelta& remove_edge(SwitchId a, SwitchId b) {
    ORP_ASSERT(num_removed < 2);
    removed[num_removed++] = {a, b};
    return *this;
  }
  GraphDelta& move_host(SwitchId from, SwitchId to) {
    ORP_ASSERT(num_host_moves < 1);
    host_moves[num_host_moves++] = {from, to};
    return *this;
  }

  /// The delta that undoes this one.
  GraphDelta inverse() const {
    GraphDelta inv;
    for (std::uint8_t i = 0; i < num_removed; ++i)
      inv.add_edge(removed[i].first, removed[i].second);
    for (std::uint8_t i = 0; i < num_added; ++i)
      inv.remove_edge(added[i].first, added[i].second);
    for (std::uint8_t i = 0; i < num_host_moves; ++i)
      inv.move_host(host_moves[i].to, host_moves[i].from);
    return inv;
  }
};

class DeltaHasplEvaluator {
 public:
  /// Snapshots `g` (which must be fully attached) and computes the full
  /// distance matrix. The evaluator keeps its own copy of the switch
  /// adjacency; `g` is not referenced after construction.
  explicit DeltaHasplEvaluator(const HostSwitchGraph& g);

  /// Re-synchronizes with `g` and recomputes everything from scratch.
  /// Drops any pending undo frames.
  void rebuild(const HostSwitchGraph& g);

  /// Mirrors one move that the caller has (already) applied to its graph
  /// and returns the metrics of the new state. To reject the move, either
  /// call revert_last() (cheap: replays the undo log) or apply
  /// `delta.inverse()` (a full inverse repair).
  HostMetrics apply(const GraphDelta& delta);

  /// A caller's rejection rule, consulted while apply_or_reject() repairs.
  class RejectTest {
   public:
    /// `total_length_bound` is a lower bound on the candidate's
    /// HostMetrics::total_length; it never falls from one call to the next
    /// within an apply, and the candidate is certain to stay connected.
    /// Returning true stops the apply.
    virtual bool rejects(std::uint64_t total_length_bound) = 0;

   protected:
    ~RejectTest() = default;
  };

  /// apply(), but `test` may reject the move before its repair is done:
  /// it is called after the additions and after each repaired removal
  /// source, provided no host pair was unreachable before the move and
  /// every removed edge's endpoints are shown to stay within three hops of
  /// each other (so the candidate stays connected). Returns
  /// nullopt when the test rejected; the stopped apply has mirrored the
  /// whole delta's adjacency and left a frame that revert_last() undoes
  /// like any other. Otherwise behaves exactly like apply().
  std::optional<HostMetrics> apply_or_reject(const GraphDelta& delta, RejectTest& test);

  /// Exactly undoes the most recent un-reverted apply(). Applies nest:
  /// after apply(a); apply(b); two revert_last() calls undo b then a. The
  /// undo stack keeps the 4 most recent frames (accepted moves leave theirs
  /// behind; older ones are forgotten). Replays the frame's undo log, so
  /// it reads nothing of the caller's graph.
  void revert_last();

  /// Metrics of the currently mirrored state, assembled in O(m).
  HostMetrics metrics() const;

  /// Switch-to-switch distance in the mirrored state (kUnreachable when
  /// disconnected). Exposed for tests.
  std::uint32_t distance(SwitchId a, SwitchId b) const;

  std::uint32_t num_switches() const noexcept { return m_; }

  /// Cumulative behaviour counters (several also exported via obs as
  /// delta_eval.*). Every dirty source an apply repairs is counted in
  /// dirty_sources; each removal repair takes exactly one of the
  /// single_affected / two_phase_repairs / endpoint_rows branches.
  struct Stats {
    std::uint64_t applies = 0;
    std::uint64_t reverts = 0;           ///< revert_last() calls
    std::uint64_t edge_changes = 0;
    std::uint64_t dirty_sources = 0;     ///< sources the filters flagged
    std::uint64_t single_affected = 0;   ///< removals fixed by a direct min
    std::uint64_t two_phase_repairs = 0; ///< removals re-relaxed by buckets
    std::uint64_t endpoint_rows = 0;     ///< removed edges' endpoint rows
    std::uint64_t row_rescans = 0;       ///< rows whose max count reached 0
    std::uint64_t early_rejects = 0;     ///< applies a RejectTest stopped
    std::uint64_t sources_skipped = 0;   ///< dirty sources they left unrepaired
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  // A row's max finite distance to a weighted target, and how many weighted
  // targets sit at it. While `count` is 0 `value` is only an upper bound
  // (the row awaits a rescan); m < kNoDistance keeps the count in range.
  struct RowMax {
    std::uint16_t value;
    std::uint16_t count;
  };

  std::uint16_t* row(std::uint32_t s) noexcept { return dist_.data() + std::size_t{s} * m_; }
  const std::uint16_t* row(std::uint32_t s) const noexcept {
    return dist_.data() + std::size_t{s} * m_;
  }

  void adj_add(SwitchId a, SwitchId b);
  void adj_remove(SwitchId a, SwitchId b);
  // Re-copies adjacency, degrees, and host weights from `g` (same m).
  void sync_graph(const HostSwitchGraph& g);

  // Writes one distance-matrix entry, recording the old value (and, on the
  // row's first change this apply, its pre-apply aggregates) in the undo
  // frame. S_w / unreach_w / row-max (and the early-rejection bound) are
  // updated in place; a write that leaves no weighted target at the row max
  // queues the row on rescan_rows_ (drained at the end of a complete apply).
  void write_entry(std::uint32_t s, std::uint32_t v, std::uint16_t next);
  // One flat pass refreshing S_w / unreach_w / row-max of row s.
  void recompute_row_aggregates(std::uint32_t s);
  // Rescans row s for its max finite weighted distance and its count.
  void rescan_row_max(std::uint32_t s);
  // Max bookkeeping for one weighted target at finite distance d in row s:
  // max_add raises or joins the max; max_drop leaves it and returns true
  // when no target is left at the max (the caller then rescans the row).
  void max_add(std::uint32_t s, std::uint16_t d) noexcept;
  bool max_drop(std::uint32_t s, std::uint16_t d) noexcept;

  // Mirrors `delta` and repairs; returns false when `test` (null for a
  // complete apply) stopped it.
  bool apply_frame(const GraphDelta& delta, RejectTest* test);
  void apply_edge_addition(SwitchId u, SwitchId v);
  // Returns false when `test` (non-null only while the bound is on)
  // stopped the repair.
  bool apply_edge_removal(SwitchId u, SwitchId v, RejectTest* test);
  void apply_host_move(SwitchId from, SwitchId to);

  // Σ_s w_s·S_w[s] (twice the summed switch distance over host pairs), or
  // kUnconnected when some host pair is unreachable.
  static constexpr std::uint64_t kUnconnected = ~std::uint64_t{0};
  std::uint64_t ordered_length() const;
  // True when each removed edge's endpoints stay joined by a path of at
  // most three hops that avoids every removed edge (read on the adjacency
  // after the additions, before the removals are mirrored).
  bool removals_bypassed(const GraphDelta& delta);
  // total_length of a connected state whose ordered length is `ordered`.
  std::uint64_t total_length_of(std::uint64_t ordered) const noexcept {
    return ordered / 2 + std::uint64_t{n_} * (n_ - 1);
  }

  // Pruned improvement cascade for row s after adding edge (near, far).
  void repair_addition(std::uint32_t s, SwitchId near, SwitchId far);
  // Ramalingam–Reps repair for row s after removing an edge whose deeper
  // endpoint `far` lost its last surviving predecessor.
  void repair_removal(std::uint32_t s, SwitchId far);
  // Row s of a removed edge's endpoint, from its surviving neighbors' rows;
  // called once every other dirty row of the removal is repaired.
  void repair_endpoint_row(std::uint32_t s);
  // From-scratch distance matrix (the shared kernel, hsg/distance.hpp) and
  // aggregates (constructor / rebuild()).
  void rebuild_all_rows();
  void rebuild_aggregates();

  std::uint32_t n_ = 0;
  std::uint32_t m_ = 0;

  // Mirrored switch subgraph: flat adjacency (stride adj_stride_), degrees,
  // and per-switch host counts.
  std::uint32_t adj_stride_ = 0;
  std::vector<SwitchId> adj_;
  std::vector<std::uint32_t> degree_;
  std::vector<std::uint32_t> weight_;
  std::uint32_t weighted_switches_ = 0;

  // Distance matrix and per-row aggregates.
  std::vector<std::uint16_t> dist_;
  std::vector<std::uint64_t> sum_w_;
  std::vector<std::uint64_t> unreach_w_;
  std::vector<RowMax> row_max_;

  // Repair arenas (reused across applies; no steady-state allocation).
  std::vector<std::uint32_t> dirty_sources_;
  std::vector<std::uint32_t> queue_;
  std::vector<std::uint32_t> affected_;
  std::vector<std::uint32_t> level_cur_, level_next_;
  std::vector<std::uint16_t> tentative_;
  std::vector<std::uint32_t> visit_epoch_;
  std::uint32_t epoch_ = 0;
  std::vector<std::vector<std::uint32_t>> buckets_;

  // Frontier words of the shared distance kernel (rebuild_all_rows).
  DistanceScratch distance_scratch_;

  // Removal-filter surviving-predecessor masks (one uint16 lane per source)
  // and the rows left with no target at their max during the current apply.
  std::vector<std::uint16_t> alt_u_, alt_v_;
  std::vector<std::uint32_t> rescan_rows_;
  std::vector<std::uint32_t> rescan_epoch_;

  // Undo machinery. Entries pack (s << 32 | v << 16 | old_distance); row
  // snapshots hold a touched row's pre-apply aggregates. Frames delimit
  // segments of both logs and stack in apply order.
  struct RowSnapshot {
    std::uint32_t row;
    std::uint64_t sum_w;
    std::uint64_t unreach_w;
    RowMax row_max;
  };
  struct UndoFrame {
    std::size_t entries_begin = 0;
    std::size_t rows_begin = 0;
    GraphDelta delta;
    // Full row-max snapshot (values and counts), taken only when a host
    // move crosses zero hosts on a switch (the one case where reverting a
    // row max is not arithmetic).
    bool row_max_snapshot_valid = false;
    std::vector<RowMax> row_max_snapshot;
  };
  std::vector<std::uint64_t> undo_entries_;
  std::vector<RowSnapshot> undo_rows_;
  std::vector<UndoFrame> frames_;
  std::vector<std::uint32_t> row_epoch_;  // == apply_epoch_: touched this apply
  std::uint32_t apply_epoch_ = 0;

  // Early-rejection bound: while bound_on_, bound_ is a lower bound on the
  // final ordered length that every entry write raises or lowers. Addition
  // writes count once; a removal write counts its pair twice unless the
  // mirror row was already repaired in this removal (repaired_epoch_ ==
  // removal_epoch_), and then not at all.
  bool bound_on_ = false;
  bool removing_ = false;
  std::uint64_t bound_ = 0;
  std::vector<std::uint32_t> repaired_epoch_;
  std::uint32_t removal_epoch_ = 0;

  Stats stats_;
};

}  // namespace orp
