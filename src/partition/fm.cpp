#include "partition/fm.hpp"

#include <algorithm>
#include <numeric>

#include "common/require.hpp"

namespace orp {

std::uint64_t bisection_cut(const CsrGraph& g, const std::vector<std::uint8_t>& side) {
  std::uint64_t cut = 0;
  for (std::uint32_t v = 0; v < g.num_vertices(); ++v) {
    const auto neighbors = g.neighbors(v);
    const auto weights = g.edge_weights(v);
    for (std::size_t e = 0; e < neighbors.size(); ++e) {
      if (side[v] != side[neighbors[e]]) cut += weights[e];
    }
  }
  return cut / 2;
}

namespace {

// Refinement stops after this many passes even while passes still improve.
constexpr int kMaxPasses = 8;
// A pass stops after this many moves in a row that give no new best
// balanced prefix (counted once the pass has a balanced prefix at all).
constexpr std::uint32_t kMaxFruitlessMoves = 50;
// Gains lie in [-D, D] for the largest weighted degree D, one bucket per
// gain. D is at most the total edge weight, which coarsening preserves, so
// unit-weight graphs stay far below this; a larger D is rejected rather
// than given a bucket array of gigabytes.
constexpr std::int64_t kMaxWeightedDegree = std::int64_t{1} << 24;

constexpr std::uint32_t kNil = 0xffffffffu;

// Fiduccia–Mattheyses gain buckets: a doubly-linked list of vertices per
// gain, newest first. Buckets at or above `top_` are empty: an insertion
// raises it, and the search for the best vertex lowers it.
class GainBuckets {
 public:
  GainBuckets(std::uint32_t nv, std::int64_t max_gain)
      : offset_(max_gain), head_(bucket(max_gain) + 1, kNil), next_(nv), prev_(nv) {}

  void insert(std::uint32_t v, std::int64_t gain) {
    const std::size_t b = bucket(gain);
    next_[v] = head_[b];
    prev_[v] = kNil;
    if (head_[b] != kNil) prev_[head_[b]] = v;
    head_[b] = v;
    top_ = std::max(top_, b + 1);
  }

  void remove(std::uint32_t v, std::int64_t gain) {
    if (prev_[v] != kNil) {
      next_[prev_[v]] = next_[v];
    } else {
      head_[bucket(gain)] = next_[v];
    }
    if (next_[v] != kNil) prev_[next_[v]] = prev_[v];
  }

  /// A vertex of the highest gain, or kNil when every bucket is empty.
  std::uint32_t best() {
    while (top_ > 0 && head_[top_ - 1] == kNil) --top_;
    return top_ == 0 ? kNil : head_[top_ - 1];
  }

 private:
  std::size_t bucket(std::int64_t gain) const {
    return static_cast<std::size_t>(gain + offset_);
  }

  std::int64_t offset_;
  std::size_t top_ = 0;
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> next_, prev_;
};

}  // namespace

std::uint64_t fm_refine(const CsrGraph& g, std::vector<std::uint8_t>& side,
                        const FmOptions& options) {
  const std::uint32_t nv = g.num_vertices();
  ORP_REQUIRE(side.size() == nv, "side assignment size mismatch");

  std::int64_t max_degree = 0;
  for (std::uint32_t v = 0; v < nv; ++v) {
    const auto weights = g.edge_weights(v);
    max_degree = std::max(
        max_degree, std::accumulate(weights.begin(), weights.end(), std::int64_t{0}));
  }
  ORP_REQUIRE(max_degree <= kMaxWeightedDegree,
              "largest weighted degree must be <= 2^24 (one gain bucket per gain)");

  std::uint64_t side_weight[2] = {0, 0};
  for (std::uint32_t v = 0; v < nv; ++v) side_weight[side[v]] += g.vwgt[v];

  GainBuckets buckets(nv, max_degree);
  std::vector<std::int64_t> gain(nv);
  std::vector<std::uint8_t> locked(nv);
  std::uint64_t cut = bisection_cut(g, side);

  for (int pass = 0; pass < kMaxPasses; ++pass) {
    std::fill(locked.begin(), locked.end(), 0);
    for (std::uint32_t v = 0; v < nv; ++v) {
      std::int64_t external = 0, internal = 0;
      const auto neighbors = g.neighbors(v);
      const auto weights = g.edge_weights(v);
      for (std::size_t e = 0; e < neighbors.size(); ++e) {
        (side[v] != side[neighbors[e]] ? external : internal) += weights[e];
      }
      gain[v] = external - internal;
      buckets.insert(v, gain[v]);
    }

    // Trial move sequence with rollback to the best prefix.
    std::vector<std::uint32_t> moves;
    moves.reserve(nv);
    std::uint64_t trial_cut = cut;
    std::uint64_t best_cut = cut;
    std::size_t best_prefix = 0;
    std::uint32_t fruitless = 0;
    // If the incoming partition violates balance, the first prefix that
    // restores it is recorded even when its cut is worse.
    bool best_balanced = side_weight[0] <= options.max_side_weight[0] &&
                         side_weight[1] <= options.max_side_weight[1];

    for (std::uint32_t v; (v = buckets.best()) != kNil;) {
      // A popped vertex leaves the pass, moved or not.
      buckets.remove(v, gain[v]);
      locked[v] = 1;
      const std::uint8_t from = side[v];
      const std::uint8_t to = from ^ 1;
      // Balance: allow the move if the destination stays under its cap, or
      // if the source side is the (more) overloaded one.
      const bool dest_ok = side_weight[to] + g.vwgt[v] <= options.max_side_weight[to];
      const bool source_overloaded = side_weight[from] > options.max_side_weight[from];
      if (!dest_ok && !source_overloaded) continue;

      side[v] = to;
      side_weight[from] -= g.vwgt[v];
      side_weight[to] += g.vwgt[v];
      trial_cut = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(trial_cut) - gain[v]);
      moves.push_back(v);
      const bool balanced = side_weight[0] <= options.max_side_weight[0] &&
                            side_weight[1] <= options.max_side_weight[1];
      if (balanced && (!best_balanced || trial_cut < best_cut)) {
        best_cut = trial_cut;
        best_prefix = moves.size();
        best_balanced = true;
        fruitless = 0;
      } else if (best_balanced && ++fruitless >= kMaxFruitlessMoves) {
        break;
      }
      // The edge (u, v) flips between cut and uncut for every neighbor u:
      // its gain changes by 2w, down if u now shares v's side.
      const auto neighbors = g.neighbors(v);
      const auto weights = g.edge_weights(v);
      for (std::size_t e = 0; e < neighbors.size(); ++e) {
        const std::uint32_t u = neighbors[e];
        if (locked[u]) continue;
        buckets.remove(u, gain[u]);
        const std::int64_t delta = 2 * static_cast<std::int64_t>(weights[e]);
        gain[u] += side[u] == to ? -delta : delta;
        buckets.insert(u, gain[u]);
      }
    }
    for (std::uint32_t v = 0; v < nv; ++v) {
      if (!locked[v]) buckets.remove(v, gain[v]);
    }

    // Roll back everything after the best prefix.
    for (std::size_t i = moves.size(); i > best_prefix; --i) {
      const std::uint32_t v = moves[i - 1];
      const std::uint8_t from = side[v];
      side[v] = from ^ 1;
      side_weight[from] -= g.vwgt[v];
      side_weight[from ^ 1] += g.vwgt[v];
    }
    // Stop when the pass neither improved the cut nor repaired balance
    // (a balance-repair pass may raise the cut and still deserves another
    // refinement round).
    const bool repaired_balance = best_balanced && best_prefix > 0 && best_cut >= cut;
    if (best_cut >= cut && !repaired_balance) break;
    cut = best_cut;
  }
  return cut;
}

}  // namespace orp
