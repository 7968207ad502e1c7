#pragma once
// Fiduccia–Mattheyses bisection refinement.
//
// Classic FM with best-prefix rollback: vertices move one at a time to the
// other side (highest gain first, each vertex at most once per pass); the
// pass keeps the prefix of moves with the lowest cut that satisfies the
// balance constraint, and passes repeat until one fails to improve.
// Zero/negative-gain moves are allowed mid-pass, which lets the refinement
// climb out of shallow local minima.
//
// Gains live in bucket lists indexed by gain (Fiduccia & Mattheyses 1982),
// bounded by the largest weighted degree D: a move updates each unlocked
// neighbor's gain by +-2w in O(1), without rescanning its adjacency. A pass
// also stops after 50 moves in a row that give no new best balanced prefix.
// A graph with D > 2^24 is rejected (std::invalid_argument).

#include <cstdint>
#include <vector>

#include "partition/csr.hpp"

namespace orp {

struct FmOptions {
  int max_passes = 8;
  /// Per-side weight cap: side i must stay <= max_side_weight[i]. A move
  /// into a side above its cap is rejected unless it reduces overload.
  std::uint64_t max_side_weight[2] = {0, 0};
};

/// Refines a 2-way partition in place. `side[v]` in {0,1}. Returns the cut
/// after refinement.
std::uint64_t fm_refine(const CsrGraph& g, std::vector<std::uint8_t>& side,
                        const FmOptions& options);

/// Edge cut of a 2-way partition.
std::uint64_t bisection_cut(const CsrGraph& g, const std::vector<std::uint8_t>& side);

}  // namespace orp
