#pragma once
// Replica-exchange (parallel tempering) primitives of the annealer's
// temperature ladder (search/annealer.hpp).
//
// anneal() walks K replicas on a geometric temperature ladder: ladder
// position 0 runs the calibrated schedule exactly, position k runs it
// scaled by ratio^k. Every `swap_interval` moves the replicas barrier and
// adjacent rungs attempt Metropolis configuration exchanges — hot rungs
// tunnel between basins, cold rungs refine, and exchanges let good basins
// migrate down the ladder. K = 1 is the paper's single chain: one rung at
// scale 1.0 with the seed verbatim, no exchange pairs and no restarts.
//
// Determinism contract: the result is a pure function of (initial graph,
// options) — in particular of (seed, K) — and NEVER of the thread-pool
// size or scheduling:
//   * each replica owns its trajectory end to end (graph copy, edge list,
//     DeltaHasplEvaluator, PRNG sub-stream derived from (seed, rung));
//   * the swap schedule is fixed (alternating even/odd adjacent pairs,
//     attempted in ascending rung order with a dedicated exchange PRNG
//     stream), not completion-order driven;
//   * reductions (global best, stall restarts, the final result) scan
//     rungs in index order at single-threaded barriers.
// tests/search_parallel_test.cpp pins this down across pool sizes and
// barrier chunkings.

#include <cstdint>
#include <utility>
#include <vector>

#include "common/prng.hpp"

namespace orp {

/// Per-rung outcome of an annealing run (index = ladder position, cold to
/// hot).
struct ReplicaStats {
  std::uint64_t moves = 0;            ///< iterations the rung executed
  std::uint64_t accepted = 0;         ///< accepted moves
  std::uint64_t swaps_attempted = 0;  ///< exchange attempts involving this rung
  std::uint64_t swaps_accepted = 0;   ///< exchanges that moved a state
  std::uint64_t restarts = 0;         ///< global-best broadcasts adopted
  double temperature_scale = 1.0;     ///< the rung's ladder multiplier
  double best_haspl = 0.0;            ///< best h-ASPL this rung ever held
};

/// The geometric temperature-scale ladder: K ascending multipliers
/// starting at exactly 1.0 (rung k = ratio^k). `ratio` 0 auto-picks
/// 4^(1/(K-1)) (hottest rung 4x); K = 1 always yields {1.0}.
std::vector<double> temperature_ladder(std::uint32_t replicas, double ratio);

/// The fixed swap schedule of one barrier: adjacent pairs (i, i+1) with
/// i matching the round's parity. Pairs are disjoint (each rung appears
/// in at most one pair per round) and consecutive rounds cover every
/// adjacent pair.
std::vector<std::pair<std::uint32_t, std::uint32_t>> swap_pairs_for_round(
    std::uint64_t round, std::uint32_t replicas);

/// Metropolis replica-exchange exponent for one adjacent pair:
/// (E_cold - E_hot) * (1/T_cold - 1/T_hot). Non-negative means the swap is
/// always accepted — in particular the forced-accept case where the colder
/// rung holds the higher energy; negative is accepted with probability
/// exp(exponent).
double exchange_exponent(double energy_cold, double energy_hot,
                         double temp_cold, double temp_hot) noexcept;

/// Applies the Metropolis exchange test, drawing from `rng` only when the
/// exponent is negative (so forced accepts never consume randomness).
bool accept_exchange(double exponent, Xoshiro256& rng);

/// The PRNG seed of ladder rung `k`: rung 0 keeps `seed` verbatim (so the
/// K = 1 ladder walks the paper's chain on the caller's seed), hotter
/// rungs get splitmix-derived sub-streams.
std::uint64_t replica_seed(std::uint64_t seed, std::uint32_t k) noexcept;

}  // namespace orp
