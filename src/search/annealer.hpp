#pragma once
// Simulated annealing over host-switch graphs (§5.1–§5.2).
//
// Objective: minimize h-ASPL; disconnected candidates are rejected
// outright (their h-ASPL is infinite). Three neighborhood modes:
//   kSwap           — swap operation only (regular graphs, §5.1)
//   kSwing          — single swing per step (§5.2, Fig. 3)
//   kTwoNeighborSwing — the paper's combined operation (Fig. 4): propose a
//     swing; if rejected, propose the completing swing (net effect: swap);
//     if that is also rejected, restore the original solution.
//
// Acceptance is Metropolis on the h-ASPL delta with geometric cooling.
//
// anneal() is the one SA engine. It walks a temperature ladder of
// `replicas` SaChains (search/annealer_core.hpp) in `swap_interval`-sized
// chunks and exchanges configurations between adjacent rungs at the
// barriers (search/parallel.hpp). The default K = 1 is the paper's serial
// chain (§5.3): one rung, no exchanges.

#include <cstdint>
#include <functional>
#include <vector>

#include "common/prng.hpp"
#include "hsg/host_switch_graph.hpp"
#include "hsg/metrics.hpp"
#include "search/parallel.hpp"

namespace orp {

class ThreadPool;

enum class MoveMode { kSwap, kSwing, kTwoNeighborSwing };

/// What the annealer minimizes.
enum class AnnealObjective {
  kHaspl,              ///< the paper's ORP objective
  kDiameterThenHaspl,  ///< Graph Golf's ranking: diameter first, ASPL tie-break
};

struct AnnealOptions {
  /// Move budget of EACH ladder rung (total work = replicas x iterations).
  std::uint64_t iterations = 20000;
  AnnealObjective objective = AnnealObjective::kHaspl;
  /// Temperatures are in h-ASPL units. 0 (the default) auto-calibrates:
  /// the annealer samples random moves from the initial solution and sets
  /// T0 to ~2x the mean |delta| (so early moves are mostly accepted) and
  /// T_final to T0/1000. Explicit positive values override.
  double initial_temperature = 0.0;
  double final_temperature = 0.0;
  /// Seeds rung 0 verbatim; hotter rungs and the exchange stream derive
  /// their own sub-streams from it.
  std::uint64_t seed = 1;
  MoveMode mode = MoveMode::kTwoNeighborSwing;
  /// With K > 1, fans the rungs out between exchange barriers. Everything
  /// else runs on the calling thread, so the result never depends on the
  /// pool (a null pool runs the rungs one after another).
  ThreadPool* pool = nullptr;
  /// If nonzero, record a convergence sample every `trace_every` iterations.
  std::uint64_t trace_every = 0;
  /// Ladder size K. 1 is the paper's single chain.
  std::uint32_t replicas = 1;
  /// Moves each rung runs between exchange barriers. The barriers do not
  /// change a rung's own walk, so with K = 1 any interval gives the same
  /// result.
  std::uint64_t swap_interval = 512;
  /// Adjacent-rung temperature ratio of the geometric ladder (> 1 spreads
  /// the rungs). 0 auto-picks so the hottest rung runs at 4x the base
  /// temperature regardless of K.
  double ladder_ratio = 0.0;
  /// Barriers without improvement of a rung's own best after which a rung
  /// that does not own the global best, and whose current state trails
  /// it, restarts from the global best. 0 disables broadcasting.
  std::uint32_t stall_rounds = 3;
};

/// One convergence sample (recorded every `trace_every` iterations), enough
/// to re-plot an SA run: where the walk is, the best seen so far, and the
/// temperature that produced the acceptance behaviour.
struct AnnealTracePoint {
  std::uint64_t iteration = 0;
  double current_haspl = 0.0;
  double best_haspl = 0.0;
  double temperature = 0.0;
};

struct AnnealResult {
  HostSwitchGraph best;                 ///< global best over every rung
  HostMetrics best_metrics;
  std::uint64_t evaluations = 0;        ///< metric evaluations, all rungs
  std::uint64_t accepted = 0;           ///< accepted moves, all rungs
  std::vector<AnnealTracePoint> trace;  ///< the winning rung's samples
  /// True when the run stopped early on shutdown_requested() (SIGINT/
  /// SIGTERM); `best` is still the best solution seen up to that point.
  bool interrupted = false;
  std::vector<ReplicaStats> replicas;  ///< per rung, cold to hot
  /// Global best h-ASPL after each exchange barrier — monotonically
  /// non-increasing (asserted by the property tests).
  std::vector<double> round_best_haspl;
  /// Ladder position that produced the global best.
  std::uint32_t best_replica = 0;
};

/// Runs SA from `initial` (which must be fully attached and connected) and
/// returns the best solution seen on any rung. Polls shutdown_requested()
/// each iteration and winds every rung down gracefully when set.
AnnealResult anneal(const HostSwitchGraph& initial, const AnnealOptions& options);

}  // namespace orp
