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

#include <cstdint>
#include <functional>
#include <vector>

#include "common/prng.hpp"
#include "hsg/host_switch_graph.hpp"
#include "hsg/metrics.hpp"

namespace orp {

class ThreadPool;

enum class MoveMode { kSwap, kSwing, kTwoNeighborSwing };

/// What the annealer minimizes.
enum class AnnealObjective {
  kHaspl,              ///< the paper's ORP objective
  kDiameterThenHaspl,  ///< Graph Golf's ranking: diameter first, ASPL tie-break
};

struct AnnealOptions {
  std::uint64_t iterations = 20000;
  AnnealObjective objective = AnnealObjective::kHaspl;
  /// Temperatures are in h-ASPL units. 0 (the default) auto-calibrates:
  /// the annealer samples random moves from the initial solution and sets
  /// T0 to ~2x the mean |delta| (so early moves are mostly accepted) and
  /// T_final to T0/1000. Explicit positive values override.
  double initial_temperature = 0.0;
  double final_temperature = 0.0;
  std::uint64_t seed = 1;
  MoveMode mode = MoveMode::kTwoNeighborSwing;
  /// Parallelizes the from-scratch metric evaluations (the initial one and
  /// the schedule calibration probes); moves use the incremental evaluator.
  ThreadPool* pool = nullptr;
  /// If nonzero, record a convergence sample every `trace_every` iterations.
  std::uint64_t trace_every = 0;
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
  HostSwitchGraph best;
  HostMetrics best_metrics;
  std::uint64_t evaluations = 0;        ///< metric evaluations performed
  std::uint64_t accepted = 0;           ///< accepted moves
  std::vector<AnnealTracePoint> trace;  ///< samples (if trace_every > 0)
  /// True when the run stopped early on shutdown_requested() (SIGINT/
  /// SIGTERM); `best` is still the best solution seen up to that point.
  bool interrupted = false;
};

/// Runs SA from `initial` (which must be fully attached and connected) and
/// returns the best solution seen. Polls shutdown_requested() each
/// iteration and winds down gracefully when set.
AnnealResult anneal(const HostSwitchGraph& initial, const AnnealOptions& options);

}  // namespace orp
