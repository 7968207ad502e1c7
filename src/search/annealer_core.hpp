#pragma once
// Step-able simulated-annealing chain — the §5 hot loop, one rung of
// anneal()'s temperature ladder.
//
// anneal() drives K SaChains in swap_interval-sized chunks, exchanging
// configurations at deterministic barriers (search/parallel.hpp); with the
// default K = 1 it drives one chain, the paper's search. The chain owns
// everything one walk needs — graph copy, edge list, PRNG stream,
// DeltaHasplEvaluator, cooling state, best-so-far — and exposes exactly
// the hooks the exchange protocol requires: run a bounded number of
// iterations, read the current energy/temperature, swap configurations
// with another chain, or adopt a broadcast restart candidate.
//
// Determinism contract: a chain's trajectory is a pure function of
// (initial graph, options, schedule, temperature_scale). run(count) in any
// chunking produces the same walk as one run(total) — the iteration
// counter, cooling and the windowed telemetry all key off the chain-global
// iteration index, never off wall clock or chunk boundaries.

#include <cstdint>
#include <optional>
#include <vector>

#include "common/prng.hpp"
#include "hsg/delta_metrics.hpp"
#include "hsg/host_switch_graph.hpp"
#include "hsg/metrics.hpp"
#include "search/annealer.hpp"

namespace orp {

/// Geometric cooling schedule in h-ASPL units: temperature starts at
/// t_initial and is multiplied by `cooling` after every iteration.
struct TemperatureSchedule {
  double t_initial = 0.0;
  double t_final = 0.0;
  double cooling = 1.0;
};

/// Resolves the options' temperatures into a concrete schedule. Explicit
/// positive temperatures pass through; zeros auto-calibrate by probing
/// random moves of the options' own move type from `initial` (probe PRNG
/// seeded options.seed ^ 0xa5a5a5a5, full metric evaluation), setting T0
/// to ~2x the mean |delta| and T_final to T0/1000. anneal() calibrates
/// once and shares the schedule with all K rungs.
TemperatureSchedule calibrate_schedule(const HostSwitchGraph& initial,
                                       const HostMetrics& initial_metrics,
                                       const AnnealOptions& options);

class SaChain {
 public:
  struct Config {
    TemperatureSchedule schedule;
    /// Metropolis temperature multiplier — the chain's rung on a
    /// replica-exchange ladder. Rung 0 (the paper's chain) runs at 1.0.
    double temperature_scale = 1.0;
    /// Emit the windowed annealer.* tracer series. Exactly one chain per
    /// search should own them (ladder position 0).
    bool emit_obs_window = true;
  };

  /// Snapshots `initial` (fully attached, connected; `initial_metrics`
  /// must be its metrics) and prepares the walk: collects the edge list,
  /// seeds the PRNG from options.seed, and builds the incremental
  /// evaluator. Counts the initial evaluation, matching anneal()'s
  /// result.evaluations accounting.
  SaChain(const HostSwitchGraph& initial, const HostMetrics& initial_metrics,
          const AnnealOptions& options, const Config& config);

  /// Runs up to `count` iterations, stopping at options.iterations or on
  /// shutdown_requested(). Returns the number of iterations executed.
  std::uint64_t run(std::uint64_t count);

  bool finished() const noexcept {
    return interrupted_ || iteration_ >= options_.iterations;
  }
  bool interrupted() const noexcept { return interrupted_; }
  std::uint64_t iteration() const noexcept { return iteration_; }
  std::uint64_t evaluations() const noexcept { return evaluations_; }
  std::uint64_t accepted() const noexcept { return accepted_; }
  /// The chain's PRNG stream, read-only: a copy shows how many draws a
  /// step consumed.
  const Xoshiro256& rng() const noexcept { return rng_; }

  const HostSwitchGraph& current() const noexcept { return current_; }
  const HostMetrics& current_metrics() const noexcept { return current_metrics_; }
  const HostSwitchGraph& best() const noexcept { return best_; }
  const HostMetrics& best_metrics() const noexcept { return best_metrics_; }

  /// Objective keys (total pair length, or diameter-weighted for the Graph
  /// Golf ranking) — the integers the Metropolis test compares.
  std::uint64_t current_key() const noexcept { return key_of(current_metrics_); }
  std::uint64_t best_key() const noexcept { return key_of(best_metrics_); }

  /// Current energy in h-ASPL units (key / host pairs) — the scalar the
  /// replica-exchange rule weighs.
  double energy() const noexcept {
    return static_cast<double>(current_key()) / static_cast<double>(pairs_);
  }
  /// Instantaneous Metropolis temperature (schedule x ladder scale).
  double temperature() const noexcept {
    return temperature_ * config_.temperature_scale;
  }
  double temperature_scale() const noexcept { return config_.temperature_scale; }

  /// Replica exchange: swaps the *configurations* (graph, edge list,
  /// metrics, evaluator) of two chains. PRNG streams, cooling state, and
  /// best-so-far bookkeeping stay with their ladder slots, so each slot's
  /// best still covers every state it ever held.
  static void swap_configuration(SaChain& a, SaChain& b) noexcept;

  /// Broadcast restart: replaces the current configuration with `g`
  /// (typically the global best). The evaluator rebuilds from scratch;
  /// best-so-far and the PRNG stream are untouched.
  void adopt(const HostSwitchGraph& g, const HostMetrics& metrics);

  /// Flushes the final telemetry window (call once, when the run ends).
  void finish_telemetry();

  /// Moves the walk's outcome into an AnnealResult.
  AnnealResult take_result();

 private:
  using EdgeList = std::vector<std::pair<SwitchId, SwitchId>>;

  // The evaluator's RejectTest: the Metropolis test on a lower bound of
  // the candidate's key.
  class EarlyReject;

  std::uint64_t key_of(const HostMetrics& metrics) const noexcept;
  bool accepts(const HostMetrics& cand);
  // The uniform draw of the Metropolis test of the move under evaluation,
  // taken on first use (mid-apply or in accepts()); one per evaluation.
  double metropolis_draw();
  void commit(const HostMetrics& cand);
  // Applies `delta` to the evaluator and counts the evaluation. With
  // `may_stop_early` the evaluator may stop once the move is certain to be
  // rejected, and nullopt is returned.
  std::optional<HostMetrics> evaluate_move(const GraphDelta& delta, bool may_stop_early);
  // Throws if the evaluator's metrics differ from a serial from-scratch
  // compute_host_metrics of current_.
  void audit_evaluator() const;
  void revert_move();
  void emit_window(std::uint64_t at_iter);
  void run_one_iteration();

  AnnealOptions options_;
  Config config_;

  HostSwitchGraph current_;
  EdgeList edges_;
  HostMetrics current_metrics_;
  DeltaHasplEvaluator delta_eval_;
  Xoshiro256 rng_;

  HostSwitchGraph best_;
  HostMetrics best_metrics_;

  std::uint64_t pairs_ = 0;
  std::uint64_t diameter_weight_ = 0;

  std::uint64_t iteration_ = 0;
  double temperature_ = 0.0;
  bool interrupted_ = false;

  std::uint64_t evaluations_ = 0;
  std::uint64_t accepted_ = 0;
  bool drawn_ = false;
  double draw_ = 0.0;
  // An audit whose evaluation stopped early waits for the next complete one.
  bool audit_due_ = false;

  std::uint64_t window_ = 1;
  std::uint64_t window_moves_ = 0;
  std::uint64_t window_accepted_ = 0;
};

}  // namespace orp
