#pragma once
// The end-to-end ORP solver (§5.3, "our proposed topology is generated as
// follows").
//
// Given order n and radix r:
//   1. If all hosts fit on one switch (n <= r), that single switch is the
//      optimum (h-ASPL = 2).
//   2. If a clique host-switch graph fits (n <= m(r-m+1) for some m), the
//      clique construction is provably optimal (Appendix).
//   3. Otherwise predict the optimal switch count m_opt as the minimizer
//      of the continuous Moore bound and run simulated annealing with the
//      2-neighbor swing operation at that m.
//
// `force_switch_count` overrides step 3's m (used by the Fig. 5 sweeps);
// the clique shortcut is skipped whenever m is forced.

#include <cstdint>
#include <optional>

#include "hsg/metrics.hpp"
#include "search/annealer.hpp"

namespace orp {

/// Retired engine selector: anneal() is the only SA engine and `replicas`
/// alone sets the ladder size. solve_orp ignores SolveOptions::backend; the
/// enum stays until the benchmark driver (perfbench/) stops setting it.
enum class SearchBackend { kSerial, kPool };

struct SolveOptions {
  std::uint64_t iterations = 20000;  ///< SA move budget (total across the
                                     ///< ladder's rungs)
  std::uint64_t seed = 1;
  SearchBackend backend = SearchBackend::kSerial;  ///< ignored (see above)
  /// Ladder size K of the one anneal() run (search/annealer.hpp). 1 is the
  /// paper's single chain. The K rungs split the `iterations` budget
  /// (max(1, iterations / K) each), so equal-budget comparisons use the
  /// same --iters. The pool, if any, fans the rungs out when K > 1.
  std::uint32_t replicas = 1;
  std::uint64_t swap_interval = 512;  ///< moves between exchange barriers
  MoveMode mode = MoveMode::kTwoNeighborSwing;
  ThreadPool* pool = nullptr;
  std::optional<std::uint32_t> force_switch_count;
  /// Use the regular initializer (balanced hosts; needed for kSwap mode
  /// which cannot change the host distribution).
  bool regular_start = false;
  /// If nonzero, the SA run records a convergence sample every
  /// `trace_every` iterations, returned in SolveResult::sa_trace.
  std::uint64_t trace_every = 0;
};

struct SolveResult {
  HostSwitchGraph graph;
  HostMetrics metrics;
  std::uint32_t switch_count = 0;       ///< m of the returned graph
  std::uint32_t predicted_m_opt = 0;    ///< continuous-Moore minimizer
  double haspl_lower_bound = 0.0;       ///< Theorem 2
  double continuous_moore_bound = 0.0;  ///< at the returned m
  bool used_clique = false;             ///< solved by construction, no SA
  /// True when SIGINT/SIGTERM cut the search short (every rung wound
  /// down); the returned graph is still the best found before the
  /// interruption.
  bool interrupted = false;
  /// Convergence samples of the winning rung (when trace_every > 0).
  std::vector<AnnealTracePoint> sa_trace;
};

/// Solves ORP(n, r). Throws std::invalid_argument on infeasible inputs
/// (e.g. a forced m with too few total ports).
SolveResult solve_orp(std::uint32_t n, std::uint32_t r,
                      const SolveOptions& options = {});

}  // namespace orp
