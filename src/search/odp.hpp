#pragma once
// Order/Degree Problem (ODP) solver.
//
// ODP — the Graph Golf problem the paper builds on (§1, §2, [4]): given an
// order N and maximum degree D, find an undirected graph minimizing the
// ASPL. The paper's §5.1 observation makes ODP a special case of ORP: a
// plain N-vertex D-regular graph is exactly a regular host-switch graph
// with one host per switch and radix D+1, and by Eq. (1) with m = n its
// h-ASPL equals ASPL + 2 — so minimizing one minimizes the other. The
// solver therefore reuses the swap-only annealer on that embedding.

#include <cstdint>

#include "hsg/metrics.hpp"
#include "search/annealer.hpp"

namespace orp {

struct OdpOptions {
  std::uint64_t iterations = 20000;
  std::uint64_t seed = 1;
  /// Graph Golf ranks by diameter first, ASPL second; kDiameterThenHaspl
  /// matches that, kHaspl optimizes ASPL alone.
  AnnealObjective objective = AnnealObjective::kDiameterThenHaspl;
};

struct OdpResult {
  /// The solution embedded as a host-switch graph: vertex i is switch i
  /// (with a single pendant host i, which callers ignore).
  HostSwitchGraph graph;
  SwitchMetrics metrics;        ///< ASPL / diameter of the solution graph
  double moore_aspl_bound = 0;  ///< classical ASPL lower bound
  std::uint32_t order = 0;
  std::uint32_t degree = 0;
};

/// Solves ODP(order, degree): a random near-regular graph refined with
/// swap-operation simulated annealing. Requires order >= 2, degree >= 2,
/// and order * degree even enough for near-saturation (odd products leave
/// one free port, as in Graph Golf practice).
OdpResult solve_odp(std::uint32_t order, std::uint32_t degree,
                    const OdpOptions& options = {});

}  // namespace orp
