#pragma once
// Reference fluid phase: the scan-every-flow loop Machine::phase ran before
// it became an event loop, driving the oracle FairShareSolver.
//
// Every step re-solves the whole active set from scratch, scans every flow
// for the earliest completion, advances every flow's byte progress, and
// ends every flow inside the same batch window as the simulator
// (left <= rate * (dt * 1e-9 + 1e-15) + 1e-9 bytes). Healthy phases only:
// no fault events. Test oracle only (library orp_oracle);
// tests/sim_fairshare_diff_test.cpp pins Machine::phase to it.

#include <cstdint>
#include <vector>

#include "sim/machine.hpp"
#include "sim/params.hpp"
#include "sim/routing.hpp"

namespace orp {

struct ReferencePhase {
  double elapsed = 0.0;     ///< what Machine::phase returns
  std::uint32_t steps = 0;  ///< fluid steps (one solve each)
};

/// Simulates one phase of `messages` on `routes`. `rank_to_host` maps ranks
/// to hosts (a permutation); `phase_index` is the Machine's 1-based count
/// of phase() calls so far including this one, which salts the per-flow
/// ECMP keys exactly as the Machine does. Self-messages are free and
/// zero-byte messages cost latency only.
ReferencePhase reference_phase(const RoutingTable& routes,
                               const SimParams& params,
                               const std::vector<HostId>& rank_to_host,
                               const std::vector<Message>& messages,
                               std::uint64_t phase_index);

}  // namespace orp
