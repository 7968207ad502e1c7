#pragma once
// Reference max-min fair bandwidth allocation (progressive filling).
//
// This is the fluid model at the heart of flow-level network simulators
// (SimGrid's network core solves the same allocation): all flows increase
// their rate together until a link saturates; flows crossing a saturated
// link are frozen at the current rate; repeat until every flow is frozen.
// Only links actually carrying active flows participate, so the cost per
// solve is O(#filling-steps * touched links + flows * path length).
//
// Test oracle only (library orp_oracle): the simulator ships
// FastFairShareSolver (src/sim/fairshare_fast.hpp), and the differential
// battery in tests/sim_fairshare_diff_test.cpp pins it to this solver.

#include <cstdint>
#include <vector>

#include "sim/routing.hpp"

namespace orp {

/// The same paths as one flat PathStore, the form FastFairShareSolver and
/// max_min_certificate_ok() read, so one instance feeds both solvers.
PathStore to_path_store(const std::vector<std::vector<LinkId>>& paths);

/// Solves max-min rates for `flows` (each a list of directed link ids)
/// where every link has identical capacity `link_capacity`. `rates[i]`
/// receives flow i's allocation. Active flows with empty paths
/// (same-switch endpoints) contend with nothing and get line rate.
/// Scratch buffers are reused across calls. Keep semantics frozen: this is
/// the golden oracle for FastFairShareSolver.
class FairShareSolver {
 public:
  explicit FairShareSolver(std::uint32_t num_links, double link_capacity);

  void solve(const std::vector<std::vector<LinkId>>& paths,
             const std::vector<std::uint8_t>& active,
             std::vector<double>& rates);

 private:
  double capacity_;
  std::vector<double> remaining_;       // per touched link
  std::vector<std::uint32_t> count_;    // unfixed flows per touched link
  std::vector<std::uint32_t> link_slot_;  // global link id -> touched slot
  std::vector<LinkId> touched_;
};

}  // namespace orp
