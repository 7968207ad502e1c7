#pragma once
// Degraded-graph construction and resilience reporting.
//
// apply_faults turns (healthy graph, fault set) into the surviving
// subgraph: failed switch-switch edges are removed, dead switches lose all
// their links, and hosts on dead switches are detached (their endpoints
// are gone). evaluate_degraded then runs the connected-pairs metrics over
// the surviving attached hosts via compute_live_host_metrics and packages
// the result — h-ASPL inflation, diameter, reachability breakdown — into a
// ResilienceReport. Reports are deterministic in (graph, fault set); the
// Monte-Carlo runner aggregates them into degradation curves.

#include <cstdint>
#include <vector>

#include "fault/model.hpp"
#include "hsg/host_switch_graph.hpp"
#include "hsg/metrics.hpp"

namespace orp {

/// The surviving subgraph after a fault set lands.
struct DegradedGraph {
  HostSwitchGraph graph;                 ///< survivors; dead hosts detached
  std::vector<std::uint8_t> switch_dead; ///< per switch
  std::uint32_t live_hosts = 0;          ///< hosts still attached
  std::uint32_t dead_hosts = 0;          ///< hosts whose switch died
  std::uint32_t removed_links = 0;       ///< switch-switch edges removed
};

DegradedGraph apply_faults(const HostSwitchGraph& g, const FaultSet& faults);

/// Degradation summary of one fault draw. `h_aspl`/`diameter` follow the
/// HostMetrics connected-pairs contract over the *live* (still-attached)
/// hosts; pairs involving a dead host are counted in `dead_pairs`, live
/// pairs with no surviving route in `unreachable_pairs`.
struct ResilienceReport {
  std::uint32_t live_hosts = 0;
  std::uint32_t dead_hosts = 0;
  std::uint32_t failed_switches = 0;
  std::uint32_t removed_links = 0;       ///< includes links of dead switches
  std::uint64_t connected_pairs = 0;     ///< live pairs with a route
  std::uint64_t unreachable_pairs = 0;   ///< live pairs without a route
  std::uint64_t dead_pairs = 0;          ///< pairs involving a dead host
  double h_aspl = 0.0;                   ///< over connected live pairs
  std::uint32_t diameter = 0;
  /// True when every live host reaches every other live host.
  bool live_hosts_connected = true;
  std::uint64_t fault_fingerprint = 0;   ///< FaultSet::fingerprint()

  /// Fraction of all C(n,2) original host pairs that still communicate.
  double reachable_fraction(std::uint32_t original_hosts) const noexcept {
    const std::uint64_t pairs =
        std::uint64_t{original_hosts} * (original_hosts - 1) / 2;
    return pairs ? static_cast<double>(connected_pairs) /
                       static_cast<double>(pairs)
                 : 1.0;
  }
};

ResilienceReport evaluate_degraded(const HostSwitchGraph& g,
                                   const FaultSet& faults);

}  // namespace orp
