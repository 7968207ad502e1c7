#pragma once
// Structural analysis of host-switch graphs.
//
// The paper's model (§3.1) assumes graphs are connected and have "no
// redundant switches" — every switch lies on at least one host-to-host
// shortest path. These helpers detect violations of that assumption and
// report path-diversity statistics used by the routing/bandwidth
// discussions.

#include <cstdint>
#include <vector>

#include "hsg/host_switch_graph.hpp"

namespace orp {

/// Switches with no attached hosts (the paper's Fig. 8 "otiose" switches
/// carry no hosts but may still forward traffic).
std::vector<SwitchId> unused_switches(const HostSwitchGraph& g);

/// Switches that lie on NO shortest path between any pair of hosts —
/// redundant in the §3.1 sense. A switch s is on some shortest host path
/// iff there exist host-bearing switches a, b with
/// d(a,s) + d(s,b) == d(a,b) (s may equal a or b). Requires all hosts
/// attached; returns all switches if hosts are mutually unreachable.
std::vector<SwitchId> redundant_switches(const HostSwitchGraph& g);

/// Removes the given switches (and their edges) from `g`, renumbering the
/// remaining switches downward while preserving relative order. Host
/// attachments to removed switches must not exist (redundant switches
/// never carry hosts if they are truly redundant — enforced).
HostSwitchGraph remove_switches(const HostSwitchGraph& g,
                                const std::vector<SwitchId>& victims);

/// Degree histogram of the switch subgraph: element d = number of
/// switches with exactly d switch-neighbors.
std::vector<std::uint32_t> switch_degree_distribution(const HostSwitchGraph& g);

/// Number of equal-cost shortest switch paths between every switch and a
/// fixed source, summed over all host-bearing pairs — a cheap path
/// diversity indicator (higher = more ECMP choice).
double average_shortest_path_multiplicity(const HostSwitchGraph& g);

}  // namespace orp
