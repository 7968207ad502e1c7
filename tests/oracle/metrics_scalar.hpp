#pragma once
// Reference h-ASPL / diameter kernels: one plain BFS per source switch.
//
// Test oracle only (library orp_oracle). The production kernels in
// src/hsg/metrics.hpp run 64 BFS sources per machine word; these exist so
// the test suite can cross-check them bit for bit and the benches can
// quantify the speedup. They follow the same disconnected-graph contract
// (averages over connected pairs, unreachable pairs counted separately).

#include "hsg/host_switch_graph.hpp"
#include "hsg/metrics.hpp"

namespace orp {

/// compute_host_metrics, one BFS per host-carrying switch.
HostMetrics compute_host_metrics_scalar(const HostSwitchGraph& g);

/// compute_switch_metrics, one BFS per switch.
SwitchMetrics compute_switch_metrics_scalar(const HostSwitchGraph& g);

}  // namespace orp
