#pragma once
// Simulation parameters for the flow-level network simulator (§6.2.1).
//
// Defaults model the paper's setup: Mellanox FDR10 links (40 Gb/s) and
// hosts with 100 GFlops. The latency constants are typical for cut-through
// InfiniBand switches; they matter because IS/FT at 1024 ranks are
// latency-dominated, which is exactly the regime where low h-ASPL wins.

namespace orp {

/// How flows pick among equal-cost shortest paths.
enum class RoutingPolicy {
  kDeterministic,  ///< lowest-id next hop (topology-agnostic deterministic)
  kEcmp,           ///< per-flow hashed spreading over all shortest paths
};

struct SimParams {
  double link_bandwidth = 5.0e9;  ///< bytes/s per direction (40 Gb/s FDR10)
  double hop_latency = 100e-9;    ///< seconds per traversed link (wire+switch)
  double mpi_overhead = 1.0e-6;   ///< per-message software overhead, seconds
  double host_gflops = 100.0;     ///< compute rate per host (paper: 100 GFlops)
  RoutingPolicy routing = RoutingPolicy::kDeterministic;
  /// Added latency per in-flight flow reroute after a fault (transport
  /// retransmission handshake). Only reachable via Machine::inject_faults.
  double retry_backoff = 10.0e-6;
  /// Give-up horizon for a flow whose endpoints have no surviving route:
  /// the flow fails cleanly this many seconds after the fault (bounded
  /// failure detection, not a hang).
  double retry_timeout = 1.0e-3;
};

}  // namespace orp
