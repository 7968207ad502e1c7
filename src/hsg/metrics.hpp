#pragma once
// h-ASPL and diameter computation for host-switch graphs (§3.2 of the
// paper).
//
// Host-to-host distances decompose: hosts are degree-1 pendants, so
// l(h_i, h_j) = d(s(h_i), s(h_j)) + 2 for hosts on different switches and
// exactly 2 for hosts sharing a switch. The metric therefore reduces to a
// weighted all-pairs shortest path over the switch subgraph, with each
// switch weighted by its attached host count k_s:
//
//   sum over host pairs = (1/2) * sum_{s,t} k_s k_t d(s,t)  +  2 * C(n,2)
//
// The weighted APSP runs on the bit-parallel kernel of hsg/distance.hpp (64
// BFS sources per machine word, the Graph-Golf trick) with a sink that
// accumulates pair sums, one 64-source block after another on the calling
// thread. connected_pairs_metrics turns the sums into the reported
// scalars; the delta evaluator calls it too. tests/hsg_metrics_test.cpp
// cross-checks the kernel bit for bit against a one-BFS-per-source oracle
// (tests/oracle/metrics_scalar.hpp).

#include <cstdint>
#include <limits>

#include "hsg/host_switch_graph.hpp"

namespace orp {

/// Result of a host-to-host metric evaluation.
///
/// Disconnected-graph semantics (degraded-operation contract, see
/// docs/resilience.md): averages and the diameter are taken over the
/// *connected* host pairs only, and the pairs that cannot reach each other
/// are counted in `unreachable_pairs` instead of poisoning the scalars.
/// When every pair is unreachable (`connected_pairs == 0`) the h-ASPL is
/// +infinity and the diameter is kUnreachable — there is no path length to
/// report. Connected graphs are unaffected: `connected_pairs` equals
/// C(n,2) and `unreachable_pairs` is 0.
struct HostMetrics {
  /// Average shortest path length over the connected host pairs; +infinity
  /// when no pair is connected, 0 when n < 2.
  double h_aspl = 0.0;
  /// Maximum shortest path length over the connected host pairs;
  /// kUnreachable when no pair is connected, 0 when n < 2.
  std::uint32_t diameter = 0;
  /// True when every host can reach every other host.
  bool connected = true;
  /// Sum of l(h_i, h_j) over the connected unordered host pairs.
  std::uint64_t total_length = 0;
  /// Unordered host pairs with a path between them. C(n,2) when connected.
  std::uint64_t connected_pairs = 0;
  /// Unordered host pairs with no path between them. 0 when connected.
  std::uint64_t unreachable_pairs = 0;

  static constexpr std::uint32_t kUnreachable =
      std::numeric_limits<std::uint32_t>::max();
};

/// Metrics of the switch subgraph viewed as a plain undirected graph
/// (used by the regular-graph analysis of §5.1 / Eq. 1). Disconnected
/// graphs follow the same connected-pairs contract as HostMetrics.
struct SwitchMetrics {
  double aspl = 0.0;
  std::uint32_t diameter = 0;
  bool connected = true;
  std::uint64_t total_length = 0;
  std::uint64_t connected_pairs = 0;
  std::uint64_t unreachable_pairs = 0;
};

/// Weighted pair sums of one all-pairs run over the switch subgraph, with
/// weight w_s per switch (k_s for host metrics, 1 for switch metrics).
struct WeightedPairSums {
  /// Sum of w_s w_t d(s,t) over the ordered pairs (s, t) with a path.
  std::uint64_t ordered_sum = 0;
  /// Sum of w_s w_t over the ordered pairs (s, t) with no path.
  std::uint64_t unreached_ordered = 0;
  /// Largest d(s,t) over the weighted pairs with a path.
  std::uint32_t max_distance = 0;
};

/// The connected-pairs rule (docs/resilience.md): metrics of `n` weighted
/// endpoints from their pair sums. Scalars cover the connected pairs only;
/// h_aspl is +infinity and the diameter kUnreachable when none connects; a
/// result with n < 2 is default-constructed. `end_hops` is added to every
/// connected pair's length: 2 for hosts (one host-switch link at each end),
/// 0 for switches.
HostMetrics connected_pairs_metrics(std::uint64_t n, const WeightedPairSums& sums,
                                    std::uint32_t end_hops);

/// Computes h-ASPL / host diameter. Requires every host to be attached.
/// Serial and reentrant: concurrent calls on different threads are safe.
HostMetrics compute_host_metrics(const HostSwitchGraph& g);

/// Degraded-operation variant: computes the same metrics over the
/// *attached* hosts only, tolerating detached ones (the fault layer
/// detaches hosts whose switch died). Pair counts are over the attached
/// host set; a graph with fewer than two attached hosts yields the
/// default-constructed result.
HostMetrics compute_live_host_metrics(const HostSwitchGraph& g);

/// Computes the switch subgraph's ASPL / diameter.
SwitchMetrics compute_switch_metrics(const HostSwitchGraph& g);

}  // namespace orp
