#include "fault/degraded.hpp"

#include "common/require.hpp"
#include "obs/metrics.hpp"

namespace orp {

DegradedGraph apply_faults(const HostSwitchGraph& g, const FaultSet& faults) {
  DegradedGraph out{g, std::vector<std::uint8_t>(g.num_switches(), 0), 0, 0, 0};

  for (const SwitchId s : faults.failed_switches) {
    ORP_REQUIRE(s < g.num_switches(), "failed switch id out of range");
    out.switch_dead[s] = 1;
  }

  // Dead switches drop every incident link; explicit link faults drop the
  // named cable if it still exists (a link listed twice, or on an already
  // dead switch, is not double-counted).
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    if (!out.switch_dead[s]) continue;
    const auto span = out.graph.neighbors(s);
    const std::vector<SwitchId> frozen(span.begin(), span.end());
    for (const SwitchId t : frozen) {
      out.graph.remove_switch_edge(s, t);
      ++out.removed_links;
    }
  }
  for (const auto& [a, b] : faults.failed_links) {
    ORP_REQUIRE(a < g.num_switches() && b < g.num_switches() && a != b,
                "failed link endpoints out of range");
    if (out.graph.has_switch_edge(a, b)) {
      out.graph.remove_switch_edge(a, b);
      ++out.removed_links;
    }
  }

  for (HostId h = 0; h < g.num_hosts(); ++h) {
    const SwitchId s = out.graph.host_switch(h);
    if (s != HostSwitchGraph::kDetached && out.switch_dead[s]) {
      out.graph.detach_host(h);
      ++out.dead_hosts;
    } else if (s != HostSwitchGraph::kDetached) {
      ++out.live_hosts;
    }
  }
  return out;
}

ResilienceReport evaluate_degraded(const HostSwitchGraph& g,
                                   const FaultSet& faults) {
  static obs::Counter& evals =
      obs::Registry::global().counter("fault.degraded_evals");
  evals.inc();

  const DegradedGraph degraded = apply_faults(g, faults);
  const HostMetrics metrics = compute_live_host_metrics(degraded.graph);

  ResilienceReport report;
  report.live_hosts = degraded.live_hosts;
  report.dead_hosts = degraded.dead_hosts;
  report.failed_switches =
      static_cast<std::uint32_t>(faults.failed_switches.size());
  report.removed_links = degraded.removed_links;
  report.connected_pairs = metrics.connected_pairs;
  report.unreachable_pairs = metrics.unreachable_pairs;
  const std::uint64_t all_pairs =
      std::uint64_t{g.num_hosts()} * (g.num_hosts() - 1) / 2;
  report.dead_pairs =
      all_pairs - report.connected_pairs - report.unreachable_pairs;
  report.h_aspl = metrics.h_aspl;
  report.diameter = metrics.diameter;
  report.live_hosts_connected = metrics.connected;
  report.fault_fingerprint = faults.fingerprint();
  return report;
}

}  // namespace orp
