#include "hsg/analysis.hpp"

#include <algorithm>

#include "common/require.hpp"
#include "hsg/distance.hpp"
#include "hsg/metrics.hpp"

namespace orp {

std::vector<SwitchId> unused_switches(const HostSwitchGraph& g) {
  std::vector<SwitchId> result;
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    if (g.hosts_on(s) == 0) result.push_back(s);
  }
  return result;
}

std::vector<SwitchId> redundant_switches(const HostSwitchGraph& g) {
  ORP_REQUIRE(g.fully_attached(), "redundancy analysis needs every host attached");
  const std::uint32_t m = g.num_switches();
  const auto dist = switch_distance_matrix(g);
  auto d = [&](SwitchId a, SwitchId b) {
    return dist[static_cast<std::size_t>(a) * m + b];
  };

  std::vector<SwitchId> bearing;
  for (SwitchId s = 0; s < m; ++s) {
    if (g.hosts_on(s) > 0) bearing.push_back(s);
  }

  std::vector<SwitchId> result;
  for (SwitchId s = 0; s < m; ++s) {
    if (g.hosts_on(s) > 0) continue;  // carries hosts -> on its own paths
    bool on_some_path = false;
    for (std::size_t i = 0; i < bearing.size() && !on_some_path; ++i) {
      const SwitchId a = bearing[i];
      if (d(a, s) == kNoDistance) continue;
      for (std::size_t j = i; j < bearing.size(); ++j) {
        const SwitchId b = bearing[j];
        // Same-switch host pairs (i == j) never leave switch a, and a
        // host pair on adjacent switches needs intermediate s only if
        // d(a,s) + d(s,b) equals the pair's switch distance.
        if (d(s, b) == kNoDistance || d(a, b) == kNoDistance) continue;
        if (d(a, s) + d(s, b) == d(a, b) && !(i == j && d(a, s) > 0)) {
          on_some_path = true;
          break;
        }
      }
    }
    if (!on_some_path) result.push_back(s);
  }
  return result;
}

HostSwitchGraph remove_switches(const HostSwitchGraph& g,
                                const std::vector<SwitchId>& victims) {
  std::vector<std::uint8_t> removed(g.num_switches(), 0);
  for (const SwitchId s : victims) {
    ORP_REQUIRE(s < g.num_switches(), "victim switch out of range");
    ORP_REQUIRE(g.hosts_on(s) == 0, "cannot remove a switch that carries hosts");
    removed[s] = 1;
  }
  std::vector<SwitchId> new_id(g.num_switches(), 0);
  std::uint32_t kept = 0;
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    new_id[s] = kept;
    if (!removed[s]) ++kept;
  }
  ORP_REQUIRE(kept >= 1, "cannot remove every switch");

  HostSwitchGraph result(g.num_hosts(), kept, g.radix());
  for (HostId h = 0; h < g.num_hosts(); ++h) {
    if (g.host_attached(h)) result.attach_host(h, new_id[g.host_switch(h)]);
  }
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    if (removed[s]) continue;
    for (SwitchId t : g.neighbors(s)) {
      if (t > s && !removed[t]) result.add_switch_edge(new_id[s], new_id[t]);
    }
  }
  return result;
}

std::vector<std::uint32_t> switch_degree_distribution(const HostSwitchGraph& g) {
  std::uint32_t max_degree = 0;
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    max_degree = std::max(max_degree, g.switch_degree(s));
  }
  std::vector<std::uint32_t> dist(max_degree + 1, 0);
  for (SwitchId s = 0; s < g.num_switches(); ++s) ++dist[g.switch_degree(s)];
  return dist;
}

FaultImpact link_failure_impact(const HostSwitchGraph& g, double failure_rate,
                                int trials, Xoshiro256& rng) {
  ORP_REQUIRE(failure_rate >= 0.0 && failure_rate < 1.0,
              "failure rate must be in [0, 1)");
  ORP_REQUIRE(trials > 0, "need at least one trial");
  const HostMetrics healthy = compute_host_metrics(g);
  ORP_REQUIRE(healthy.connected, "baseline network must be connected");

  FaultImpact impact;
  double inflation_sum = 0.0;
  for (int trial = 0; trial < trials; ++trial) {
    HostSwitchGraph faulty = g;
    for (SwitchId s = 0; s < g.num_switches(); ++s) {
      for (const SwitchId t : g.neighbors(s)) {
        if (s < t && rng.bernoulli(failure_rate)) faulty.remove_switch_edge(s, t);
      }
    }
    const HostMetrics metrics = compute_host_metrics(faulty);
    if (!metrics.connected) continue;
    ++impact.connected_trials;
    const double inflation = metrics.h_aspl / healthy.h_aspl - 1.0;
    inflation_sum += inflation;
    impact.max_haspl_inflation = std::max(impact.max_haspl_inflation, inflation);
  }
  impact.disconnect_probability =
      1.0 - static_cast<double>(impact.connected_trials) / trials;
  if (impact.connected_trials > 0) {
    impact.mean_haspl_inflation = inflation_sum / impact.connected_trials;
  }
  return impact;
}

double average_shortest_path_multiplicity(const HostSwitchGraph& g) {
  ORP_REQUIRE(g.fully_attached(), "path multiplicity needs every host attached");
  const std::uint32_t m = g.num_switches();
  const auto dist = switch_distance_matrix(g);
  auto d = [&](SwitchId a, SwitchId b) {
    return dist[static_cast<std::size_t>(a) * m + b];
  };

  // Count shortest paths a->b by dynamic programming over BFS levels.
  double total = 0.0;
  std::uint64_t pairs = 0;
  std::vector<double> count(m);
  for (SwitchId a = 0; a < m; ++a) {
    if (g.hosts_on(a) == 0) continue;
    std::fill(count.begin(), count.end(), 0.0);
    count[a] = 1.0;
    // Process vertices in increasing distance from a.
    std::vector<SwitchId> order;
    for (SwitchId v = 0; v < m; ++v) {
      if (d(a, v) != kNoDistance) order.push_back(v);
    }
    std::sort(order.begin(), order.end(),
              [&](SwitchId x, SwitchId y) { return d(a, x) < d(a, y); });
    for (const SwitchId v : order) {
      if (v == a) continue;
      for (const SwitchId u : g.neighbors(v)) {
        if (d(a, u) + 1 == d(a, v)) count[v] += count[u];
      }
    }
    for (SwitchId b = 0; b < m; ++b) {
      if (b == a || g.hosts_on(b) == 0 || d(a, b) == kNoDistance) continue;
      total += count[b];
      ++pairs;
    }
  }
  return pairs ? total / static_cast<double>(pairs) : 0.0;
}

}  // namespace orp
