#include "search/random_init.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <vector>

namespace orp {
namespace {

// Full constructions tried before giving up when the spanning tree cannot
// be grown within the port budget.
constexpr int kBuildAttempts = 16;

// Attaches hosts 0..n-1 according to per-switch counts.
void attach_hosts(HostSwitchGraph& g, const std::vector<std::uint32_t>& counts) {
  HostId next = 0;
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    for (std::uint32_t i = 0; i < counts[s]; ++i) g.attach_host(next++, s);
  }
  ORP_ASSERT(next == g.num_hosts());
}

// Grows a random spanning tree. Switches are processed leaves-last (fewest
// free ports last) so port-starved switches never need to accept children.
// Returns false when some switch cannot find a parent with a free port.
bool grow_spanning_tree(HostSwitchGraph& g, Xoshiro256& rng) {
  const std::uint32_t m = g.num_switches();
  if (m <= 1) return true;
  std::vector<SwitchId> order(m);
  std::iota(order.begin(), order.end(), 0);
  shuffle(order, rng);
  std::stable_sort(order.begin(), order.end(), [&](SwitchId a, SwitchId b) {
    return g.free_ports(a) > g.free_ports(b);
  });
  std::vector<SwitchId> candidates;
  for (std::uint32_t i = 1; i < m; ++i) {
    candidates.clear();
    for (std::uint32_t j = 0; j < i; ++j) {
      if (g.free_ports(order[j]) > 0) candidates.push_back(order[j]);
    }
    if (candidates.empty() || g.free_ports(order[i]) == 0) return false;
    const SwitchId parent = candidates[rng.below(candidates.size())];
    g.add_switch_edge(order[i], parent);
  }
  return true;
}

// Fills free ports with a random matching (configuration model with
// rejection), then one repair pass that relocates an existing edge to
// absorb leftover stubs. A couple of ports may stay free when parity or
// adjacency makes saturation impossible; callers tolerate that.
void saturate_ports(HostSwitchGraph& g, Xoshiro256& rng) {
  std::vector<SwitchId> stubs;
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    for (std::uint32_t p = 0; p < g.free_ports(s); ++p) stubs.push_back(s);
  }
  int failures = 0;
  while (stubs.size() >= 2 && failures < 256) {
    const std::size_t i = rng.below(stubs.size());
    std::size_t j = rng.below(stubs.size() - 1);
    if (j >= i) ++j;
    const SwitchId a = stubs[i], b = stubs[j];
    if (a == b || g.has_switch_edge(a, b)) {
      ++failures;
      continue;
    }
    g.add_switch_edge(a, b);
    // Remove the two consumed stubs (larger index first).
    const auto hi = std::max(i, j), lo = std::min(i, j);
    stubs[hi] = stubs.back();
    stubs.pop_back();
    stubs[lo] = stubs.back();
    stubs.pop_back();
    failures = 0;
  }

  // Repair: for a leftover stub pair (a, b) blocked by an existing a-b edge
  // or a == b, steal an edge {c, d} with c,d not adjacent to a,b and rewire
  // to {a, c}, {b, d}.
  while (stubs.size() >= 2) {
    const SwitchId a = stubs[stubs.size() - 1];
    const SwitchId b = stubs[stubs.size() - 2];
    bool repaired = false;
    for (int attempt = 0; attempt < 512 && !repaired; ++attempt) {
      const SwitchId c = static_cast<SwitchId>(rng.below(g.num_switches()));
      const auto nc = g.neighbors(c);
      if (nc.empty()) continue;
      const SwitchId d = nc[rng.below(nc.size())];
      if (c == a || c == b || d == a || d == b) continue;
      if (g.has_switch_edge(a, c) || g.has_switch_edge(b, d)) continue;
      g.remove_switch_edge(c, d);
      g.add_switch_edge(a, c);
      g.add_switch_edge(b, d);
      repaired = true;
    }
    if (!repaired) break;  // tolerate the free ports
    stubs.pop_back();
    stubs.pop_back();
  }
}

std::optional<HostSwitchGraph> try_build(std::uint32_t n, std::uint32_t m,
                                         std::uint32_t r,
                                         const std::vector<std::uint32_t>& counts,
                                         Xoshiro256& rng) {
  HostSwitchGraph g(n, m, r);
  attach_hosts(g, counts);
  if (!grow_spanning_tree(g, rng)) return std::nullopt;
  saturate_ports(g, rng);
  return g;
}

std::vector<std::uint32_t> balanced_counts(std::uint32_t n, std::uint32_t m) {
  std::vector<std::uint32_t> counts(m, n / m);
  for (std::uint32_t s = 0; s < n % m; ++s) ++counts[s];
  return counts;
}

}  // namespace

bool random_init_feasible(std::uint32_t n, std::uint32_t m, std::uint32_t r) {
  if (n == 0 || m == 0 || r < 3) return false;
  if (m == 1) return n <= r;
  const std::uint64_t host_capacity = static_cast<std::uint64_t>(m) * (r - 1);
  if (n > host_capacity) return false;
  // A spanning tree needs 2(m-1) switch-port endpoints on top of the hosts.
  return static_cast<std::uint64_t>(m) * r >= static_cast<std::uint64_t>(n) + 2 * (m - 1ull);
}

HostSwitchGraph random_host_switch_graph(std::uint32_t n, std::uint32_t m,
                                         std::uint32_t r, Xoshiro256& rng) {
  ORP_REQUIRE(random_init_feasible(n, m, r),
              "no connected host-switch graph with these (n, m, r)");
  const auto counts = balanced_counts(n, m);
  for (int attempt = 0; attempt < kBuildAttempts; ++attempt) {
    if (auto g = try_build(n, m, r, counts, rng)) return std::move(*g);
  }
  throw std::invalid_argument(
      "random_host_switch_graph: spanning tree construction kept failing; "
      "the port budget is too tight");
}

HostSwitchGraph random_regular_host_switch_graph(std::uint32_t n, std::uint32_t m,
                                                 std::uint32_t r, Xoshiro256& rng) {
  ORP_REQUIRE(m >= 1 && n % m == 0,
              "regular host-switch graphs need m to divide n");
  return random_host_switch_graph(n, m, r, rng);
}

}  // namespace orp
