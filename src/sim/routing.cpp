#include "sim/routing.hpp"

#include <algorithm>

#include "common/prng.hpp"
#include "common/require.hpp"

namespace orp {

RoutingTable::RoutingTable(const HostSwitchGraph& g)
    : n_(g.num_hosts()), m_(g.num_switches()) {
  ORP_REQUIRE(g.fully_attached(), "routing needs every host attached");
  host_switch_.resize(n_);
  for (HostId h = 0; h < n_; ++h) host_switch_[h] = g.host_switch(h);

  // Directed switch-switch link layout and sorted adjacency.
  link_base_.resize(m_ + 1);
  sorted_adj_.resize(m_);
  std::uint32_t offset = 2 * n_;
  for (SwitchId s = 0; s < m_; ++s) {
    link_base_[s] = offset;
    sorted_adj_[s].assign(g.neighbors(s).begin(), g.neighbors(s).end());
    std::sort(sorted_adj_[s].begin(), sorted_adj_[s].end());
    offset += static_cast<std::uint32_t>(sorted_adj_[s].size());
  }
  link_base_[m_] = offset;
  num_links_ = offset;

  // BFS from every switch; next hops chosen toward the destination with
  // lowest-id tie-break, giving loop-free deterministic minimal routes.
  dist_.assign(static_cast<std::size_t>(m_) * m_, kUnreachable);
  next_hop_.assign(static_cast<std::size_t>(m_) * m_, kUnreachable);
  next_link_.assign(static_cast<std::size_t>(m_) * m_, kUnreachable);
  std::vector<SwitchId> queue;
  queue.reserve(m_);
  for (SwitchId t = 0; t < m_; ++t) {
    // BFS from the *destination* so dist_[s][t] and the next hop from any s
    // toward t come out of one traversal.
    auto dist_to_t = [&](SwitchId s) -> std::uint32_t& {
      return dist_[static_cast<std::size_t>(s) * m_ + t];
    };
    queue.clear();
    queue.push_back(t);
    dist_to_t(t) = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const SwitchId v = queue[head];
      const std::uint32_t dv = dist_to_t(v);
      // Visit sorted neighbors so BFS order (and therefore parents at equal
      // depth) is deterministic.
      for (SwitchId u : sorted_adj_[v]) {
        if (dist_to_t(u) != kUnreachable) continue;
        dist_to_t(u) = dv + 1;
        queue.push_back(u);
      }
    }
    for (SwitchId s = 0; s < m_; ++s) {
      if (s == t || dist_to_t(s) == kUnreachable) continue;
      const auto& adj = sorted_adj_[s];
      for (std::uint32_t k = 0; k < adj.size(); ++k) {  // lowest-id shortest
        if (dist_to_t(adj[k]) + 1 == dist_to_t(s)) {
          next_hop_[static_cast<std::size_t>(s) * m_ + t] = adj[k];
          next_link_[static_cast<std::size_t>(s) * m_ + t] = link_base_[s] + k;
          break;
        }
      }
    }
  }
}

LinkId RoutingTable::switch_link(SwitchId a, SwitchId b) const {
  const auto& adj = sorted_adj_[a];
  const auto it = std::lower_bound(adj.begin(), adj.end(), b);
  ORP_ASSERT(it != adj.end() && *it == b);
  return link_base_[a] + static_cast<std::uint32_t>(it - adj.begin());
}

std::uint32_t RoutingTable::equal_cost_next_hops(SwitchId s, SwitchId t) const {
  if (s == t) return 0;
  const std::uint32_t ds = dist_[static_cast<std::size_t>(s) * m_ + t];
  if (ds == kUnreachable) return 0;
  std::uint32_t count = 0;
  for (SwitchId u : sorted_adj_[s]) {
    if (dist_[static_cast<std::size_t>(u) * m_ + t] + 1 == ds) ++count;
  }
  return count;
}

std::uint32_t RoutingTable::append_host_path_ecmp(HostId src, HostId dst,
                                                  std::uint64_t flow_key,
                                                  std::vector<LinkId>& path) const {
  ORP_REQUIRE(src < n_ && dst < n_ && src != dst, "bad host pair");
  const std::size_t before = path.size();
  path.push_back(host_uplink(src));
  SwitchId s = host_switch_[src];
  const SwitchId t = host_switch_[dst];
  std::uint64_t hash = flow_key ^ 0x9e3779b97f4a7c15ULL;
  while (s != t) {
    const std::uint32_t ds = dist_[static_cast<std::size_t>(s) * m_ + t];
    ORP_REQUIRE(ds != kUnreachable, "hosts are not connected");
    const std::uint32_t choices = equal_cost_next_hops(s, t);
    ORP_ASSERT(choices > 0);
    // SplitMix-style remix per hop so consecutive hops decorrelate.
    hash = splitmix64_next(hash);
    std::uint32_t pick = static_cast<std::uint32_t>(hash % choices);
    // The k-th sorted neighbor is reached over link link_base_[s] + k.
    const auto& adj = sorted_adj_[s];
    std::uint32_t k = 0;
    for (; k < adj.size(); ++k) {
      if (dist_[static_cast<std::size_t>(adj[k]) * m_ + t] + 1 == ds) {
        if (pick == 0) break;
        --pick;
      }
    }
    ORP_ASSERT(k < adj.size());
    path.push_back(link_base_[s] + k);
    s = adj[k];
  }
  path.push_back(host_downlink(dst));
  return static_cast<std::uint32_t>(path.size() - before);
}

std::vector<SwitchId> RoutingTable::switch_path(SwitchId s, SwitchId t) const {
  ORP_REQUIRE(s < m_ && t < m_, "switch id out of range");
  std::vector<SwitchId> path{s};
  while (s != t) {
    const SwitchId u = next_hop_[static_cast<std::size_t>(s) * m_ + t];
    ORP_REQUIRE(u != kUnreachable, "switches are not connected");
    path.push_back(u);
    s = u;
  }
  return path;
}

std::uint32_t RoutingTable::try_append_host_path(HostId src, HostId dst,
                                                 std::vector<LinkId>& path) const {
  ORP_REQUIRE(src < n_ && dst < n_ && src != dst, "bad host pair");
  if (!hosts_connected(src, dst)) return 0;
  return append_host_path(src, dst, path);
}

std::uint32_t RoutingTable::try_append_host_path_ecmp(
    HostId src, HostId dst, std::uint64_t flow_key,
    std::vector<LinkId>& path) const {
  ORP_REQUIRE(src < n_ && dst < n_ && src != dst, "bad host pair");
  if (!hosts_connected(src, dst)) return 0;
  return append_host_path_ecmp(src, dst, flow_key, path);
}

std::uint32_t RoutingTable::append_host_path(HostId src, HostId dst,
                                             std::vector<LinkId>& path) const {
  ORP_REQUIRE(src < n_ && dst < n_ && src != dst, "bad host pair");
  const std::size_t before = path.size();
  path.push_back(host_uplink(src));
  SwitchId s = host_switch_[src];
  const SwitchId t = host_switch_[dst];
  while (s != t) {
    const std::size_t st = static_cast<std::size_t>(s) * m_ + t;
    ORP_REQUIRE(next_hop_[st] != kUnreachable, "hosts are not connected");
    path.push_back(next_link_[st]);
    s = next_hop_[st];
  }
  path.push_back(host_downlink(dst));
  return static_cast<std::uint32_t>(path.size() - before);
}

}  // namespace orp
