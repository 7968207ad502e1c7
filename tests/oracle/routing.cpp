#include "oracle/routing.hpp"

#include <algorithm>

#include "common/prng.hpp"
#include "common/require.hpp"

namespace orp {

ReferenceRoutingTable::ReferenceRoutingTable(const HostSwitchGraph& g)
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

std::pair<SwitchId, SwitchId> ReferenceRoutingTable::switch_link_ends(LinkId l) const {
  ORP_REQUIRE(l >= 2 * n_ && l < num_links_, "not a switch link id");
  const auto owner = std::upper_bound(link_base_.begin(), link_base_.end(), l) - 1;
  const auto s = static_cast<SwitchId>(owner - link_base_.begin());
  return {s, sorted_adj_[s][l - *owner]};
}

std::uint32_t ReferenceRoutingTable::equal_cost_next_hops(SwitchId s, SwitchId t) const {
  if (s == t) return 0;
  const std::uint32_t ds = switch_distance(s, t);
  if (ds == kUnreachable) return 0;
  std::uint32_t count = 0;
  for (SwitchId u : sorted_adj_[s]) {
    if (switch_distance(u, t) + 1 == ds) ++count;
  }
  return count;
}

std::uint32_t ReferenceRoutingTable::append_host_path(HostId src, HostId dst,
                                                      std::vector<LinkId>& path) const {
  ORP_REQUIRE(src < n_ && dst < n_ && src != dst, "bad host pair");
  const std::size_t before = path.size();
  path.push_back(src);
  SwitchId s = host_switch_[src];
  const SwitchId t = host_switch_[dst];
  while (s != t) {
    ORP_REQUIRE(next_hop(s, t) != kUnreachable, "hosts are not connected");
    path.push_back(next_link(s, t));
    s = next_hop(s, t);
  }
  path.push_back(n_ + dst);
  return static_cast<std::uint32_t>(path.size() - before);
}

std::uint32_t ReferenceRoutingTable::append_host_path_ecmp(HostId src, HostId dst,
                                                           std::uint64_t flow_key,
                                                           std::vector<LinkId>& path) const {
  ORP_REQUIRE(src < n_ && dst < n_ && src != dst, "bad host pair");
  const std::size_t before = path.size();
  path.push_back(src);
  SwitchId s = host_switch_[src];
  const SwitchId t = host_switch_[dst];
  std::uint64_t hash = flow_key ^ 0x9e3779b97f4a7c15ULL;
  while (s != t) {
    const std::uint32_t ds = switch_distance(s, t);
    ORP_REQUIRE(ds != kUnreachable, "hosts are not connected");
    const std::uint32_t choices = equal_cost_next_hops(s, t);
    ORP_ASSERT(choices > 0);
    hash = splitmix64_next(hash);
    std::uint32_t pick = static_cast<std::uint32_t>(hash % choices);
    const auto& adj = sorted_adj_[s];
    std::uint32_t k = 0;
    for (; k < adj.size(); ++k) {
      if (switch_distance(adj[k], t) + 1 == ds) {
        if (pick == 0) break;
        --pick;
      }
    }
    ORP_ASSERT(k < adj.size());
    path.push_back(link_base_[s] + k);
    s = adj[k];
  }
  path.push_back(n_ + dst);
  return static_cast<std::uint32_t>(path.size() - before);
}

}  // namespace orp
