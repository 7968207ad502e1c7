#pragma once
// Reference routing: the per-destination BFS build RoutingTable used before
// it moved onto the shared distance kernel. One BFS from every destination
// switch t gives the whole column dist[*][t]; each switch's next hop toward
// t is then the lowest-id neighbour one step closer, found by a scan of its
// sorted neighbours. Link ids are the pre-port-slot layout: switch links
// numbered densely per source switch in sorted-neighbour order, so they
// shift whenever a cable comes or goes. Compare routes with RoutingTable by
// cable (switch pair), not by id. Test oracle only (library orp_oracle);
// tests/sim_routing_test.cpp pins RoutingTable to it.

#include <cstdint>
#include <vector>

#include "hsg/host_switch_graph.hpp"
#include "sim/routing.hpp"

namespace orp {

class ReferenceRoutingTable {
 public:
  /// Requires every host attached; disconnected switch graphs are accepted.
  explicit ReferenceRoutingTable(const HostSwitchGraph& g);

  static constexpr std::uint32_t kUnreachable = 0xffffffffu;

  std::uint32_t num_links() const noexcept { return num_links_; }
  /// Switch-level hop distance; kUnreachable when t is unreachable from s.
  std::uint32_t switch_distance(SwitchId s, SwitchId t) const {
    return dist_[static_cast<std::size_t>(s) * m_ + t];
  }
  /// Next switch from s toward t; kUnreachable when s == t or unreachable.
  SwitchId next_hop(SwitchId s, SwitchId t) const {
    return next_hop_[static_cast<std::size_t>(s) * m_ + t];
  }
  /// Link id of the hop s -> next_hop(s, t); kUnreachable when none.
  LinkId next_link(SwitchId s, SwitchId t) const {
    return next_link_[static_cast<std::size_t>(s) * m_ + t];
  }
  /// The switch pair a switch link id names.
  std::pair<SwitchId, SwitchId> switch_link_ends(LinkId l) const;

  std::uint32_t equal_cost_next_hops(SwitchId s, SwitchId t) const;
  std::uint32_t append_host_path(HostId src, HostId dst, std::vector<LinkId>& path) const;
  std::uint32_t append_host_path_ecmp(HostId src, HostId dst, std::uint64_t flow_key,
                                      std::vector<LinkId>& path) const;

 private:
  std::uint32_t n_;
  std::uint32_t m_;
  std::uint32_t num_links_;
  std::vector<SwitchId> host_switch_;
  std::vector<std::uint32_t> dist_;       // m*m switch distances
  std::vector<SwitchId> next_hop_;        // m*m: next switch from s toward t
  std::vector<LinkId> next_link_;         // m*m: directed link s -> next_hop_
  std::vector<std::uint32_t> link_base_;  // per-switch offset into directed links
  std::vector<std::vector<SwitchId>> sorted_adj_;
};

}  // namespace orp
