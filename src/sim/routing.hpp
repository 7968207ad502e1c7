#pragma once
// Deterministic shortest-path routing over a host-switch graph.
//
// Every cable is full duplex and modeled as two directed links. Link ids:
//   [0, n)        host h's up-link   (host -> its switch)
//   [n, 2n)       host h's down-link (switch -> host)
//   [2n, 2n+2E)   directed switch-switch links, laid out per source switch
// Routes are minimal and deterministic: among equal-length next hops the
// lowest switch id wins (topology-agnostic deterministic routing, as used
// for irregular networks in practice).

#include <cstdint>
#include <span>
#include <vector>

#include "hsg/host_switch_graph.hpp"

namespace orp {

using LinkId = std::uint32_t;

/// Offsets [begin, end) of one flow's links in a PathStore.
struct PathRange {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
};

/// The routes of one communication phase in one flat array: flow f crosses
/// links[ranges[f].begin, ranges[f].end). Routes are appended in flow
/// order; re-pathing a flow appends its new route and moves its range, so
/// the old entries stay behind unreferenced.
struct PathStore {
  std::vector<LinkId> links;
  std::vector<PathRange> ranges;

  std::size_t size() const noexcept { return ranges.size(); }
  std::span<const LinkId> operator[](std::size_t f) const {
    const PathRange& r = ranges[f];
    return {links.data() + r.begin, r.end - r.begin};
  }
};

class RoutingTable {
 public:
  /// Precomputes next hops for all switch pairs (one BFS per switch).
  /// Requires every host attached. Disconnected (degraded) topologies are
  /// accepted: unreachable pairs are representable, the throwing append_*
  /// family rejects them at path-build time, and the try_* variants report
  /// them as "no route" instead.
  explicit RoutingTable(const HostSwitchGraph& g);

  std::uint32_t num_links() const noexcept { return num_links_; }
  std::uint32_t num_hosts() const noexcept { return n_; }

  /// Switch-level hop distance.
  std::uint32_t switch_distance(SwitchId s, SwitchId t) const {
    return dist_[static_cast<std::size_t>(s) * m_ + t];
  }

  /// Appends the directed link ids of the path from host `src` to host
  /// `dst` (up-link, switch links, down-link) to `path`. `src != dst`.
  /// Returns the number of links appended (= hop count of the route).
  std::uint32_t append_host_path(HostId src, HostId dst, std::vector<LinkId>& path) const;

  /// ECMP variant: at every switch the next hop is chosen among ALL
  /// equal-cost shortest next hops by hashing `flow_key` (deterministic
  /// per flow, spread across flows) — the standard per-flow ECMP model.
  /// Path length equals the deterministic route's length.
  std::uint32_t append_host_path_ecmp(HostId src, HostId dst, std::uint64_t flow_key,
                                      std::vector<LinkId>& path) const;

  /// Number of equal-cost shortest next hops from s toward t (0 if s == t
  /// or unreachable). Exposed for tests and diversity statistics.
  std::uint32_t equal_cost_next_hops(SwitchId s, SwitchId t) const;

  /// True when a route exists between the two hosts' switches. Unlike the
  /// append_* family this never throws on a degraded topology.
  bool hosts_connected(HostId src, HostId dst) const {
    ORP_ASSERT(src < n_ && dst < n_);
    const SwitchId s = host_switch_[src];
    const SwitchId t = host_switch_[dst];
    return dist_[static_cast<std::size_t>(s) * m_ + t] != kUnreachable;
  }

  /// Non-throwing variants for degraded topologies: append the route when
  /// one exists and return its hop count, or leave `path` untouched and
  /// return 0 when the hosts cannot reach each other.
  std::uint32_t try_append_host_path(HostId src, HostId dst,
                                     std::vector<LinkId>& path) const;
  std::uint32_t try_append_host_path_ecmp(HostId src, HostId dst,
                                          std::uint64_t flow_key,
                                          std::vector<LinkId>& path) const;

  /// Directed link id for the switch-switch hop a -> b (must be adjacent).
  LinkId switch_link(SwitchId a, SwitchId b) const;

  /// The deterministic route's switch sequence from s to t (inclusive of
  /// both endpoints); {s} when s == t. Throws when unreachable.
  std::vector<SwitchId> switch_path(SwitchId s, SwitchId t) const;

  LinkId host_uplink(HostId h) const { return h; }
  LinkId host_downlink(HostId h) const { return n_ + h; }

 private:
  std::uint32_t n_;
  std::uint32_t m_;
  std::uint32_t num_links_;
  std::vector<SwitchId> host_switch_;
  std::vector<std::uint32_t> dist_;      // m*m switch distances
  std::vector<SwitchId> next_hop_;       // m*m: next switch from s toward t
  std::vector<LinkId> next_link_;        // m*m: directed link s -> next_hop_
  std::vector<std::uint32_t> link_base_; // per-switch offset into directed links
  // Sorted adjacency per switch for O(log r) link lookup.
  std::vector<std::vector<SwitchId>> sorted_adj_;

  static constexpr std::uint32_t kUnreachable = 0xffffffffu;
};

}  // namespace orp
