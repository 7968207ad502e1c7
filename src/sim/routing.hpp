#pragma once
// Deterministic shortest-path routing over a host-switch graph.
//
// Every cable is full duplex and modeled as two directed links. Link ids:
//   [0, n)        host h's up-link   (host -> its switch)
//   [n, 2n)       host h's down-link (switch -> host)
//   [2n, 2n+P)    directed switch-switch links, one per switch port slot
// Switch s owns min(radix - hosts_on(s), m - 1) port slots (no switch can
// have more distinct neighbours), at ids 2n + slot_base(s) + slot. A
// directed link keeps its id for the table's lifetime: at construction
// slots follow sorted-neighbour order; update() leaves every surviving
// cable in its slot, lets a dead cable keep its id (it carries no route),
// gives a repaired cable its old slot back, and puts a new cable in a
// never-used slot, or in a dead one when none is left.
//
// Routes are minimal and deterministic: among equal-length next hops the
// lowest switch id wins (topology-agnostic deterministic routing, as used
// for irregular networks in practice). Distances come from the shared
// bit-parallel kernel (hsg/distance.hpp); next hops from one branch-free
// pass per source switch over that matrix.

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "hsg/distance.hpp"
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
  /// Assigns port slots and routes every switch pair. Requires every host
  /// attached and m < kNoDistance. Disconnected (degraded) topologies are
  /// accepted: unreachable pairs are representable, the throwing append_*
  /// family rejects them at path-build time, and the try_* variants report
  /// them as "no route" instead.
  explicit RoutingTable(const HostSwitchGraph& g);

  /// Re-routes in place on `g`, which must have the constructor graph's
  /// hosts, switches, radix and host attachment; its switch links may
  /// differ. Link ids of surviving cables do not change (see the header
  /// comment). Debug builds check the result against a fresh table.
  void update(const HostSwitchGraph& g);

  std::uint32_t num_links() const noexcept { return num_links_; }
  std::uint32_t num_hosts() const noexcept { return n_; }

  /// Switch-level hop distance; kNoDistance when t is unreachable from s.
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
    return switch_distance(host_switch_[src], host_switch_[dst]) != kNoDistance;
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
  /// The (from, to) switches of switch link `l`: the cable its slot holds,
  /// or held last when the link is dead; {kNoSwitch, kNoSwitch} for a
  /// never-used slot. Requires l in [2n, num_links()).
  std::pair<SwitchId, SwitchId> switch_link_ends(LinkId l) const;
  /// True when switch link `l` lost its cable in the last update().
  bool died_in_last_update(LinkId l) const {
    return l >= 2 * n_ && slot_death_[l - 2 * n_] == epoch_;
  }

  /// The deterministic route's switch sequence from s to t (inclusive of
  /// both endpoints); {s} when s == t. Throws when unreachable.
  std::vector<SwitchId> switch_path(SwitchId s, SwitchId t) const;

  LinkId host_uplink(HostId h) const { return h; }
  LinkId host_downlink(HostId h) const { return n_ + h; }

  /// Checks the table against a fresh build on `g`: equal distances and
  /// next hops, and every live slot holding a current cable of its switch.
  /// On failure returns false and, when `why` is non-null, says what differs.
  bool self_check(const HostSwitchGraph& g, std::string* why = nullptr) const;

  static constexpr SwitchId kNoSwitch = 0xffffffffu;

 private:
  /// Brings the slots and the sorted live adjacency up to date with `g`.
  void sync_slots(const HostSwitchGraph& g);
  /// Distances by the shared kernel, then next hops from the matrix.
  void compute_routes();

  std::uint32_t n_;
  std::uint32_t m_;
  std::uint32_t radix_;
  std::uint32_t num_links_ = 0;
  std::vector<SwitchId> host_switch_;

  // Port slots: switch s owns [slot_base_[s], slot_base_[s+1]).
  std::vector<std::uint32_t> slot_base_;
  std::vector<SwitchId> slot_peer_;  ///< far end, kNoSwitch if never used
  std::vector<std::uint8_t> slot_live_;
  std::vector<std::uint32_t> slot_death_;  ///< update epoch of last death
  std::uint32_t epoch_ = 0;                ///< update() count, 1-based

  // Live switch adjacency, sorted per switch (CSR), with each entry's link.
  std::vector<std::uint32_t> adj_begin_;
  std::vector<SwitchId> adj_;
  std::vector<LinkId> adj_link_;

  std::vector<std::uint16_t> dist_;  ///< m*m switch distances
  /// m*m: index into s's sorted adjacency of the next hop toward t
  /// (kNoDistance when t == s or t is unreachable).
  std::vector<std::uint16_t> next_;

  // Scratch reused by update().
  DistanceScratch kernel_scratch_;
  std::vector<std::uint32_t> peer_slot_;  ///< m entries, kNoSwitch when unset
  std::vector<std::uint8_t> is_neighbor_;  ///< m entries
};

}  // namespace orp
