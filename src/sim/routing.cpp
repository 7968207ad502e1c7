#include "sim/routing.hpp"

#include <algorithm>

#include "common/prng.hpp"
#include "common/require.hpp"
#include "obs/metrics.hpp"

namespace orp {
namespace {

obs::Histogram& build_ns() {
  static obs::Histogram& histogram =
      obs::Registry::global().histogram("sim.routing.build_ns");
  return histogram;
}

}  // namespace

RoutingTable::RoutingTable(const HostSwitchGraph& g)
    : n_(g.num_hosts()), m_(g.num_switches()), radix_(g.radix()) {
  obs::ScopedTimer timer(build_ns());
  ORP_REQUIRE(g.fully_attached(), "routing needs every host attached");
  host_switch_.resize(n_);
  for (HostId h = 0; h < n_; ++h) host_switch_[h] = g.host_switch(h);

  slot_base_.resize(m_ + 1);
  std::uint32_t slots = 0;
  for (SwitchId s = 0; s < m_; ++s) {
    slot_base_[s] = slots;
    slots += std::min(radix_ - g.hosts_on(s), m_ - 1);
  }
  slot_base_[m_] = slots;
  num_links_ = 2 * n_ + slots;
  slot_peer_.assign(slots, kNoSwitch);
  slot_live_.assign(slots, 0);
  slot_death_.assign(slots, 0);
  peer_slot_.assign(m_, kNoSwitch);
  is_neighbor_.assign(m_, 0);
  adj_begin_.resize(m_ + 1);
  dist_.resize(static_cast<std::size_t>(m_) * m_);
  next_.resize(static_cast<std::size_t>(m_) * m_);

  sync_slots(g);
  compute_routes();
}

void RoutingTable::update(const HostSwitchGraph& g) {
  {
    obs::ScopedTimer timer(build_ns());
    ORP_REQUIRE(g.num_hosts() == n_ && g.num_switches() == m_ && g.radix() == radix_,
                "routing update needs the constructor graph's hosts, switches and radix");
    sync_slots(g);
    compute_routes();
  }
#ifndef NDEBUG
  std::string why;
  if (!self_check(g, &why)) {
    throw std::logic_error("routing update differs from a fresh build: " + why);
  }
#endif
}

void RoutingTable::sync_slots(const HostSwitchGraph& g) {
  ++epoch_;
  adj_.clear();
  for (SwitchId s = 0; s < m_; ++s) {
    const auto first = static_cast<std::uint32_t>(adj_.size());
    adj_begin_[s] = first;
    const std::uint32_t base = slot_base_[s];
    const std::uint32_t end = slot_base_[s + 1];
    ORP_REQUIRE(std::min(radix_ - g.hosts_on(s), m_ - 1) == end - base,
                "routing update needs the constructor graph's host attachment");
    const auto nbrs = g.neighbors(s);
    adj_.insert(adj_.end(), nbrs.begin(), nbrs.end());
    std::sort(adj_.begin() + first, adj_.end());
    const auto last = static_cast<std::uint32_t>(adj_.size());
    adj_link_.resize(last);
    for (std::uint32_t i = first; i < last; ++i) is_neighbor_[adj_[i]] = 1;

    // A slot stays (or comes back) live exactly when its cable is present;
    // a live slot whose cable is gone dies in this epoch.
    for (std::uint32_t k = base; k < end; ++k) {
      const SwitchId peer = slot_peer_[k];
      const bool live = peer != kNoSwitch && is_neighbor_[peer];
      if (slot_live_[k] && !live) slot_death_[k] = epoch_;
      slot_live_[k] = live;
      if (peer != kNoSwitch) peer_slot_[peer] = k;
    }
    for (std::uint32_t i = first; i < last; ++i) {
      const std::uint32_t k = peer_slot_[adj_[i]];
      adj_link_[i] = k == kNoSwitch ? kNoSwitch : 2 * n_ + k;
    }
    for (std::uint32_t k = base; k < end; ++k) {
      if (slot_peer_[k] != kNoSwitch) peer_slot_[slot_peer_[k]] = kNoSwitch;
    }
    for (std::uint32_t i = first; i < last; ++i) is_neighbor_[adj_[i]] = 0;

    // New cables: a never-used slot first, else the lowest dead one (whose
    // old cable then loses its claim). Live cables never outnumber slots.
    std::uint32_t never_used = base;
    for (std::uint32_t i = first; i < last; ++i) {
      if (adj_link_[i] != kNoSwitch) continue;
      while (never_used < end && slot_peer_[never_used] != kNoSwitch) ++never_used;
      std::uint32_t k = never_used;
      if (k == end) {
        k = base;
        while (k < end && slot_live_[k]) ++k;
      }
      ORP_ASSERT(k < end);
      slot_peer_[k] = adj_[i];
      slot_live_[k] = 1;
      adj_link_[i] = 2 * n_ + k;
    }
  }
  adj_begin_[m_] = static_cast<std::uint32_t>(adj_.size());
}

void RoutingTable::compute_routes() {
  all_pairs_switch_distances(
      m_,
      [this](SwitchId v) {
        return std::span<const SwitchId>(adj_.data() + adj_begin_[v],
                                         adj_begin_[v + 1] - adj_begin_[v]);
      },
      dist_.data(), kernel_scratch_);

  // Next hop of s toward t: the lowest-id neighbour u with D[u][t] + 1 ==
  // D[s][t]. Walking the sorted neighbours from highest to lowest and
  // overwriting leaves the lowest; the compare-and-select over restrict
  // rows vectorizes. In uint16 arithmetic an unreachable D[u][t] + 1 wraps
  // to 0, which matches only D[s][s] — never taken, as D[u][s] == 1.
  const std::size_t m = m_;
  for (SwitchId s = 0; s < m_; ++s) {
    std::uint16_t* __restrict pick = next_.data() + s * m;
    const std::uint16_t* __restrict ds = dist_.data() + s * m;
    std::fill(pick, pick + m, kNoDistance);
    for (std::uint32_t i = adj_begin_[s + 1]; i-- > adj_begin_[s];) {
      const std::uint16_t* __restrict du = dist_.data() + adj_[i] * m;
      const auto k = static_cast<std::uint16_t>(i - adj_begin_[s]);
      for (std::size_t t = 0; t < m; ++t) {
        pick[t] = static_cast<std::uint16_t>(du[t] + 1) == ds[t] ? k : pick[t];
      }
    }
  }
}

LinkId RoutingTable::switch_link(SwitchId a, SwitchId b) const {
  const auto begin = adj_.begin() + adj_begin_[a];
  const auto end = adj_.begin() + adj_begin_[a + 1];
  const auto it = std::lower_bound(begin, end, b);
  ORP_ASSERT(it != end && *it == b);
  return adj_link_[static_cast<std::size_t>(it - adj_.begin())];
}

std::pair<SwitchId, SwitchId> RoutingTable::switch_link_ends(LinkId l) const {
  ORP_REQUIRE(l >= 2 * n_ && l < num_links_, "not a switch link id");
  const std::uint32_t slot = l - 2 * n_;
  if (slot_peer_[slot] == kNoSwitch) return {kNoSwitch, kNoSwitch};
  const auto owner = std::upper_bound(slot_base_.begin(), slot_base_.end(), slot) - 1;
  return {static_cast<SwitchId>(owner - slot_base_.begin()), slot_peer_[slot]};
}

std::uint32_t RoutingTable::equal_cost_next_hops(SwitchId s, SwitchId t) const {
  if (s == t) return 0;
  const std::uint32_t ds = switch_distance(s, t);
  if (ds == kNoDistance) return 0;
  std::uint32_t count = 0;
  for (std::uint32_t i = adj_begin_[s]; i < adj_begin_[s + 1]; ++i) {
    if (switch_distance(adj_[i], t) + 1 == ds) ++count;
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
    const std::uint32_t ds = switch_distance(s, t);
    ORP_REQUIRE(ds != kNoDistance, "hosts are not connected");
    const std::uint32_t choices = equal_cost_next_hops(s, t);
    ORP_ASSERT(choices > 0);
    // SplitMix-style remix per hop so consecutive hops decorrelate.
    hash = splitmix64_next(hash);
    std::uint32_t pick = static_cast<std::uint32_t>(hash % choices);
    // Take the pick-th equal-cost neighbour in sorted order.
    std::uint32_t i = adj_begin_[s];
    for (; i < adj_begin_[s + 1]; ++i) {
      if (switch_distance(adj_[i], t) + 1 == ds) {
        if (pick == 0) break;
        --pick;
      }
    }
    ORP_ASSERT(i < adj_begin_[s + 1]);
    path.push_back(adj_link_[i]);
    s = adj_[i];
  }
  path.push_back(host_downlink(dst));
  return static_cast<std::uint32_t>(path.size() - before);
}

std::vector<SwitchId> RoutingTable::switch_path(SwitchId s, SwitchId t) const {
  ORP_REQUIRE(s < m_ && t < m_, "switch id out of range");
  std::vector<SwitchId> path{s};
  while (s != t) {
    const std::uint16_t k = next_[static_cast<std::size_t>(s) * m_ + t];
    ORP_REQUIRE(k != kNoDistance, "switches are not connected");
    s = adj_[adj_begin_[s] + k];
    path.push_back(s);
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
    const std::uint16_t k = next_[static_cast<std::size_t>(s) * m_ + t];
    ORP_REQUIRE(k != kNoDistance, "hosts are not connected");
    const std::uint32_t i = adj_begin_[s] + k;
    path.push_back(adj_link_[i]);
    s = adj_[i];
  }
  path.push_back(host_downlink(dst));
  return static_cast<std::uint32_t>(path.size() - before);
}

bool RoutingTable::self_check(const HostSwitchGraph& g, std::string* why) const {
  const auto fail = [&](const std::string& message) {
    if (why) *why = message;
    return false;
  };
  const RoutingTable fresh(g);
  if (fresh.host_switch_ != host_switch_) return fail("host attachment changed");
  if (fresh.slot_base_ != slot_base_) return fail("port slot layout changed");
  if (fresh.adj_ != adj_ || fresh.adj_begin_ != adj_begin_) {
    return fail("live adjacency differs from the graph");
  }
  if (fresh.dist_ != dist_) return fail("distance matrix differs");
  if (fresh.next_ != next_) return fail("next hops differ");
  for (SwitchId s = 0; s < m_; ++s) {
    std::uint32_t live = 0;
    for (std::uint32_t k = slot_base_[s]; k < slot_base_[s + 1]; ++k) {
      if (!slot_live_[k]) continue;
      ++live;
      const auto begin = adj_.begin() + adj_begin_[s];
      const auto end = adj_.begin() + adj_begin_[s + 1];
      if (!std::binary_search(begin, end, slot_peer_[k]) ||
          switch_link(s, slot_peer_[k]) != 2 * n_ + k) {
        return fail("live slot " + std::to_string(k) + " of switch " +
                    std::to_string(s) + " is not its cable's link");
      }
    }
    if (live != adj_begin_[s + 1] - adj_begin_[s]) {
      return fail("switch " + std::to_string(s) + " has " + std::to_string(live) +
                  " live slots for its cables");
    }
  }
  return true;
}

}  // namespace orp
