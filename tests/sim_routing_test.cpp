// Tests for shortest-path routing: minimality, determinism, port-stable
// link ids, and agreement with the per-destination BFS oracle
// (tests/oracle/routing.hpp) on static graphs and under in-place updates.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>

#include "common/prng.hpp"
#include "hsg/metrics.hpp"
#include "oracle/routing.hpp"
#include "search/random_init.hpp"
#include "sim/machine.hpp"
#include "sim/routing.hpp"
#include "topo/dragonfly.hpp"
#include "topo/fattree.hpp"
#include "topo/torus.hpp"

namespace orp {
namespace {

HostSwitchGraph line_graph() {
  // host0 - s0 - s1 - s2 - host1
  HostSwitchGraph g(2, 3, 4);
  g.attach_host(0, 0);
  g.attach_host(1, 2);
  g.add_switch_edge(0, 1);
  g.add_switch_edge(1, 2);
  return g;
}

TEST(Routing, PathAlongALine) {
  const auto g = line_graph();
  const RoutingTable routes(g);
  std::vector<LinkId> path;
  const auto hops = routes.append_host_path(0, 1, path);
  EXPECT_EQ(hops, 4u);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path[0], routes.host_uplink(0));
  EXPECT_EQ(path[1], routes.switch_link(0, 1));
  EXPECT_EQ(path[2], routes.switch_link(1, 2));
  EXPECT_EQ(path[3], routes.host_downlink(1));
}

TEST(Routing, LinkIdsAreUniqueAndDirected) {
  const auto g = line_graph();
  const RoutingTable routes(g);
  // 2 hosts * 2 host links + one link per port slot: each switch owns
  // min(radix - hosts, m - 1) = 2 slots, so 4 + 3 * 2 = 10 link ids.
  EXPECT_EQ(routes.num_links(), 10u);
  std::set<LinkId> ids{routes.host_uplink(0), routes.host_downlink(0),
                       routes.host_uplink(1), routes.host_downlink(1),
                       routes.switch_link(0, 1), routes.switch_link(1, 0),
                       routes.switch_link(1, 2), routes.switch_link(2, 1)};
  EXPECT_EQ(ids.size(), 8u);
}

TEST(Routing, HopCountMatchesGraphDistanceEverywhere) {
  Xoshiro256 rng(3);
  const auto g = random_host_switch_graph(60, 15, 8, rng);
  const RoutingTable routes(g);
  // Route length must equal l(h_i, h_j) = d(s_i, s_j) + 2 for every pair.
  for (HostId a = 0; a < g.num_hosts(); ++a) {
    for (HostId b = 0; b < g.num_hosts(); ++b) {
      if (a == b) continue;
      std::vector<LinkId> path;
      const auto hops = routes.append_host_path(a, b, path);
      EXPECT_EQ(hops,
                routes.switch_distance(g.host_switch(a), g.host_switch(b)) + 2);
    }
  }
}

TEST(Routing, SameSwitchPairIsTwoHops) {
  HostSwitchGraph g(2, 1, 4);
  g.attach_host(0, 0);
  g.attach_host(1, 0);
  const RoutingTable routes(g);
  std::vector<LinkId> path;
  EXPECT_EQ(routes.append_host_path(0, 1, path), 2u);
}

TEST(Routing, DeterministicTieBreak) {
  // Square of switches: two shortest paths from s0 to s3; the lowest-id
  // next hop (s1) must win.
  HostSwitchGraph g(2, 4, 4);
  g.attach_host(0, 0);
  g.attach_host(1, 3);
  g.add_switch_edge(0, 1);
  g.add_switch_edge(0, 2);
  g.add_switch_edge(1, 3);
  g.add_switch_edge(2, 3);
  const RoutingTable routes(g);
  std::vector<LinkId> path;
  routes.append_host_path(0, 1, path);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path[1], routes.switch_link(0, 1));
  EXPECT_EQ(path[2], routes.switch_link(1, 3));
}

TEST(Routing, FatTreeDistances) {
  const auto g = build_fattree(FatTreeParams{4}, 16);
  const RoutingTable routes(g);
  std::vector<LinkId> path;
  // Hosts 0 and 1 share edge switch 0 (round-robin: host h -> edge h%8).
  // Instead derive pairs from the graph to be robust to attachment order.
  HostId same_a = 0, same_b = 0, cross_a = 0, cross_b = 0;
  for (HostId a = 0; a < 16 && (same_a == same_b || cross_a == cross_b); ++a) {
    for (HostId b = a + 1; b < 16; ++b) {
      if (g.host_switch(a) == g.host_switch(b)) {
        same_a = a;
        same_b = b;
      } else if (g.host_switch(a) / 2 != g.host_switch(b) / 2) {
        cross_a = a;
        cross_b = b;  // different pods
      }
    }
  }
  path.clear();
  EXPECT_EQ(routes.append_host_path(same_a, same_b, path), 2u);
  path.clear();
  EXPECT_EQ(routes.append_host_path(cross_a, cross_b, path), 6u);
}

TEST(Routing, TorusUsesMinimalRoutes) {
  const auto g = build_torus(TorusParams{2, 5, 8}, 25);
  const RoutingTable routes(g);
  const auto metrics = compute_switch_metrics(g);
  std::uint32_t max_dist = 0;
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    for (SwitchId t = 0; t < g.num_switches(); ++t) {
      if (s != t) max_dist = std::max(max_dist, routes.switch_distance(s, t));
    }
  }
  EXPECT_EQ(max_dist, metrics.diameter);
}

TEST(Routing, RejectsDetachedHosts) {
  HostSwitchGraph g(2, 1, 4);
  g.attach_host(0, 0);
  EXPECT_THROW(RoutingTable{g}, std::invalid_argument);
}

// ---- differential tests against the per-destination BFS oracle ----------

// A link named by what it connects, so tables with different id layouts
// compare: host links by id (both layouts share [0, 2n)), switch links by
// their (from, to) switch pair.
using Cable = std::pair<std::uint64_t, std::uint64_t>;

template <class Table>
std::vector<Cable> cables(const Table& table, std::uint32_t n,
                          const std::vector<LinkId>& path) {
  std::vector<Cable> out;
  for (const LinkId l : path) {
    if (l < 2 * n) {
      out.emplace_back(~std::uint64_t{0}, l);
    } else {
      const auto [a, b] = table.switch_link_ends(l);
      out.emplace_back(a, b);
    }
  }
  return out;
}

// Every (s, t): distance, next hop, next link, equal-cost count; every host
// pair: the deterministic route and ECMP routes under several keys.
void expect_routes_match_oracle(const HostSwitchGraph& g, const RoutingTable& routes) {
  const ReferenceRoutingTable oracle(g);
  const std::uint32_t m = g.num_switches();
  const std::uint32_t n = g.num_hosts();
  for (SwitchId s = 0; s < m; ++s) {
    for (SwitchId t = 0; t < m; ++t) {
      const std::uint32_t expected = oracle.switch_distance(s, t);
      ASSERT_EQ(routes.switch_distance(s, t),
                expected == ReferenceRoutingTable::kUnreachable ? kNoDistance : expected)
          << s << "->" << t;
      ASSERT_EQ(routes.equal_cost_next_hops(s, t), oracle.equal_cost_next_hops(s, t))
          << s << "->" << t;
      if (s == t || expected == ReferenceRoutingTable::kUnreachable) continue;
      const std::vector<SwitchId> path = routes.switch_path(s, t);
      ASSERT_EQ(path.size(), expected + 1u);
      ASSERT_EQ(path[1], oracle.next_hop(s, t)) << s << "->" << t;
      ASSERT_EQ(routes.switch_link_ends(routes.switch_link(s, path[1])),
                oracle.switch_link_ends(oracle.next_link(s, t)));
    }
  }
  for (HostId a = 0; a < n; ++a) {
    for (HostId b = 0; b < n; ++b) {
      if (a == b) continue;
      std::vector<LinkId> got, want;
      const std::uint32_t hops = routes.try_append_host_path(a, b, got);
      if (oracle.switch_distance(g.host_switch(a), g.host_switch(b)) ==
          ReferenceRoutingTable::kUnreachable) {
        ASSERT_EQ(hops, 0u);
        ASSERT_FALSE(routes.hosts_connected(a, b));
        continue;
      }
      ASSERT_EQ(hops, oracle.append_host_path(a, b, want));
      ASSERT_EQ(cables(routes, n, got), cables(oracle, n, want)) << a << "->" << b;
      for (const std::uint64_t key : {1ULL, 7ULL, 0xdeadbeefULL, 0x123456789abcULL}) {
        got.clear();
        want.clear();
        ASSERT_EQ(routes.append_host_path_ecmp(a, b, key, got),
                  oracle.append_host_path_ecmp(a, b, key, want));
        ASSERT_EQ(cables(routes, n, got), cables(oracle, n, want))
            << a << "->" << b << " key " << key;
      }
    }
  }
}

TEST(RoutingOracle, IrregularRandomGraphsMatch) {
  struct Size {
    std::uint32_t n, m, r;
  };
  for (const Size& size : {Size{40, 12, 8}, Size{64, 20, 10}, Size{30, 30, 5}}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Xoshiro256 rng(seed);
      const auto g = random_host_switch_graph(size.n, size.m, size.r, rng);
      SCOPED_TRACE("n=" + std::to_string(size.n) + " m=" + std::to_string(size.m) +
                   " seed=" + std::to_string(seed));
      ASSERT_NO_FATAL_FAILURE(expect_routes_match_oracle(g, RoutingTable(g)));
    }
  }
}

TEST(RoutingOracle, RegularRandomGraphsMatch) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Xoshiro256 rng(seed);
    const auto a = random_regular_host_switch_graph(48, 12, 8, rng);
    ASSERT_NO_FATAL_FAILURE(expect_routes_match_oracle(a, RoutingTable(a)));
    const auto b = random_regular_host_switch_graph(60, 20, 7, rng);
    ASSERT_NO_FATAL_FAILURE(expect_routes_match_oracle(b, RoutingTable(b)));
  }
}

TEST(RoutingOracle, TieHeavyTopologiesMatch) {
  // Tori, a fat-tree and a dragonfly: many equal-cost next hops per pair.
  const std::vector<HostSwitchGraph> graphs = {
      build_torus(TorusParams{2, 5, 8}, 25), build_torus(TorusParams{3, 3, 10}, 54),
      build_torus(TorusParams{4, 2, 8}, 32), build_fattree(FatTreeParams{4}, 16),
      build_dragonfly(DragonflyParams{4}, 60)};
  for (const HostSwitchGraph& g : graphs) {
    ASSERT_NO_FATAL_FAILURE(expect_routes_match_oracle(g, RoutingTable(g)));
  }
}

TEST(RoutingOracle, DegradedAndDisconnectedGraphsMatch) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Xoshiro256 rng(seed);
    auto g = random_host_switch_graph(48, 16, 7, rng);
    // Cut ~30% of the cables, then isolate one switch outright.
    std::vector<std::pair<SwitchId, SwitchId>> edges;
    for (SwitchId s = 0; s < g.num_switches(); ++s) {
      for (const SwitchId t : g.neighbors(s)) {
        if (s < t) edges.emplace_back(s, t);
      }
    }
    for (const auto& [s, t] : edges) {
      if (rng() % 10 < 3) g.remove_switch_edge(s, t);
    }
    const auto victim = static_cast<SwitchId>(rng() % g.num_switches());
    const auto span = g.neighbors(victim);
    for (const SwitchId t : std::vector<SwitchId>(span.begin(), span.end())) {
      g.remove_switch_edge(victim, t);
    }
    ASSERT_FALSE(g.switches_connected());
    ASSERT_NO_FATAL_FAILURE(expect_routes_match_oracle(g, RoutingTable(g)));
  }
}

// ---- port-stable link ids ----------------------------------------------

TEST(RoutingUpdate, RepairedCableTakesBackItsSlotAndNewCableAFreeOne) {
  // Five switches with one host each and radix 4: three slots per switch.
  HostSwitchGraph g(5, 5, 4);
  for (HostId h = 0; h < 5; ++h) g.attach_host(h, h);
  g.add_switch_edge(0, 1);
  g.add_switch_edge(0, 2);
  g.add_switch_edge(1, 2);
  g.add_switch_edge(2, 3);
  g.add_switch_edge(3, 4);
  RoutingTable routes(g);
  const std::uint32_t num_links = routes.num_links();
  EXPECT_EQ(num_links, 2u * 5u + 5u * 3u);
  const LinkId id01 = routes.switch_link(0, 1);
  const LinkId id02 = routes.switch_link(0, 2);
  const LinkId id23 = routes.switch_link(2, 3);
  // Construction: slots in sorted-neighbour order.
  EXPECT_EQ(id02, id01 + 1);

  g.remove_switch_edge(0, 1);
  routes.update(g);
  EXPECT_EQ(routes.switch_distance(0, 1), 2u);  // detour via s2
  EXPECT_TRUE(routes.died_in_last_update(id01));
  EXPECT_FALSE(routes.died_in_last_update(id02));
  EXPECT_EQ(routes.switch_link(0, 2), id02);
  EXPECT_EQ(routes.switch_link(2, 3), id23);
  EXPECT_EQ(routes.switch_link_ends(id01), std::make_pair(SwitchId{0}, SwitchId{1}));

  // A new cable takes s0's never-used third slot, not the dead one.
  g.add_switch_edge(0, 3);
  routes.update(g);
  const LinkId id03 = routes.switch_link(0, 3);
  EXPECT_EQ(id03, id01 + 2);
  EXPECT_FALSE(routes.died_in_last_update(id01));  // died one update ago

  // The repaired cable gets its old slot back; the id count never changes.
  g.add_switch_edge(0, 1);
  routes.update(g);
  EXPECT_EQ(routes.switch_link(0, 1), id01);
  EXPECT_EQ(routes.num_links(), num_links);

  // s0 is full now. Losing 0-1 and gaining 0-4 in one update hands 0-4 the
  // only free slot, the dead one, which still counts as having died.
  g.remove_switch_edge(0, 1);
  g.remove_switch_edge(3, 4);
  g.add_switch_edge(0, 4);
  routes.update(g);
  EXPECT_EQ(routes.switch_link(0, 4), id01);
  EXPECT_TRUE(routes.died_in_last_update(id01));
  std::string why;
  EXPECT_TRUE(routes.self_check(g, &why)) << why;
  ASSERT_NO_FATAL_FAILURE(expect_routes_match_oracle(g, routes));
}

// Cable -> link id of every live switch link of `g` under `routes`.
std::map<std::pair<SwitchId, SwitchId>, LinkId> cable_ids(const HostSwitchGraph& g,
                                                          const RoutingTable& routes) {
  std::map<std::pair<SwitchId, SwitchId>, LinkId> ids;
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    for (const SwitchId t : g.neighbors(s)) ids[{s, t}] = routes.switch_link(s, t);
  }
  return ids;
}

TEST(RoutingUpdate, MachineRoutesLikeAFreshOracleThroughFaultsAndRepairs) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Xoshiro256 rng(seed);
    const HostSwitchGraph healthy = random_host_switch_graph(40, 12, 8, rng);
    Machine machine(healthy);
    std::vector<Message> ring;
    for (Rank r = 0; r < machine.num_ranks(); ++r) {
      ring.push_back({r, (r + 7) % machine.num_ranks(), 1u << 16});
    }
    const double span = machine.phase(ring);
    std::uint64_t applied = 0;
    for (int step = 0; step < 30; ++step) {
      const HostSwitchGraph& g = machine.graph();
      FaultEvent e;
      e.time = machine.now() + 0.4 * span;  // strikes mid-phase
      const auto a = static_cast<SwitchId>(rng() % g.num_switches());
      const auto b = static_cast<SwitchId>((a + 1 + rng() % (g.num_switches() - 1)) %
                                           g.num_switches());
      e.a = a;
      e.b = b;
      switch (rng() % 6) {
        case 0:
        case 1:
          e.kind = FaultEvent::Kind::kLinkDown;
          if (!g.neighbors(a).empty()) e.b = g.neighbors(a)[rng() % g.neighbors(a).size()];
          break;
        case 2:
        case 3:
          e.kind = FaultEvent::Kind::kLinkUp;
          break;
        case 4:
          e.kind = FaultEvent::Kind::kSwitchDown;
          break;
        default:
          e.kind = FaultEvent::Kind::kSwitchUp;
          break;
      }
      const auto before = cable_ids(g, machine.routes());
      machine.inject_faults({e});
      while (machine.fault_stats().events_applied == applied) machine.phase(ring);
      applied = machine.fault_stats().events_applied;

      SCOPED_TRACE("seed " + std::to_string(seed) + " step " + std::to_string(step));
      const RoutingTable& routes = machine.routes();
      std::string why;
      ASSERT_TRUE(routes.self_check(machine.graph(), &why)) << why;
      ASSERT_NO_FATAL_FAILURE(expect_routes_match_oracle(machine.graph(), routes));
      // Every cable that survived the event kept its id.
      for (const auto& [cable, id] : cable_ids(machine.graph(), routes)) {
        const auto it = before.find(cable);
        if (it != before.end()) {
          ASSERT_EQ(id, it->second);
        }
      }
      // No route crosses a dead link: every switch link of every route
      // names a cable of the current graph.
      for (HostId x = 0; x < healthy.num_hosts(); ++x) {
        for (HostId y = 0; y < healthy.num_hosts(); ++y) {
          std::vector<LinkId> path;
          if (x == y || routes.try_append_host_path(x, y, path) == 0) continue;
          for (const LinkId l : path) {
            if (l < 2 * healthy.num_hosts()) continue;
            const auto [from, to] = routes.switch_link_ends(l);
            ASSERT_TRUE(machine.graph().has_switch_edge(from, to)) << l;
          }
        }
      }
    }
    EXPECT_GT(machine.fault_stats().routing_rebuilds, 10u);
  }
}

}  // namespace
}  // namespace orp
