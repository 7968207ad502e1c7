// Tests for the conventional topology generators against the paper's
// Formulae 3 (torus), 4 (dragonfly), and 5 (fat-tree), the smallest-fabric
// sizing rule the comparison benches use, plus attachment policies.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "hsg/metrics.hpp"
#include "topo/dragonfly.hpp"
#include "topo/fattree.hpp"
#include "topo/torus.hpp"

namespace orp {
namespace {

// ---- torus -----------------------------------------------------------

TEST(Torus, PaperConfiguration5D) {
  // §6.3.1: K=5, N=3, r=15 -> m=243, capacity 1215.
  const TorusParams params{5, 3, 15};
  EXPECT_EQ(torus_switch_count(params), 243u);
  EXPECT_EQ(torus_link_degree(params), 10u);
  EXPECT_EQ(torus_host_capacity(params), 1215u);
  const auto g = build_torus(params, 1024);
  g.check_invariants();
  EXPECT_TRUE(g.switches_connected());
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    EXPECT_EQ(g.switch_degree(s), 10u);
  }
  EXPECT_TRUE(compute_host_metrics(g).connected);
}

TEST(Torus, RingIsACycle) {
  const TorusParams params{1, 6, 4};
  const auto g = build_torus(params, 6);
  EXPECT_EQ(g.num_switch_edges(), 6u);
  for (SwitchId s = 0; s < 6; ++s) {
    EXPECT_EQ(g.switch_degree(s), 2u);
    EXPECT_TRUE(g.has_switch_edge(s, (s + 1) % 6));
  }
}

TEST(Torus, TwoAryTorusHalvesDegree) {
  // base == 2: +1 and -1 neighbors coincide; degree is dims, not 2*dims.
  const TorusParams params{3, 2, 8};
  EXPECT_EQ(torus_link_degree(params), 3u);
  const auto g = build_torus(params, 8);
  for (SwitchId s = 0; s < g.num_switches(); ++s) EXPECT_EQ(g.switch_degree(s), 3u);
  EXPECT_EQ(g.num_switch_edges(), 8u * 3 / 2);
}

TEST(Torus, TwoDTorusHasKnownAspl) {
  // 3x3 torus: each switch reaches 4 at distance 1, 4 at distance 2.
  const TorusParams params{2, 3, 8};
  const auto g = build_torus(params, 9);
  const auto metrics = compute_switch_metrics(g);
  EXPECT_DOUBLE_EQ(metrics.aspl, 1.5);
  EXPECT_EQ(metrics.diameter, 2u);
}

TEST(Torus, RejectsOverCapacity) {
  const TorusParams params{5, 3, 15};
  EXPECT_THROW(build_torus(params, 1216), std::invalid_argument);
}

TEST(Torus, RejectsRadixBelowDegree) {
  const TorusParams params{5, 3, 10};
  EXPECT_THROW(torus_host_capacity(params), std::invalid_argument);
}

// ---- dragonfly --------------------------------------------------------

TEST(Dragonfly, PaperConfigurationA8) {
  // §6.3.2: a=8 -> h=p=4, g=33, m=264, r=15, capacity 1056.
  const DragonflyParams params{8};
  EXPECT_EQ(params.groups(), 33u);
  EXPECT_EQ(params.radix(), 15u);
  EXPECT_EQ(dragonfly_switch_count(params), 264u);
  EXPECT_EQ(dragonfly_host_capacity(params), 1056u);
  const auto g = build_dragonfly(params, 1024);
  g.check_invariants();
  EXPECT_TRUE(g.switches_connected());
  // Every switch: a-1 local + h global links.
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    EXPECT_EQ(g.switch_degree(s), 11u);
  }
}

TEST(Dragonfly, ExactlyOneLinkPerGroupPair) {
  const DragonflyParams params{4};  // a=4, h=2, g=9, m=36
  const auto g = build_dragonfly(params, 16);
  const std::uint32_t a = params.group_size;
  std::set<std::pair<std::uint32_t, std::uint32_t>> group_links;
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    for (SwitchId t : g.neighbors(s)) {
      const std::uint32_t gs = s / a, gt = t / a;
      if (gs < gt) group_links.insert({gs, gt});
    }
  }
  const std::uint32_t groups = params.groups();
  EXPECT_EQ(group_links.size(), groups * (groups - 1) / 2);
  // Global link count: g*(g-1)/2; intra: g * a(a-1)/2.
  EXPECT_EQ(g.num_switch_edges(),
            groups * (groups - 1) / 2 + groups * a * (a - 1) / 2);
}

TEST(Dragonfly, SwitchDiameterIsThree) {
  // Local hop + global hop + local hop.
  const auto g = build_dragonfly(DragonflyParams{8}, 1024);
  EXPECT_EQ(compute_switch_metrics(g).diameter, 3u);
}

TEST(Dragonfly, RejectsOddGroupSize) {
  EXPECT_THROW(dragonfly_switch_count(DragonflyParams{7}), std::invalid_argument);
}

TEST(Dragonfly, RejectsOverCapacity) {
  EXPECT_THROW(build_dragonfly(DragonflyParams{8}, 1057), std::invalid_argument);
}

// ---- fat-tree ---------------------------------------------------------

TEST(FatTree, PaperConfigurationK16) {
  // §6.3.3: K=16 -> m=320, r=16, n=1024.
  const FatTreeParams params{16};
  EXPECT_EQ(fattree_switch_count(params), 320u);
  EXPECT_EQ(fattree_host_capacity(params), 1024u);
  const auto g = build_fattree(params, 1024);
  g.check_invariants();
  EXPECT_TRUE(g.switches_connected());
  EXPECT_TRUE(g.fully_attached());
  // Edge switches: K/2 links + K/2 hosts; aggregation/core: K links.
  for (SwitchId s = 0; s < 128; ++s) {
    EXPECT_EQ(g.switch_degree(s), 8u);
    EXPECT_EQ(g.hosts_on(s), 8u);
  }
  for (SwitchId s = 128; s < 320; ++s) {
    EXPECT_EQ(g.switch_degree(s), 16u);
    EXPECT_EQ(g.hosts_on(s), 0u);
  }
}

TEST(FatTree, HostDistancesAreTwoFourSix) {
  const FatTreeParams params{4};  // 4 pods, 20 switches, 16 hosts
  const auto g = build_fattree(params, 16);
  const auto metrics = compute_host_metrics(g);
  EXPECT_EQ(metrics.diameter, 6u);
  // Same edge switch: 2; same pod: 4; cross-pod: 6. Eight edge switches
  // with 2 hosts each -> 8 pairs at 2; per pod one edge-switch pair with
  // 2*2 host pairs -> 16 pairs at 4; the remaining 120-8-16 = 96 pairs at 6.
  const double expected = (8 * 2.0 + 16 * 4.0 + 96 * 6.0) / 120.0;
  EXPECT_DOUBLE_EQ(metrics.h_aspl, expected);
}

TEST(FatTree, RejectsOddK) {
  EXPECT_THROW(fattree_switch_count(FatTreeParams{5}), std::invalid_argument);
}

TEST(FatTree, RejectsOverCapacity) {
  EXPECT_THROW(build_fattree(FatTreeParams{4}, 17), std::invalid_argument);
}

// ---- smallest fabric carrying n hosts -----------------------------------

TEST(SmallestFabric, MatchesTheBenchSizes) {
  // The baselines the comparison benches build at r = 12 and n = 64/256/1024.
  EXPECT_EQ(smallest_torus(3, 12, 64).base, 2u);    // 9 * 2^3 = 72
  EXPECT_EQ(smallest_torus(3, 12, 256).base, 4u);   // 6 * 4^3 = 384
  EXPECT_EQ(smallest_torus(3, 12, 1024).base, 6u);  // 6 * 6^3 = 1296
  const TorusParams torus = smallest_torus(3, 12, 1024);
  EXPECT_EQ(torus.dims, 3u);
  EXPECT_EQ(torus.radix, 12u);
  EXPECT_EQ(smallest_dragonfly(1024).group_size, 8u);  // capacity 1056
  EXPECT_EQ(smallest_fattree(1024).k, 16u);            // capacity 1024
  EXPECT_EQ(smallest_dragonfly(64).group_size, 4u);
  EXPECT_EQ(smallest_fattree(64).k, 8u);
}

TEST(SmallestFabric, IsTheLeastThatFits) {
  for (std::uint32_t n = 1; n <= 3000; n += 7) {
    const TorusParams torus = smallest_torus(3, 12, n);
    EXPECT_GE(torus_host_capacity(torus), n);
    if (torus.base > 2) {
      EXPECT_LT(torus_host_capacity(TorusParams{3, torus.base - 1, 12}), n);
    }
    const DragonflyParams dragonfly = smallest_dragonfly(n);
    EXPECT_GE(dragonfly_host_capacity(dragonfly), n);
    if (dragonfly.group_size > 2) {
      EXPECT_LT(dragonfly_host_capacity(DragonflyParams{dragonfly.group_size - 2}), n);
    }
    const FatTreeParams fattree = smallest_fattree(n);
    EXPECT_GE(fattree_host_capacity(fattree), n);
    if (fattree.k > 2) {
      EXPECT_LT(fattree_host_capacity(FatTreeParams{fattree.k - 2}), n);
    }
  }
}

TEST(SmallestFabric, LowRadixTorusKeepsBaseTwo) {
  // radix 6 = 2 * dims: only base 2 (3 links per switch) leaves host ports.
  EXPECT_EQ(smallest_torus(3, 6, 24).base, 2u);  // 3 * 2^3 = 24
}

TEST(SmallestFabric, UnreachableTorusThrowsAtOnce) {
  try {
    smallest_torus(3, 6, 64);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("3-D torus"), std::string::npos) << what;
    EXPECT_NE(what.find("radix 6"), std::string::npos) << what;
    EXPECT_NE(what.find("64 hosts"), std::string::npos) << what;
  }
  EXPECT_THROW(smallest_torus(3, 3, 1), std::invalid_argument);
  EXPECT_THROW(smallest_torus(0, 12, 1), std::invalid_argument);
}

// ---- attachment policies ---------------------------------------------

TEST(Attach, RoundRobinBalances) {
  const TorusParams params{2, 3, 8};  // 9 switches, 4 host ports each
  const auto g = build_torus(params, 13, AttachPolicy::kRoundRobin);
  std::uint32_t min_k = 0xffffffff, max_k = 0;
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    min_k = std::min(min_k, g.hosts_on(s));
    max_k = std::max(max_k, g.hosts_on(s));
  }
  EXPECT_EQ(min_k, 1u);
  EXPECT_EQ(max_k, 2u);
}

TEST(Attach, FillFirstConcentrates) {
  const TorusParams params{2, 3, 8};
  const auto g = build_torus(params, 13, AttachPolicy::kFillFirst);
  EXPECT_EQ(g.hosts_on(0), 4u);
  EXPECT_EQ(g.hosts_on(1), 4u);
  EXPECT_EQ(g.hosts_on(2), 4u);
  EXPECT_EQ(g.hosts_on(3), 1u);
  EXPECT_EQ(g.hosts_on(4), 0u);
}

TEST(Attach, DfsOrderVisitsAllHostsOnce) {
  const auto g = build_fattree(FatTreeParams{4}, 16);
  const auto order = dfs_host_order(g);
  ASSERT_EQ(order.size(), 16u);
  std::set<HostId> unique(order.begin(), order.end());
  EXPECT_EQ(unique.size(), 16u);
}

TEST(Attach, DfsOrderGroupsSwitchMates) {
  // Hosts on the same switch must be consecutive in DFS order.
  const auto g = build_fattree(FatTreeParams{4}, 16);
  const auto order = dfs_host_order(g);
  for (std::size_t i = 1; i < order.size(); ++i) {
    const SwitchId prev = g.host_switch(order[i - 1]);
    const SwitchId cur = g.host_switch(order[i]);
    if (prev == cur) continue;
    // once we leave a switch we never return
    for (std::size_t j = i + 1; j < order.size(); ++j) {
      EXPECT_NE(g.host_switch(order[j]), prev);
    }
  }
}

}  // namespace
}  // namespace orp
