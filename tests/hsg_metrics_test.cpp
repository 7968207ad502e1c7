// Tests for h-ASPL / diameter computation, including agreement between the
// one-BFS-per-source oracle and the bit-parallel kernel on randomized graphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <vector>

#include "common/prng.hpp"
#include "common/thread_pool.hpp"
#include "hsg/distance.hpp"
#include "hsg/metrics.hpp"
#include "obs/metrics.hpp"
#include "oracle/metrics_scalar.hpp"
#include "search/clique.hpp"
#include "search/random_init.hpp"

namespace orp {
namespace {

HostSwitchGraph single_switch(std::uint32_t n, std::uint32_t r) {
  HostSwitchGraph g(n, 1, r);
  for (HostId h = 0; h < n; ++h) g.attach_host(h, 0);
  return g;
}

// The Fig. 1 example: n=16, m=4, r=6, switches in a cycle with one chord.
HostSwitchGraph path_of_switches(std::uint32_t hosts_per_switch, std::uint32_t m,
                                 std::uint32_t r) {
  HostSwitchGraph g(hosts_per_switch * m, m, r);
  HostId h = 0;
  for (SwitchId s = 0; s < m; ++s) {
    for (std::uint32_t i = 0; i < hosts_per_switch; ++i) g.attach_host(h++, s);
  }
  for (SwitchId s = 0; s + 1 < m; ++s) g.add_switch_edge(s, s + 1);
  return g;
}

TEST(HostMetrics, SingleSwitchIsAllPairsTwo) {
  const auto g = single_switch(8, 10);
  const auto metrics = compute_host_metrics(g);
  EXPECT_DOUBLE_EQ(metrics.h_aspl, 2.0);
  EXPECT_EQ(metrics.diameter, 2u);
  EXPECT_TRUE(metrics.connected);
  EXPECT_EQ(metrics.total_length, 2u * (8 * 7 / 2));
}

TEST(HostMetrics, SingleHostPairOnOneSwitch) {
  const auto g = single_switch(2, 4);
  const auto metrics = compute_host_metrics(g);
  EXPECT_DOUBLE_EQ(metrics.h_aspl, 2.0);
  EXPECT_EQ(metrics.diameter, 2u);
}

TEST(HostMetrics, OneHostHasZeroMetrics) {
  const auto g = single_switch(1, 4);
  const auto metrics = compute_host_metrics(g);
  EXPECT_DOUBLE_EQ(metrics.h_aspl, 0.0);
  EXPECT_EQ(metrics.diameter, 0u);
}

TEST(HostMetrics, PathOfSwitchesHandComputed) {
  // 2 hosts on each of 3 switches in a path: distances are 2 (same switch),
  // 3 (adjacent switches), 4 (ends). Pairs: same-switch 3*1, adjacent
  // 2*(2*2)=8 at 3, ends 2*2=4 at 4.
  const auto g = path_of_switches(2, 3, 6);
  const auto metrics = compute_host_metrics(g);
  const double expected = (3 * 2.0 + 8 * 3.0 + 4 * 4.0) / 15.0;
  EXPECT_DOUBLE_EQ(metrics.h_aspl, expected);
  EXPECT_EQ(metrics.diameter, 4u);
}

TEST(HostMetrics, DetectsDisconnectedHosts) {
  HostSwitchGraph g(2, 2, 4);
  g.attach_host(0, 0);
  g.attach_host(1, 1);
  const auto metrics = compute_host_metrics(g);
  EXPECT_FALSE(metrics.connected);
  // The only pair is split, so there is no connected pair to average over.
  EXPECT_EQ(metrics.connected_pairs, 0u);
  EXPECT_EQ(metrics.unreachable_pairs, 1u);
  EXPECT_TRUE(std::isinf(metrics.h_aspl));
  EXPECT_EQ(metrics.diameter, HostMetrics::kUnreachable);
}

TEST(HostMetrics, SplitGraphAveragesOverConnectedPairs) {
  // Two components: {s0-s1} carrying hosts 0,1,2 and {s2} carrying host 3.
  // Connected pairs: (0,1) same switch at 2, (0,2)/(1,2) across the edge at
  // 3. The three pairs touching host 3 are unreachable.
  HostSwitchGraph g(4, 3, 6);
  g.attach_host(0, 0);
  g.attach_host(1, 0);
  g.attach_host(2, 1);
  g.attach_host(3, 2);
  g.add_switch_edge(0, 1);
  const auto metrics = compute_host_metrics(g);
  EXPECT_FALSE(metrics.connected);
  EXPECT_EQ(metrics.connected_pairs, 3u);
  EXPECT_EQ(metrics.unreachable_pairs, 3u);
  EXPECT_EQ(metrics.total_length, 2u + 3u + 3u);
  EXPECT_DOUBLE_EQ(metrics.h_aspl, 8.0 / 3.0);
  EXPECT_EQ(metrics.diameter, 3u);
}

TEST(HostMetrics, IsolatedSwitchPairStaysConnectedAtDistanceTwo) {
  // Both hosts share the isolated switch: the pair is connected (distance
  // 2) even though the switch graph is split.
  HostSwitchGraph g(4, 3, 6);
  g.attach_host(0, 0);
  g.attach_host(1, 1);
  g.attach_host(2, 2);
  g.attach_host(3, 2);
  g.add_switch_edge(0, 1);
  const auto metrics = compute_host_metrics(g);
  EXPECT_FALSE(metrics.connected);
  EXPECT_EQ(metrics.connected_pairs, 2u);   // (0,1) and (2,3)
  EXPECT_EQ(metrics.unreachable_pairs, 4u);
  EXPECT_EQ(metrics.total_length, 3u + 2u);
  EXPECT_DOUBLE_EQ(metrics.h_aspl, 2.5);
  EXPECT_EQ(metrics.diameter, 3u);
}

TEST(HostMetrics, LiveMetricsToleratesDetachedHosts) {
  // Host 2 is detached (its switch died): live metrics run over the two
  // attached hosts only, while the strict entry point still throws.
  HostSwitchGraph g(3, 2, 4);
  g.attach_host(0, 0);
  g.attach_host(1, 1);
  g.add_switch_edge(0, 1);
  EXPECT_THROW(compute_host_metrics(g), std::invalid_argument);
  const auto live = compute_live_host_metrics(g);
  EXPECT_TRUE(live.connected);
  EXPECT_EQ(live.connected_pairs, 1u);
  EXPECT_EQ(live.unreachable_pairs, 0u);
  EXPECT_DOUBLE_EQ(live.h_aspl, 3.0);
  EXPECT_EQ(live.diameter, 3u);
}

TEST(HostMetrics, LiveMetricsWithUnderTwoAttachedHostsIsZero) {
  HostSwitchGraph g(3, 2, 4);
  g.attach_host(0, 0);
  const auto live = compute_live_host_metrics(g);
  EXPECT_DOUBLE_EQ(live.h_aspl, 0.0);
  EXPECT_EQ(live.diameter, 0u);
  EXPECT_EQ(live.connected_pairs, 0u);
  EXPECT_EQ(live.unreachable_pairs, 0u);
}

TEST(HostMetrics, UnusedSwitchOffPathDoesNotAffectHaspl) {
  // Hosts on switches 0 and 1 (adjacent); switch 2 dangles off switch 1.
  HostSwitchGraph g(2, 3, 4);
  g.attach_host(0, 0);
  g.attach_host(1, 1);
  g.add_switch_edge(0, 1);
  g.add_switch_edge(1, 2);
  const auto metrics = compute_host_metrics(g);
  EXPECT_TRUE(metrics.connected);
  EXPECT_DOUBLE_EQ(metrics.h_aspl, 3.0);
  EXPECT_EQ(metrics.diameter, 3u);
}

TEST(HostMetrics, RequiresFullAttachment) {
  HostSwitchGraph g(2, 1, 4);
  g.attach_host(0, 0);
  EXPECT_THROW(compute_host_metrics(g), std::invalid_argument);
}

TEST(HostMetrics, MatchesCliqueClosedForm) {
  for (std::uint32_t n : {20u, 64u, 128u}) {
    const std::uint32_t r = 24;
    const auto g = build_clique_graph(n, r);
    const auto metrics = compute_host_metrics(g);
    EXPECT_NEAR(metrics.h_aspl, clique_haspl(n, r), 1e-12) << "n=" << n;
  }
}

TEST(SwitchMetrics, RingOfFive) {
  HostSwitchGraph g(1, 5, 4);
  g.attach_host(0, 0);
  for (SwitchId s = 0; s < 5; ++s) g.add_switch_edge(s, (s + 1) % 5);
  const auto metrics = compute_switch_metrics(g);
  EXPECT_DOUBLE_EQ(metrics.aspl, 1.5);  // per vertex: 1,1,2,2
  EXPECT_EQ(metrics.diameter, 2u);
}

TEST(SwitchMetrics, DisconnectedSwitchGraph) {
  // Switches 2 and 3 are isolated: the only reachable pair is (0,1).
  HostSwitchGraph g(1, 4, 4);
  g.attach_host(0, 0);
  g.add_switch_edge(0, 1);
  const auto metrics = compute_switch_metrics(g);
  EXPECT_FALSE(metrics.connected);
  EXPECT_EQ(metrics.connected_pairs, 1u);
  EXPECT_EQ(metrics.unreachable_pairs, 5u);
  EXPECT_DOUBLE_EQ(metrics.aspl, 1.0);
  EXPECT_EQ(metrics.diameter, 1u);
  EXPECT_EQ(metrics.total_length, 1u);
}

// Property sweep: the bit-parallel kernel agrees exactly with the scalar
// oracle on randomized graphs of many shapes (small m included), serial
// and pooled.
//
// gtest names each case by the raw bytes of its parameter, so the 4 bytes
// an aggregate would leave as padding before `seed` are a zeroed member:
// the case names stay the same from build to build.
struct KernelCase {
  constexpr KernelCase(std::uint32_t n_, std::uint32_t m_, std::uint32_t r_,
                       std::uint64_t seed_)
      : n(n_), m(m_), r(r_), seed(seed_) {}
  std::uint32_t n, m, r;
  std::uint32_t zero = 0;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<KernelCase>);

class KernelAgreement : public ::testing::TestWithParam<KernelCase> {};

// random_host_switch_graph leaves the highest switch ids hostless when
// n < m. Renaming switch s to 5s mod m spreads them over the whole id range,
// so the metric kernel's source list (host-bearing switches only) skips ids
// inside its 64-source blocks, which then straddle the matrix's id blocks.
HostSwitchGraph spread_hostless_switches(const HostSwitchGraph& g) {
  const std::uint32_t m = g.num_switches();
  EXPECT_NE(m % 5, 0u);
  const auto id = [m](SwitchId s) { return static_cast<SwitchId>(5ull * s % m); };
  HostSwitchGraph out(g.num_hosts(), m, g.radix());
  for (HostId h = 0; h < g.num_hosts(); ++h) out.attach_host(h, id(g.host_switch(h)));
  for (SwitchId a = 0; a < m; ++a) {
    for (const SwitchId b : g.neighbors(a)) {
      if (a < b) out.add_switch_edge(id(a), id(b));
    }
  }
  return out;
}

// The matrix sink's view of the host metrics: host-weighted sums over
// switch_distance_matrix(g).
HostMetrics host_metrics_from_matrix(const HostSwitchGraph& g) {
  const std::uint32_t m = g.num_switches();
  const std::vector<std::uint16_t> dist = switch_distance_matrix(g);
  std::uint64_t ordered = 0, unreached = 0;
  std::uint32_t max_d = 0;
  for (SwitchId s = 0; s < m; ++s) {
    for (SwitchId t = 0; t < m; ++t) {
      const std::uint64_t w = std::uint64_t{g.hosts_on(s)} * g.hosts_on(t);
      if (w == 0) continue;
      const std::uint16_t d = dist[std::size_t{s} * m + t];
      if (d == kNoDistance) {
        unreached += w;
      } else {
        ordered += w * d;
        max_d = std::max<std::uint32_t>(max_d, d);
      }
    }
  }
  const std::uint64_t n = g.num_hosts();
  HostMetrics result;
  result.unreachable_pairs = unreached / 2;
  result.connected_pairs = n * (n - 1) / 2 - result.unreachable_pairs;
  result.total_length = ordered / 2 + 2 * result.connected_pairs;
  result.diameter = max_d + 2;
  return result;
}

TEST_P(KernelAgreement, ScalarReferenceAndBitParallelMatch) {
  const auto param = GetParam();
  Xoshiro256 rng(param.seed);
  auto g = random_host_switch_graph(param.n, param.m, param.r, rng);
  if (param.n < param.m) {
    g = spread_hostless_switches(g);
    std::uint32_t hostless = 0;
    for (SwitchId s = 0; s < param.m; ++s) hostless += g.hosts_on(s) == 0;
    EXPECT_GT(hostless, 0u);
  }
  const auto scalar = compute_host_metrics_scalar(g);
  const auto bits = compute_host_metrics(g);
  EXPECT_EQ(scalar.total_length, bits.total_length);
  EXPECT_EQ(scalar.diameter, bits.diameter);
  EXPECT_EQ(scalar.connected, bits.connected);
  EXPECT_EQ(scalar.connected_pairs, bits.connected_pairs);
  EXPECT_EQ(scalar.unreachable_pairs, bits.unreachable_pairs);

  ThreadPool pool(3);
  const auto pooled = compute_host_metrics(g, &pool);
  EXPECT_EQ(scalar.total_length, pooled.total_length);
  EXPECT_EQ(scalar.diameter, pooled.diameter);

  const auto sw_scalar = compute_switch_metrics_scalar(g);
  const auto sw_bits = compute_switch_metrics(g);
  EXPECT_EQ(sw_scalar.total_length, sw_bits.total_length);
  EXPECT_EQ(sw_scalar.diameter, sw_bits.diameter);

  // The kernel's two sinks, the matrix writer and the pair-sum
  // accumulator, see the same distances.
  const auto from_matrix = host_metrics_from_matrix(g);
  EXPECT_EQ(from_matrix.total_length, bits.total_length);
  EXPECT_EQ(from_matrix.diameter, bits.diameter);
  EXPECT_EQ(from_matrix.connected_pairs, bits.connected_pairs);
  EXPECT_EQ(from_matrix.unreachable_pairs, bits.unreachable_pairs);
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, KernelAgreement,
    ::testing::Values(KernelCase{16, 4, 6, 1}, KernelCase{60, 10, 8, 2},
                      KernelCase{100, 30, 10, 3}, KernelCase{128, 70, 6, 4},
                      KernelCase{256, 80, 12, 5}, KernelCase{200, 130, 5, 6},
                      KernelCase{512, 100, 16, 7}, KernelCase{64, 64, 4, 8},
                      KernelCase{300, 65, 13, 9}, KernelCase{96, 12, 24, 10},
                      // Fewer than 64 switches (one partial source block):
                      KernelCase{24, 6, 8, 11}, KernelCase{256, 55, 12, 12},
                      KernelCase{10, 3, 6, 13}, KernelCase{128, 18, 12, 14},
                      // Hostless switches spread over the ids (n < m), with
                      // two and three 64-source blocks:
                      KernelCase{100, 129, 6, 15}, KernelCase{150, 191, 6, 16}));

// The unreached-pair accounting must agree between kernels too: isolate a
// few switches of a random graph and cross-check every field.
TEST(HostMetrics, KernelsAgreeOnSplitGraphs) {
  for (std::uint64_t seed : {21ull, 22ull, 23ull}) {
    Xoshiro256 rng(seed);
    auto g = random_host_switch_graph(96, 24, 8, rng);
    for (SwitchId s : {SwitchId{0}, SwitchId{7}, SwitchId{13}}) {
      const auto nbrs = g.neighbors(s);
      const std::vector<SwitchId> frozen(nbrs.begin(), nbrs.end());
      for (SwitchId t : frozen) g.remove_switch_edge(s, t);
    }
    const auto scalar = compute_host_metrics_scalar(g);
    const auto bits = compute_host_metrics(g);
    EXPECT_EQ(scalar.total_length, bits.total_length) << "seed=" << seed;
    EXPECT_EQ(scalar.diameter, bits.diameter) << "seed=" << seed;
    EXPECT_EQ(scalar.connected, bits.connected) << "seed=" << seed;
    EXPECT_EQ(scalar.connected_pairs, bits.connected_pairs) << "seed=" << seed;
    EXPECT_EQ(scalar.unreachable_pairs, bits.unreachable_pairs)
        << "seed=" << seed;
    EXPECT_GT(bits.unreachable_pairs, 0u) << "seed=" << seed;

    ThreadPool pool(3);
    const auto pooled = compute_host_metrics(g, &pool);
    EXPECT_EQ(scalar.total_length, pooled.total_length) << "seed=" << seed;
    EXPECT_EQ(scalar.unreachable_pairs, pooled.unreachable_pairs)
        << "seed=" << seed;

    const auto sw_scalar = compute_switch_metrics_scalar(g);
    const auto sw_bits = compute_switch_metrics(g);
    EXPECT_EQ(sw_scalar.total_length, sw_bits.total_length) << "seed=" << seed;
    EXPECT_EQ(sw_scalar.diameter, sw_bits.diameter) << "seed=" << seed;
    EXPECT_EQ(sw_scalar.connected_pairs, sw_bits.connected_pairs)
        << "seed=" << seed;
    EXPECT_EQ(sw_scalar.unreachable_pairs, sw_bits.unreachable_pairs)
        << "seed=" << seed;
  }
}

// Every metric call runs the bit-parallel kernel, even far below 64
// switches (asserted via its obs call counter).
TEST(HostMetrics, AutoAlwaysResolvesToBitParallel) {
  auto& bits = obs::Registry::global().counter("aspl.kernel.bitparallel.calls");
  const auto bits_before = bits.value();
  Xoshiro256 rng(42);
  const auto g = random_host_switch_graph(24, 6, 8, rng);
  compute_host_metrics(g);
  compute_switch_metrics(g);
  EXPECT_EQ(bits.value(), bits_before + 2);
}

// Eq. (1) consistency: for a regular host-switch graph, the h-ASPL derived
// from the switch ASPL matches the directly computed h-ASPL.
TEST(HostMetrics, EquationOneHoldsOnRegularGraphs) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    Xoshiro256 rng(seed);
    const std::uint32_t n = 120, m = 30, r = 10;
    const auto g = random_regular_host_switch_graph(n, m, r, rng);
    // Regular: every switch carries n/m hosts.
    for (SwitchId s = 0; s < m; ++s) ASSERT_EQ(g.hosts_on(s), n / m);
    const auto host = compute_host_metrics(g);
    const auto sw = compute_switch_metrics(g);
    ASSERT_TRUE(host.connected);
    const double mn = static_cast<double>(m) * n;
    const double derived = sw.aspl * (mn - n) / (mn - m) + 2.0;
    EXPECT_NEAR(host.h_aspl, derived, 1e-9) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace orp
