// Tests for the fast fair-share solver, the fluid phase engine, and the
// collective algorithms (hand-computed timings on tiny networks).
#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <limits>

#include "common/prng.hpp"
#include "obs/metrics.hpp"
#include "oracle/fairshare.hpp"
#include "search/random_init.hpp"
#include "sim/machine.hpp"
#include "sim/nas.hpp"
#include "topo/fattree.hpp"
#include "topo/torus.hpp"

namespace orp {
namespace {

// Two hosts on one switch.
HostSwitchGraph pair_graph() {
  HostSwitchGraph g(2, 1, 4);
  g.attach_host(0, 0);
  g.attach_host(1, 0);
  return g;
}

// Four hosts on one switch.
HostSwitchGraph quad_graph() {
  HostSwitchGraph g(4, 1, 8);
  for (HostId h = 0; h < 4; ++h) g.attach_host(h, 0);
  return g;
}

// 2 hosts on each of two adjacent switches.
HostSwitchGraph dumbbell_graph() {
  HostSwitchGraph g(4, 2, 4);
  g.attach_host(0, 0);
  g.attach_host(1, 0);
  g.attach_host(2, 1);
  g.attach_host(3, 1);
  g.add_switch_edge(0, 1);
  return g;
}

SimParams simple_params() {
  SimParams p;
  p.link_bandwidth = 1e9;  // 1 GB/s: easy mental math
  p.hop_latency = 1e-6;
  p.mpi_overhead = 1e-6;
  return p;
}

TEST(FairShare, SingleFlowGetsFullBandwidth) {
  FastFairShareSolver solver(1e9);
  const PathStore paths = to_path_store({{0, 1}});
  std::vector<std::uint8_t> active{1};
  std::vector<double> rates;
  solver.set_paths(paths.links, paths.ranges, active);
  solver.solve(rates);
  EXPECT_DOUBLE_EQ(rates[0], 1e9);
}

TEST(FairShare, SharedLinkSplitsEvenly) {
  FastFairShareSolver solver(1e9);
  const PathStore paths = to_path_store({{0, 2}, {1, 2}});  // both cross link 2
  std::vector<std::uint8_t> active{1, 1};
  std::vector<double> rates;
  solver.set_paths(paths.links, paths.ranges, active);
  solver.solve(rates);
  EXPECT_DOUBLE_EQ(rates[0], 0.5e9);
  EXPECT_DOUBLE_EQ(rates[1], 0.5e9);
}

TEST(FairShare, MaxMinNotJustEqualSplit) {
  // Flow 0 crosses links {0,1}; flow 1 crosses {1}; flow 2 crosses {0}.
  // Progressive filling: all rise to 0.5 (links 0 and 1 saturate), so all
  // three flows end at 0.5 — but drop flow 0 and the others get 1.0 each.
  FastFairShareSolver solver(1e9);
  const PathStore paths = to_path_store({{0, 1}, {1}, {0}});
  std::vector<std::uint8_t> active{1, 1, 1};
  std::vector<double> rates;
  solver.set_paths(paths.links, paths.ranges, active);
  solver.solve(rates);
  EXPECT_DOUBLE_EQ(rates[0], 0.5e9);
  EXPECT_DOUBLE_EQ(rates[1], 0.5e9);
  EXPECT_DOUBLE_EQ(rates[2], 0.5e9);

  solver.deactivate(0);  // re-solve: both survivors re-rated, flow 0 zeroed
  EXPECT_EQ(solver.solve(rates).size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0], 0.0);
  EXPECT_DOUBLE_EQ(rates[1], 1e9);
  EXPECT_DOUBLE_EQ(rates[2], 1e9);
}

TEST(FairShare, BottleneckFreesOtherFlows) {
  // Flows 0,1 share link 0 then diverge; flow 2 alone on link 3.
  FastFairShareSolver solver(1e9);
  const PathStore paths = to_path_store({{0, 1}, {0, 2}, {3}});
  std::vector<std::uint8_t> active{1, 1, 1};
  std::vector<double> rates;
  solver.set_paths(paths.links, paths.ranges, active);
  solver.solve(rates);
  EXPECT_DOUBLE_EQ(rates[0], 0.5e9);
  EXPECT_DOUBLE_EQ(rates[1], 0.5e9);
  EXPECT_DOUBLE_EQ(rates[2], 1e9);
}

TEST(Machine, ComputeTimeMatchesGflops) {
  Machine m(pair_graph(), simple_params());
  const double elapsed = m.compute(200e9);  // 200 GFlop at 100 GFlops
  EXPECT_DOUBLE_EQ(elapsed, 2.0);
  EXPECT_DOUBLE_EQ(m.now(), 2.0);
}

TEST(Machine, SingleMessageTiming) {
  Machine m(pair_graph(), simple_params());
  // 1e9 bytes at 1 GB/s = 1 s transfer + 2 hops * 1us + 1us overhead.
  const double elapsed = m.phase({{0, 1, 1000000000}});
  EXPECT_NEAR(elapsed, 1.0 + 3e-6, 1e-9);
}

TEST(Machine, ZeroByteMessageIsLatencyOnly) {
  Machine m(pair_graph(), simple_params());
  const double elapsed = m.phase({{0, 1, 0}});
  EXPECT_NEAR(elapsed, 3e-6, 1e-12);
}

TEST(Machine, SelfMessageIsFree) {
  Machine m(pair_graph(), simple_params());
  EXPECT_DOUBLE_EQ(m.phase({{0, 0, 12345}}), 0.0);
}

TEST(Machine, ContendingFlowsHalveBandwidth) {
  // Two flows from hosts 0,1 (switch 0) to hosts 2,3 (switch 1): both
  // cross the single inter-switch cable -> 0.5 GB/s each.
  Machine m(dumbbell_graph(), simple_params());
  const double elapsed = m.phase({{0, 2, 500000000}, {1, 3, 500000000}});
  EXPECT_NEAR(elapsed, 1.0 + 4e-6, 1e-8);  // 3 hops + overhead
}

TEST(Machine, DisjointFlowsDoNotContend) {
  Machine m(quad_graph(), simple_params());
  // 0->1 and 2->3 share only the switch, not links.
  const double elapsed = m.phase({{0, 1, 1000000000}, {2, 3, 1000000000}});
  EXPECT_NEAR(elapsed, 1.0 + 3e-6, 1e-8);
}

TEST(Machine, OppositeDirectionsAreFullDuplex) {
  Machine m(dumbbell_graph(), simple_params());
  // 0->2 uses s0->s1, 2->0 uses s1->s0: no shared directed link.
  const double elapsed = m.phase({{0, 2, 1000000000}, {2, 0, 1000000000}});
  EXPECT_NEAR(elapsed, 1.0 + 4e-6, 1e-8);
}

TEST(Machine, PhaseEndsWithSlowestMessage) {
  Machine m(quad_graph(), simple_params());
  const double elapsed = m.phase({{0, 1, 1000000000}, {2, 3, 100}});
  EXPECT_NEAR(elapsed, 1.0 + 3e-6, 1e-8);
}

TEST(Machine, FinishedFlowReleasesBandwidth) {
  // Flows A (0->1, big) and B (2->1, small) share host 1's down-link.
  // B finishes at 0.2 GB (t=0.4s at 0.5 GB/s); A then speeds to 1 GB/s:
  // A moves 0.2 GB by t=0.4, remaining 0.8 GB takes 0.8 s -> total 1.2 s.
  Machine m(quad_graph(), simple_params());
  const double elapsed = m.phase({{0, 1, 1000000000}, {2, 1, 200000000}});
  EXPECT_NEAR(elapsed, 1.2 + 3e-6, 1e-7);
}

TEST(Machine, PrivateHostLinksStayOutOfTheTableau) {
  // An n-rank XOR exchange gives every host link exactly one flow, so the
  // phase keeps all 2n of them out of the solver's tableau. In a fan-in the
  // target's down-link carries every flow and stays; only the senders'
  // up-links go.
  constexpr std::uint32_t kRanks = 64;
  Xoshiro256 rng(5);
  Machine m(random_host_switch_graph(kRanks, 16, 8, rng));
  auto& elided = obs::Registry::global().counter("sim.fairshare.elided_links");
  std::vector<Message> exchange, fan_in;
  for (Rank r = 0; r < kRanks; ++r) exchange.push_back({r, r ^ 5u, 4096});
  for (Rank r = 1; r < kRanks; ++r) fan_in.push_back({r, 0, 4096});
  const std::uint64_t start = elided.value();
  m.phase(exchange);
  const std::uint64_t after_exchange = elided.value();
  m.phase(fan_in);
  EXPECT_EQ(after_exchange - start, 2u * kRanks);
  EXPECT_EQ(elided.value() - after_exchange, kRanks - 1);
}

TEST(Machine, RankMappingChangesRoutes) {
  // On the dumbbell, identity mapping puts ranks 0,1 together; the
  // permuted mapping {0,2,1,3} separates them.
  Machine identity(dumbbell_graph(), simple_params());
  Machine permuted(dumbbell_graph(), simple_params(), {0, 2, 1, 3});
  EXPECT_EQ(identity.route_hops(0, 1), 2u);
  EXPECT_EQ(permuted.route_hops(0, 1), 3u);
}

TEST(Machine, RejectsNonPermutationMapping) {
  EXPECT_THROW(Machine(dumbbell_graph(), simple_params(), {0, 0, 1, 2}),
               std::invalid_argument);
}

// ---- parameter validation: each bad value used to give a silently wrong
// clock (backwards, infinite, or an alltoall of 0 s) ---------------------

/// Expects Machine construction to reject `field` at each of `bad` and to
/// accept it at each of `good`.
void expect_param_checked(double SimParams::*field, std::initializer_list<double> bad,
                          std::initializer_list<double> good) {
  for (const double v : bad) {
    SimParams p = simple_params();
    p.*field = v;
    EXPECT_THROW(Machine(pair_graph(), p), std::invalid_argument) << v;
  }
  for (const double v : good) {
    SimParams p = simple_params();
    p.*field = v;
    EXPECT_NO_THROW(Machine(pair_graph(), p)) << v;
  }
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(MachineParams, HostGflopsMustBeFiniteAndPositive) {
  expect_param_checked(&SimParams::host_gflops, {-1.0, 0.0, kNaN, kInf}, {1e-3, 100.0});
}

TEST(MachineParams, HopLatencyMustBeFiniteAndNonNegative) {
  expect_param_checked(&SimParams::hop_latency, {-1.0, -1e-12, kNaN, kInf}, {0.0, 1e-6});
}

TEST(MachineParams, MpiOverheadMustBeFiniteAndNonNegative) {
  expect_param_checked(&SimParams::mpi_overhead, {-1.0, kNaN, kInf}, {0.0, 1e-6});
}

TEST(MachineParams, RetryBackoffMustBeFiniteAndNonNegative) {
  expect_param_checked(&SimParams::retry_backoff, {-1.0, kNaN, kInf}, {0.0, 1e-5});
}

TEST(MachineParams, RetryTimeoutMustBeFiniteAndNonNegative) {
  expect_param_checked(&SimParams::retry_timeout, {-1.0, kNaN, kInf}, {0.0, 1e-3});
}

TEST(MachineParams, LinkBandwidthMustBePositive) {
  expect_param_checked(&SimParams::link_bandwidth, {-1.0, 0.0, kNaN}, {1e9});
}

TEST(MachineParams, ComputeRejectsNegativeOrNonFiniteFlops) {
  Machine m(pair_graph(), simple_params());
  for (const double flops : {-1.0, kNaN, kInf}) {
    EXPECT_THROW(m.compute(flops), std::invalid_argument) << flops;
  }
  EXPECT_EQ(m.now(), 0.0);
  EXPECT_DOUBLE_EQ(m.compute(0.0), 0.0);
}

// ---- collectives -------------------------------------------------------

TEST(Collectives, BcastOnPairIsOneMessage) {
  Machine m(pair_graph(), simple_params());
  const double elapsed = m.bcast(1000000000);
  EXPECT_NEAR(elapsed, 1.0 + 3e-6, 1e-8);
}

TEST(Collectives, AllreduceLogRounds) {
  Machine m(quad_graph(), simple_params());
  // 2 recursive-doubling rounds; each round: pairwise exchange of 1e8 bytes
  // on disjoint host links -> 0.1 s per round.
  const double elapsed = m.allreduce(100000000);
  EXPECT_NEAR(elapsed, 0.2 + 2 * 3e-6, 1e-7);
}

TEST(Collectives, BarrierIsLatencyBound) {
  Machine m(quad_graph(), simple_params());
  const double elapsed = m.barrier();
  EXPECT_NEAR(elapsed, 2 * 3e-6, 1e-9);
}

TEST(Collectives, AlltoallMovesAllPairs) {
  Machine m(quad_graph(), simple_params());
  // Pairwise exchange: 3 rounds; each round every host sends+receives 1e8
  // bytes on its own links -> 0.1 s per round.
  const double elapsed = m.alltoall(100000000);
  EXPECT_NEAR(elapsed, 0.3 + 3 * 3e-6, 1e-7);
}

TEST(Collectives, AlltoallvRespectsSizes) {
  Machine m(quad_graph(), simple_params());
  // Only the 0 <-> 1 pair exchanges bytes.
  const double elapsed = m.alltoallv([](Rank a, Rank b) {
    return (a + b == 1) ? std::uint64_t{100000000} : std::uint64_t{0};
  });
  EXPECT_GT(elapsed, 0.1);
  EXPECT_LT(elapsed, 0.11);
}

TEST(Collectives, AllgatherDoublesBlocks) {
  Machine m(quad_graph(), simple_params());
  // Round 1: 1e8 bytes, round 2: 2e8 bytes -> 0.1 + 0.2 s.
  const double elapsed = m.allgather(100000000);
  EXPECT_NEAR(elapsed, 0.3 + 2 * 3e-6, 1e-7);
}

TEST(Collectives, ReduceMirrorsBcast) {
  Machine m(quad_graph(), simple_params());
  const double bcast_time = m.bcast(100000000);
  m.reset();
  const double reduce_time = m.reduce(100000000);
  EXPECT_NEAR(bcast_time, reduce_time, 1e-9);
}

TEST(Collectives, RootedCollectivesRejectOutOfRangeRoots) {
  // A root at or past num_ranks() used to wrap around to another rank.
  Machine m(quad_graph(), simple_params());
  EXPECT_THROW(m.bcast(100, 4), std::invalid_argument);
  EXPECT_THROW(m.reduce(100, 4), std::invalid_argument);
  EXPECT_THROW(m.scatter(100, 5), std::invalid_argument);
  EXPECT_THROW(m.gather(100, 1000), std::invalid_argument);
  EXPECT_EQ(m.now(), 0.0);  // nothing ran
  EXPECT_GT(m.bcast(100, 3), 0.0);
}

// ---- NAS skeletons (smoke + sanity on a small machine) ------------------

TEST(Nas, AllKernelsRunAndReportConsistentRates) {
  const auto g = build_fattree(FatTreeParams{8}, 64);  // 64 ranks = 8^2
  Machine m(g, SimParams{});
  NasOptions options;
  options.iteration_fraction = 0.05;
  for (const NasKernel kernel : all_nas_kernels()) {
    const NasResult r = run_nas_kernel(m, kernel, options);
    EXPECT_GT(r.seconds, 0.0) << r.name;
    EXPECT_GT(r.gflops_total, 0.0) << r.name;
    EXPECT_NEAR(r.mops_per_second, r.gflops_total * 1e3 / r.seconds, 1e-6) << r.name;
    EXPECT_LE(r.comm_seconds, r.seconds + 1e-9) << r.name;
  }
}

TEST(Nas, EpIsComputeBound) {
  const auto g = build_fattree(FatTreeParams{8}, 64);
  Machine m(g, SimParams{});
  const NasResult r = run_nas_kernel(m, NasKernel::kEP);
  EXPECT_LT(r.comm_seconds / r.seconds, 0.01);
}

TEST(Nas, RejectsNonSquareRankCounts) {
  const auto g = build_torus(TorusParams{3, 2, 8}, 8);  // 8 ranks: not square
  Machine m(g, SimParams{});
  EXPECT_THROW(run_nas_kernel(m, NasKernel::kCG), std::invalid_argument);
}

}  // namespace
}  // namespace orp
