// Differential battery pinning FastFairShareSolver to the reference
// FairShareSolver (the golden oracle, orp_oracle), plus max-min (KKT)
// certificate property tests. The contract under test (docs/sim.md): both
// solvers agree flow-by-flow within 1e-9 * capacity on any instance —
// including duplicate routes (aggregation), mid-phase deactivations (warm
// start), zero-link flows, and capacity-epsilon freeze ties — and the
// Machine reproduces the phase timings the reference solver recorded.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "obs/metrics.hpp"
#include "oracle/fairshare.hpp"
#include "oracle/fluid.hpp"
#include "search/random_init.hpp"
#include "sim/fairshare_fast.hpp"
#include "sim/fault.hpp"
#include "sim/machine.hpp"

namespace orp {
namespace {

constexpr std::uint32_t kLinks = 64;
constexpr double kCap = 5.0e9;
constexpr double kTol = 1e-9 * kCap;

struct Instance {
  std::vector<std::vector<LinkId>> paths;
  std::vector<std::uint8_t> active;
};

// Random instance with deliberate route duplication (flows draw their
// paths from a small pool, so aggregation always has work to do) and a
// sprinkle of zero-link flows. Pool paths may repeat a link — both
// solvers double-count those crossings, and the battery pins that too.
Instance random_instance(Xoshiro256& rng, std::size_t pool_size,
                         std::size_t num_flows) {
  std::vector<std::vector<LinkId>> pool(pool_size);
  for (auto& route : pool) {
    const std::size_t len = 1 + rng() % 6;
    for (std::size_t i = 0; i < len; ++i) {
      route.push_back(static_cast<LinkId>(rng() % kLinks));
    }
  }
  Instance inst;
  inst.paths.resize(num_flows);
  inst.active.assign(num_flows, 1);
  for (std::size_t f = 0; f < num_flows; ++f) {
    if (rng() % 20 == 0) continue;  // zero-link flow
    inst.paths[f] = pool[rng() % pool_size];
  }
  return inst;
}

// Loads an instance's paths into the fast solver.
void set_paths(FastFairShareSolver& fast, const Instance& inst) {
  const PathStore store = to_path_store(inst.paths);
  fast.set_paths(store.links, store.ranges, inst.active);
}

void expect_rates_match(const std::vector<double>& ref,
                        const std::vector<double>& fast,
                        const std::string& context) {
  ASSERT_EQ(ref.size(), fast.size()) << context;
  for (std::size_t f = 0; f < ref.size(); ++f) {
    ASSERT_NEAR(ref[f], fast[f], kTol) << context << ", flow " << f;
  }
}

// solve()'s report contract: the listed flows are active, and every active
// flow whose rate moved since `before` is listed (the rest kept theirs).
void expect_report_covers_changes(const Instance& inst,
                                  const std::vector<double>& before,
                                  const std::vector<double>& after,
                                  const std::vector<std::uint32_t>& written,
                                  const std::string& context) {
  std::vector<std::uint8_t> listed(after.size(), 0);
  for (const std::uint32_t f : written) {
    ASSERT_LT(f, after.size()) << context;
    EXPECT_TRUE(inst.active[f]) << context << ", flow " << f;
    listed[f] = 1;
  }
  for (std::size_t f = 0; f < after.size(); ++f) {
    if (inst.active[f] && !listed[f]) {
      ASSERT_EQ(before[f], after[f]) << context << ", unlisted flow " << f;
    }
  }
}

void expect_certified(const Instance& inst, const std::vector<double>& rates,
                      const std::string& context) {
  std::string why;
  ASSERT_TRUE(
      max_min_certificate_ok(to_path_store(inst.paths), inst.active, rates,
                             kCap, kTol, &why))
      << context << ": " << why;
}

// The core battery: randomized instances, solved cold by both solvers,
// then driven through a randomized deactivation schedule (small batches,
// re-solving after each) that exercises the fast solver's freeze-log
// warm start. One fast solver instance is reused across seeds, so
// set_paths() must fully reset phase state.
TEST(FairShareDiff, RandomizedBatteryWithDeactivationSchedules) {
  FairShareSolver ref(kLinks, kCap);
  FastFairShareSolver fast(kCap);
  std::vector<double> r_ref, r_fast;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Xoshiro256 rng(seed);
    const std::size_t pool_size = 4 + rng() % 24;
    const std::size_t num_flows = 16 + rng() % 240;
    Instance inst = random_instance(rng, pool_size, num_flows);
    const std::string tag = "seed " + std::to_string(seed);

    set_paths(fast, inst);
    ref.solve(inst.paths, inst.active, r_ref);
    // A cold solve writes and lists every active flow.
    EXPECT_EQ(fast.solve(r_fast).size(), num_flows) << tag;
    expect_rates_match(r_ref, r_fast, tag + " cold");
    expect_certified(inst, r_ref, tag + " cold reference");
    expect_certified(inst, r_fast, tag + " cold fast");
    EXPECT_TRUE(fast.self_check());

    std::vector<std::size_t> order(num_flows);
    std::iota(order.begin(), order.end(), 0);
    std::shuffle(order.begin(), order.end(), rng);
    std::size_t pos = 0;
    int step = 0;
    while (pos < order.size()) {
      for (std::size_t batch = 1 + rng() % 7; batch > 0 && pos < order.size();
           --batch, ++pos) {
        inst.active[order[pos]] = 0;
        fast.deactivate(order[pos]);
      }
      const std::string warm_tag =
          tag + " warm step " + std::to_string(step++);
      ref.solve(inst.paths, inst.active, r_ref);
      const std::vector<double> before = r_fast;
      const std::vector<std::uint32_t>& written = fast.solve(r_fast);
      expect_report_covers_changes(inst, before, r_fast, written, warm_tag);
      expect_rates_match(r_ref, r_fast, warm_tag);
      expect_certified(inst, r_fast, warm_tag + " fast");
      EXPECT_TRUE(fast.self_check());
    }
  }
  // The schedules exercised the warm path, including suffix re-fills.
  EXPECT_GT(fast.stats().warm_solves, 0u);
  EXPECT_GT(fast.stats().refilled_routes, 0u);
  EXPECT_LE(fast.stats().warm_solves, fast.stats().solves);
}

TEST(FairShareDiff, SolveReportsOnlyReRatedFlows) {
  // Four flows on link 0 freeze first (cap/4); a pair sharing link 3
  // freezes in a later round (cap/2). Retiring one of the pair cuts the
  // freeze log after round 0, so the warm solve replays link 0's round and
  // must neither write nor list its flows.
  Instance inst{{{0}, {0}, {0}, {0}, {2, 3}, {3}}, {1, 1, 1, 1, 1, 1}};
  FastFairShareSolver fast(kCap);
  std::vector<double> rates;
  set_paths(fast, inst);
  EXPECT_EQ(fast.solve(rates).size(), 6u);
  EXPECT_TRUE(fast.solve(rates).empty());  // nothing changed

  inst.active[5] = 0;
  fast.deactivate(5);
  rates[0] = -1.0;  // a flow the solve must leave alone
  std::vector<std::uint32_t> written = fast.solve(rates);
  std::sort(written.begin(), written.end());
  EXPECT_EQ(written, std::vector<std::uint32_t>{4});
  EXPECT_DOUBLE_EQ(rates[0], -1.0);
  EXPECT_DOUBLE_EQ(rates[4], kCap);
  EXPECT_DOUBLE_EQ(rates[5], 0.0);  // deactivated: zeroed, not listed
  EXPECT_DOUBLE_EQ(fast.rate_of(4), kCap);
  EXPECT_DOUBLE_EQ(fast.rate_of(5), 0.0);
  EXPECT_EQ(fast.stats().solves, 3u);
  EXPECT_EQ(fast.stats().warm_solves, 1u);
  EXPECT_EQ(fast.stats().refilled_routes, 1u);
}

TEST(FairShareDiff, DuplicateRoutesAggregateExactly) {
  // 96 flows over 3 distinct routes sharing a common link: aggregation
  // collapses them to 3 weighted flows; the fan-out must reproduce the
  // reference per-flow rates exactly (equal paths get equal rates).
  Instance inst;
  for (int copy = 0; copy < 32; ++copy) {
    inst.paths.push_back({0, 1});
    inst.paths.push_back({0, 2});
    inst.paths.push_back({0, 3});
  }
  inst.active.assign(inst.paths.size(), 1);

  FairShareSolver ref(kLinks, kCap);
  FastFairShareSolver fast(kCap);
  std::vector<double> r_ref, r_fast;
  set_paths(fast, inst);
  ref.solve(inst.paths, inst.active, r_ref);
  fast.solve(r_fast);
  expect_rates_match(r_ref, r_fast, "duplicate routes");
  for (const double r : r_fast) EXPECT_NEAR(r, kCap / 96.0, kTol);
}

TEST(FairShareDiff, EmptyFlowSet) {
  FairShareSolver ref(kLinks, kCap);
  FastFairShareSolver fast(kCap);
  const Instance inst;  // no flows at all
  std::vector<double> r_ref, r_fast;
  ref.solve(inst.paths, inst.active, r_ref);
  set_paths(fast, inst);
  fast.solve(r_fast);
  EXPECT_TRUE(r_ref.empty());
  EXPECT_TRUE(r_fast.empty());
}

TEST(FairShareDiff, SingleFlowGetsLineRate) {
  Instance inst{{{0, 1, 2}}, {1}};
  FairShareSolver ref(kLinks, kCap);
  FastFairShareSolver fast(kCap);
  std::vector<double> r_ref, r_fast;
  ref.solve(inst.paths, inst.active, r_ref);
  set_paths(fast, inst);
  fast.solve(r_fast);
  EXPECT_DOUBLE_EQ(r_ref[0], kCap);
  EXPECT_DOUBLE_EQ(r_fast[0], kCap);
}

TEST(FairShareDiff, AllFlowsOnOneLink) {
  Instance inst;
  inst.paths.assign(37, {5});
  inst.active.assign(37, 1);
  FairShareSolver ref(kLinks, kCap);
  FastFairShareSolver fast(kCap);
  std::vector<double> r_ref, r_fast;
  ref.solve(inst.paths, inst.active, r_ref);
  set_paths(fast, inst);
  fast.solve(r_fast);
  expect_rates_match(r_ref, r_fast, "one link");
  for (const double r : r_fast) EXPECT_NEAR(r, kCap / 37.0, kTol);
  // Drain them one at a time: the survivors' share grows every step.
  for (std::size_t f = 0; f + 1 < inst.paths.size(); ++f) {
    inst.active[f] = 0;
    fast.deactivate(f);
    ref.solve(inst.paths, inst.active, r_ref);
    fast.solve(r_fast);
    expect_rates_match(r_ref, r_fast, "drain " + std::to_string(f));
    EXPECT_NEAR(r_fast.back(), kCap / static_cast<double>(36 - f), kTol);
  }
}

TEST(FairShareDiff, ZeroLinkFlowsGetLineRateInBothSolvers) {
  // Mix of empty-path flows and a contended link; zero-link flows must
  // ride at line rate in both solvers and not perturb the contended ones.
  Instance inst{{{}, {7}, {}, {7}, {}}, {1, 1, 1, 1, 1}};
  FairShareSolver ref(kLinks, kCap);
  FastFairShareSolver fast(kCap);
  std::vector<double> r_ref, r_fast;
  ref.solve(inst.paths, inst.active, r_ref);
  set_paths(fast, inst);
  fast.solve(r_fast);
  expect_rates_match(r_ref, r_fast, "zero-link mix");
  EXPECT_DOUBLE_EQ(r_fast[0], kCap);
  EXPECT_DOUBLE_EQ(r_fast[2], kCap);
  EXPECT_DOUBLE_EQ(r_fast[4], kCap);
  EXPECT_NEAR(r_fast[1], kCap / 2.0, kTol);
  // Deactivating a zero-link flow is a no-op for everyone else.
  inst.active[2] = 0;
  fast.deactivate(2);
  ref.solve(inst.paths, inst.active, r_ref);
  fast.solve(r_fast);
  expect_rates_match(r_ref, r_fast, "zero-link deactivated");
  EXPECT_DOUBLE_EQ(r_fast[2], 0.0);
}

TEST(FairShareDiff, EpsilonFreezeTieBreaksIdentically) {
  // Exact tie: links 0 and 1 saturate at the same level, so the shared
  // flow and both exclusive flows freeze in one round in both solvers.
  Instance tie{{{0}, {0, 1}, {1}}, {1, 1, 1}};
  FairShareSolver ref(kLinks, kCap);
  FastFairShareSolver fast(kCap);
  std::vector<double> r_ref, r_fast;
  ref.solve(tie.paths, tie.active, r_ref);
  set_paths(fast, tie);
  fast.solve(r_fast);
  expect_rates_match(r_ref, r_fast, "tie");
  for (const double r : r_fast) EXPECT_NEAR(r, kCap / 2.0, kTol);

  // Asymmetric counts: link 0 (4 crossers) saturates first at cap/4;
  // link 1 then has one unfrozen crosser left, which rides to 3cap/4.
  Instance skew{{{0}, {0}, {0}, {0, 1}, {1}}, {1, 1, 1, 1, 1}};
  ref.solve(skew.paths, skew.active, r_ref);
  set_paths(fast, skew);
  fast.solve(r_fast);
  expect_rates_match(r_ref, r_fast, "skew");
  EXPECT_NEAR(r_fast[3], kCap / 4.0, kTol);
  EXPECT_NEAR(r_fast[4], 3.0 * kCap / 4.0, kTol);
}

// The Machine hands the solver each route without the host links its flow
// holds alone (docs/sim.md, "Private host links"). Such a link saturates
// only at line rate, so the allocation solved from the trimmed ranges must
// be max-min on the full paths: equal to the oracle's on the full paths and
// certified with the host links included, cold and through deactivations.
TEST(FairShareDiff, TrimmedPrivateHostLinksKeepTheFullPathAllocation) {
  constexpr std::uint32_t kHosts = 16;  // host links [0, 2 * kHosts)
  FairShareSolver ref(2 * kHosts + kLinks, kCap);
  FastFairShareSolver fast(kCap);
  std::vector<double> r_ref, r_fast;
  std::uint64_t elided = 0, zero_link = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Xoshiro256 rng(seed);
    const std::string tag = "seed " + std::to_string(seed);
    Instance inst;
    const std::size_t num_flows = 4 + rng() % 28;
    for (std::size_t f = 0; f < num_flows; ++f) {
      std::vector<LinkId> path{static_cast<LinkId>(rng() % kHosts)};
      for (std::size_t hop = rng() % 4; hop > 0; --hop) {
        path.push_back(static_cast<LinkId>(2 * kHosts + rng() % kLinks));
      }
      path.push_back(static_cast<LinkId>(kHosts + rng() % kHosts));
      inst.paths.push_back(path);
    }
    inst.active.assign(num_flows, 1);
    const PathStore full = to_path_store(inst.paths);
    std::vector<std::uint32_t> flows_on(2 * kHosts, 0);
    for (const std::vector<LinkId>& path : inst.paths) {
      ++flows_on[path.front()];
      ++flows_on[path.back()];
    }
    std::vector<PathRange> trimmed = full.ranges;
    for (std::size_t f = 0; f < num_flows; ++f) {
      if (flows_on[inst.paths[f].front()] == 1) {
        ++trimmed[f].begin;
        ++elided;
      }
      if (flows_on[inst.paths[f].back()] == 1) {
        --trimmed[f].end;
        ++elided;
      }
      zero_link += trimmed[f].begin == trimmed[f].end;
    }
    fast.set_paths(full.links, trimmed, inst.active);
    const auto check = [&](const std::string& context) {
      fast.solve(r_fast);
      ref.solve(inst.paths, inst.active, r_ref);
      expect_rates_match(r_ref, r_fast, context);
      std::string why;
      ASSERT_TRUE(max_min_certificate_ok(full, inst.active, r_fast, kCap, kTol, &why))
          << context << ": " << why;
      EXPECT_TRUE(fast.self_check()) << context;
    };
    check(tag + " cold");
    std::vector<std::size_t> order(num_flows);
    std::iota(order.begin(), order.end(), 0);
    std::shuffle(order.begin(), order.end(), rng);
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
      inst.active[order[i]] = 0;
      fast.deactivate(order[i]);
      check(tag + " after " + std::to_string(i + 1) + " deactivations");
    }
  }
  // Host links were left out, and some flows lost every link.
  EXPECT_GT(elided, 0u);
  EXPECT_GT(zero_link, 0u);
}

// ---- max-min certificate property tests ------------------------------

TEST(MaxMinCertificate, AcceptsKnownOptimum) {
  const PathStore paths = to_path_store({{0}, {0, 1}, {1}});
  const std::vector<std::uint8_t> active{1, 1, 1};
  const std::vector<double> rates{kCap / 2, kCap / 2, kCap / 2};
  EXPECT_TRUE(max_min_certificate_ok(paths, active, rates, kCap, kTol));
}

TEST(MaxMinCertificate, RejectsOverCapacity) {
  const PathStore paths = to_path_store({{0}, {0}});
  const std::vector<std::uint8_t> active{1, 1};
  std::string why;
  EXPECT_FALSE(max_min_certificate_ok(paths, active, {0.6 * kCap, 0.6 * kCap},
                                      kCap, kTol, &why));
  EXPECT_NE(why.find("over capacity"), std::string::npos);
}

TEST(MaxMinCertificate, RejectsNonBottleneckedFlow) {
  // Feasible but not max-min: flow 1 could still grow (its only link is
  // unsaturated), so it crosses no saturated link.
  const PathStore paths = to_path_store({{0}, {1}});
  const std::vector<std::uint8_t> active{1, 1};
  std::string why;
  EXPECT_FALSE(max_min_certificate_ok(paths, active, {kCap, 0.5 * kCap}, kCap,
                                      kTol, &why));
  EXPECT_NE(why.find("no saturated link"), std::string::npos);
}

TEST(MaxMinCertificate, RejectsStarvedEqualPathFlow) {
  // Link saturated, but flow 1 runs below the max crosser: progressive
  // filling would never produce unequal rates on the same bottleneck.
  const PathStore paths = to_path_store({{0}, {0}});
  const std::vector<std::uint8_t> active{1, 1};
  EXPECT_FALSE(max_min_certificate_ok(paths, active,
                                      {0.75 * kCap, 0.25 * kCap}, kCap, kTol));
}

TEST(MaxMinCertificate, RejectsZeroLinkFlowBelowLineRate) {
  const PathStore paths = to_path_store({{}});
  const std::vector<std::uint8_t> active{1};
  std::string why;
  EXPECT_FALSE(
      max_min_certificate_ok(paths, active, {0.5 * kCap}, kCap, kTol, &why));
  EXPECT_NE(why.find("line rate"), std::string::npos);
}

TEST(MaxMinCertificate, IgnoresInactiveFlows) {
  const PathStore paths = to_path_store({{0}, {0}});
  const std::vector<std::uint8_t> active{1, 0};
  EXPECT_TRUE(max_min_certificate_ok(paths, active, {kCap, 0.0}, kCap, kTol));
}

// ---- Machine-level differential --------------------------------------

// The Machine drives only the fast solver, so its timings are checked
// against golden values recorded by driving the reference FairShareSolver
// through the same workloads (Machine with the reference allocator selected,
// at commit e28bf676b95548b9a2c5b264f9dba0cc1172a4b6, printed with %.17g).

// Relative timing tolerance: per-phase durations derive from rates that
// agree to 1e-9 relative; collectives chain tens of phases.
void expect_close_time(double golden, double actual, const std::string& context) {
  ASSERT_NEAR(golden, actual, 1e-7 * std::max(golden, actual) + 1e-15) << context;
}

TEST(FairShareDiff, MachineTimingsMatchAcrossSolvers) {
  struct Golden {
    RoutingPolicy policy;
    const char* tag;
    double alltoall, allreduce, allgather, alltoallv, clock;
  };
  const Golden goldens[] = {
      {RoutingPolicy::kDeterministic, "deterministic", 0.0017807519999999998,
       0.00045404480000000002, 0.00040407360000000001, 0.00038031239999999992,
       0.0030191827999999964},
      {RoutingPolicy::kEcmp, "ecmp", 0.0016082583999999997,
       0.00044083760000000001, 0.00038441279999999999, 0.00032366759999999991,
       0.0027571764000000002},
  };
  Xoshiro256 rng(7);
  const HostSwitchGraph g = random_host_switch_graph(64, 16, 8, rng);
  for (const Golden& ref : goldens) {
    SimParams p;
    p.routing = ref.policy;
    Machine m(g, p);
    const std::string tag = ref.tag;

    expect_close_time(ref.alltoall, m.alltoall(1 << 14), tag + " alltoall");
    expect_close_time(ref.allreduce, m.allreduce(1 << 16), tag + " allreduce");
    expect_close_time(ref.allgather, m.allgather(1 << 12), tag + " allgather");
    const auto skewed = [](Rank s, Rank d) {
      return static_cast<std::uint64_t>((s * 131 + d * 17) % 4096 + 64);
    };
    expect_close_time(ref.alltoallv, m.alltoallv(skewed), tag + " alltoallv");
    expect_close_time(ref.clock, m.now(), tag + " clock");
  }
}

TEST(FairShareDiff, MachineMidPhaseFaultTimingsMatchAcrossSolvers) {
  // A cable dies mid-alltoall and is later repaired: in-flight flows
  // reroute (set_paths rebuild) and the remaining traffic re-solves.
  // Timings and degradation counters must match the reference run.
  Xoshiro256 rng(21);
  const HostSwitchGraph g = random_host_switch_graph(32, 8, 6, rng);
  const auto nbrs = g.neighbors(0);
  ASSERT_FALSE(nbrs.empty());
  const SwitchId victim = *nbrs.begin();
  ASSERT_EQ(victim, 5u);  // the cable the golden run cut

  Machine m(g);
  m.inject_faults({{5e-5, FaultEvent::Kind::kLinkDown, 0, victim},
                   {4e-4, FaultEvent::Kind::kLinkUp, 0, victim}});
  expect_close_time(0.0036428684000000015, m.alltoall(1 << 16), "fault alltoall");
  expect_close_time(0.00020360800000000001, m.allreduce(1 << 15), "fault allreduce");
  expect_close_time(0.0038464764000000007, m.now(), "fault clock");

  const FaultStats& stats = m.fault_stats();
  EXPECT_EQ(stats.events_applied, 2u);
  EXPECT_EQ(stats.routing_rebuilds, 2u);
  EXPECT_EQ(stats.flows_retried, 8u);
  EXPECT_EQ(stats.flows_failed, 0u);
  EXPECT_EQ(stats.links_repaired, 1u);
  EXPECT_EQ(stats.switches_repaired, 0u);
  EXPECT_NEAR(stats.retry_added_latency, 8.0000000000000007e-05, 1e-18);
}

// ---- the event loop against the reference fluid loop ------------------

// A phase with skewed sizes: a few ~1 MiB messages among many small ones,
// plus zero-byte messages and self-messages. Rates move as the small flows
// drain, so warm solves re-fill routes — the path homogeneous alltoall
// phases never take.
std::vector<Message> skewed_phase(Xoshiro256& rng, std::uint32_t ranks) {
  std::vector<Message> messages(16 + rng() % 160);
  for (Message& m : messages) {
    m.src = static_cast<Rank>(rng() % ranks);
    m.dst = rng() % 8 == 0 ? m.src : static_cast<Rank>(rng() % ranks);
    const std::uint64_t pick = rng() % 10;
    m.bytes = pick == 0   ? 0
              : pick < 3 ? (std::uint64_t{1} << 20) + rng() % 4096
                         : 64 + rng() % 8192;
  }
  return messages;
}

// A permutation phase: every rank sends one skewed-size message to its XOR
// partner, so every host link carries exactly one flow and the Machine
// keeps all of them out of the solver's tableau. With `fan_in` > 0 that
// many extra senders also target rank 0, whose down-link (and the extra
// senders' up-links) then carry more than one flow and must stay. The
// messages into rank 0 are the phase's largest, so that link binds.
std::vector<Message> xor_phase(Xoshiro256& rng, std::uint32_t ranks,
                               std::uint32_t partner_mask, std::uint32_t fan_in) {
  const auto big = [&] { return (std::uint64_t{1} << 20) + rng() % 4096; };
  std::vector<Message> messages;
  for (Rank r = 0; r < ranks; ++r) {
    const Rank partner = r ^ partner_mask;
    const std::uint64_t bytes = fan_in > 0 && partner == 0 ? big()
                                : rng() % 4 == 0 ? (std::uint64_t{1} << 18) + rng() % 4096
                                                 : 64 + rng() % 8192;
    messages.push_back({r, partner, bytes});
  }
  for (std::uint32_t i = 0; i < fan_in; ++i) {
    messages.push_back({1 + static_cast<Rank>(rng() % (ranks - 1)), 0, big()});
  }
  return messages;
}

TEST(FairShareDiff, EventLoopMatchesReferenceFluidLoop) {
  auto& refilled = obs::Registry::global().counter("sim.fairshare.refilled_routes");
  auto& steps = obs::Registry::global().counter("sim.phase.fluid_steps");
  std::uint32_t same_switch_pairs = 0;
  for (const RoutingPolicy policy :
       {RoutingPolicy::kDeterministic, RoutingPolicy::kEcmp}) {
    const std::string tag =
        policy == RoutingPolicy::kEcmp ? "ecmp" : "deterministic";
    Xoshiro256 rng(policy == RoutingPolicy::kEcmp ? 43 : 41);
    const HostSwitchGraph g = random_host_switch_graph(64, 16, 8, rng);
    std::vector<HostId> rank_to_host(g.num_hosts());
    std::iota(rank_to_host.begin(), rank_to_host.end(), 0);
    std::shuffle(rank_to_host.begin(), rank_to_host.end(), rng);
    SimParams params;
    params.routing = policy;
    Machine machine(g, params, rank_to_host);
    const RoutingTable routes(g);
    const std::uint64_t refilled_before = refilled.value();
    std::uint64_t phase = 0;
    const auto check = [&](const std::vector<Message>& messages) {
      ++phase;
      const std::uint64_t steps_before = steps.value();
      const double elapsed = machine.phase(messages);
      const ReferencePhase ref =
          reference_phase(routes, params, rank_to_host, messages, phase);
      ASSERT_NEAR(elapsed, ref.elapsed, 1e-9 * ref.elapsed)
          << tag << " phase " << phase;
#ifndef ORP_OBS_DISABLED
      EXPECT_EQ(steps.value() - steps_before, ref.steps)
          << tag << " phase " << phase;
#endif
    };
    for (int i = 0; i < 40; ++i) check(skewed_phase(rng, g.num_hosts()));
    // Permutation phases (all host links private; same-switch pairs have
    // their whole route left out) and permutation-plus-fan-in mixes.
    for (std::uint32_t mask = 1; mask < g.num_hosts(); mask += 5) {
      for (const std::uint32_t fan_in : {0u, 1u + mask % 3}) {
        const std::vector<Message> messages =
            xor_phase(rng, g.num_hosts(), mask, fan_in);
        for (const Message& m : messages) {
          same_switch_pairs += g.host_switch(rank_to_host[m.src]) ==
                               g.host_switch(rank_to_host[m.dst]);
        }
        check(messages);
      }
    }
#ifndef ORP_OBS_DISABLED
    EXPECT_GT(refilled.value() - refilled_before, 0u) << tag;
#endif
  }
  EXPECT_GT(same_switch_pairs, 0u);
}

// Machine::phase checks its loop invariants on every event and throws
// std::logic_error when one breaks: the clock is monotone, every flow ends
// exactly once, a completed flow delivered its bytes, and each flow's
// cached rate equals its route's solver rate. Randomized fault/repair
// schedules drive them through reroutes, strandings and cold re-solves.
TEST(FairShareDiff, RandomizedFaultRepairSchedulesKeepLoopInvariants) {
  std::uint64_t retried = 0, failed = 0, repaired = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Xoshiro256 rng(seed);
    const HostSwitchGraph g = random_host_switch_graph(32, 8, 6, rng);
    const auto skewed = [](Rank s, Rank d) {
      return static_cast<std::uint64_t>((s * 131 + d * 17) % 4096) * 64;
    };
    Machine probe(g);
    const double horizon = probe.alltoall(1 << 14) + probe.alltoallv(skewed);

    std::vector<FaultEvent> events(12);
    for (FaultEvent& e : events) {
      e.time = horizon * static_cast<double>(rng() % 1000) / 1000.0;
      e.a = static_cast<SwitchId>(rng() % g.num_switches());
      const auto nbrs = g.neighbors(e.a);
      e.b = nbrs.empty() ? (e.a + 1) % g.num_switches()
                         : nbrs[rng() % nbrs.size()];
      constexpr FaultEvent::Kind kinds[] = {
          FaultEvent::Kind::kLinkDown, FaultEvent::Kind::kLinkDown,
          FaultEvent::Kind::kLinkUp, FaultEvent::Kind::kSwitchDown,
          FaultEvent::Kind::kSwitchUp};
      e.kind = kinds[rng() % std::size(kinds)];
    }
    Machine machine(g);
    machine.inject_faults(events);
    double elapsed = 0.0;
    ASSERT_NO_THROW({
      elapsed += machine.alltoall(1 << 14);
      elapsed += machine.alltoallv(skewed);
    }) << "seed " << seed;
    EXPECT_TRUE(std::isfinite(elapsed) && elapsed > 0.0) << "seed " << seed;
    const Machine::PhaseStats& last = machine.last_phase_stats();
    EXPECT_EQ(last.completed + last.failed, last.flows) << "seed " << seed;
    const FaultStats& stats = machine.fault_stats();
    retried += stats.flows_retried;
    failed += stats.flows_failed;
    repaired += stats.links_repaired + stats.switches_repaired;
  }
  // The schedules reached every degradation path.
  EXPECT_GT(retried, 0u);
  EXPECT_GT(failed, 0u);
  EXPECT_GT(repaired, 0u);
}

}  // namespace
}  // namespace orp
