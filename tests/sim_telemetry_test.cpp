// End-to-end network-telemetry tests: a Machine runs traced workloads
// (including a mid-phase fault and its repair), the sink flush drains the
// collector into the JSONL trace, and the orp_report analyzer reads it
// back. Asserts the acceptance criteria of docs/telemetry.md: every flow's
// attribution terms sum to its measured completion time, phase elapsed
// equals the slowest flow, and the rendered network section is
// byte-deterministic across identical runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/trace_analysis.hpp"
#include "search/random_init.hpp"
#include "sim/machine.hpp"
#include "sim/telemetry/telemetry.hpp"
#include "trace_lines.hpp"

namespace orp {
namespace {

// ---- config / spec parsing ----------------------------------------------

TEST(NetTelemetrySpec, KnobListOverridesFields) {
  NetTelemetryConfig base;  // defaults
  set_net_telemetry(base);
  ASSERT_TRUE(apply_net_telemetry_spec("link_steps=2"));
  EXPECT_TRUE(net_telemetry().enabled);  // untouched
  EXPECT_EQ(net_telemetry().link_steps, 2u);
  // Values span the whole unsigned 32-bit range, 0 included.
  ASSERT_TRUE(apply_net_telemetry_spec("link_steps=4294967295"));
  EXPECT_EQ(net_telemetry().link_steps, 4294967295u);
  ASSERT_TRUE(apply_net_telemetry_spec("link_steps=0"));
  EXPECT_EQ(net_telemetry().link_steps, 0u);
  set_net_telemetry(base);
}

TEST(NetTelemetrySpec, OffAndOnToggle) {
  NetTelemetryConfig base;
  set_net_telemetry(base);
  ASSERT_TRUE(apply_net_telemetry_spec("off"));
  EXPECT_FALSE(net_telemetry().enabled);
  ASSERT_TRUE(apply_net_telemetry_spec("on"));
  EXPECT_TRUE(net_telemetry().enabled);
  set_net_telemetry(base);
}

TEST(NetTelemetrySpec, MalformedSpecIsRejectedAndConfigKept) {
  NetTelemetryConfig base;
  base.link_steps = 7;
  set_net_telemetry(base);
  EXPECT_FALSE(apply_net_telemetry_spec("link_steps"));        // no '='
  EXPECT_FALSE(apply_net_telemetry_spec("no_such_knob=1"));    // unknown
  EXPECT_FALSE(apply_net_telemetry_spec("link_steps=abc"));    // not a number
  EXPECT_FALSE(apply_net_telemetry_spec("link_steps="));       // no digits
  EXPECT_FALSE(apply_net_telemetry_spec("link_steps=-1"));     // sign
  EXPECT_FALSE(apply_net_telemetry_spec("link_steps=+4"));
  EXPECT_FALSE(apply_net_telemetry_spec("link_steps= 4"));     // whitespace
  EXPECT_FALSE(apply_net_telemetry_spec("link_steps=4 "));
  EXPECT_FALSE(apply_net_telemetry_spec("link_steps=4294967296"));  // > u32
  EXPECT_FALSE(apply_net_telemetry_spec("link_steps=99999999999"));
  EXPECT_FALSE(apply_net_telemetry_spec("link_steps=2,link_steps=3"));  // one knob
  EXPECT_FALSE(apply_net_telemetry_spec("OFF"));
  // The sampling caps are constants, so no spec names them.
  for (const char* gone : {"default", "flow_sample=4", "link_top_k=8",
                           "reservoir_flows=1", "reservoir_links=1",
                           "reservoir_phases=1"}) {
    EXPECT_FALSE(apply_net_telemetry_spec(gone)) << gone;
  }
  EXPECT_EQ(net_telemetry().link_steps, 7u);  // untouched by failures
  EXPECT_TRUE(net_telemetry().enabled);
  set_net_telemetry(NetTelemetryConfig{});
}

TEST(NetTelemetryEnv, ZeroIsAValueAndMalformedKeepsTheDefault) {
  ::setenv("ORP_NET_TELEMETRY", "0", 1);
  EXPECT_FALSE(net_telemetry_from_env().enabled);
  for (const char* on : {"1", "4294967295"}) {
    ::setenv("ORP_NET_TELEMETRY", on, 1);
    EXPECT_TRUE(net_telemetry_from_env().enabled) << on;
  }

  // Out of range, signed, padded or trailing junk: the default (on), never
  // a truncated or wrapped 0.
  for (const char* bad : {"4294967296", "18446744073709551616", "99999999999",
                          "-0", "+0", " 0", "0 ", "0k", ""}) {
    ::setenv("ORP_NET_TELEMETRY", bad, 1);
    EXPECT_TRUE(net_telemetry_from_env().enabled) << "'" << bad << "'";
  }
  ::unsetenv("ORP_NET_TELEMETRY");

  // Per-step link samples are a CLI setting only.
  ::setenv("ORP_NET_LINK_STEPS", "16", 1);
  EXPECT_EQ(net_telemetry_from_env().link_steps, 0u);
  ::unsetenv("ORP_NET_LINK_STEPS");
}

// ---- end-to-end: traced sim -> flush -> analyzer -------------------------

// Triangle s0-s1-s2 with one host at each end: the direct s0-s2 edge can
// die mid-phase (flow detours via s1) and be repaired.
HostSwitchGraph triangle() {
  HostSwitchGraph g(2, 3, 4);
  g.attach_host(0, 0);
  g.attach_host(1, 2);
  g.add_switch_edge(0, 1);
  g.add_switch_edge(1, 2);
  g.add_switch_edge(0, 2);
  return g;
}

// Runs the canonical traced workload: a healthy phase, a phase with a
// mid-transfer link failure (retry), a repair, a healthy phase again, and
// an 8-rank alltoall for flow volume. Returns the phase() elapsed times.
std::vector<double> run_workload() {
  std::vector<double> elapsed;
  Machine m(triangle());
  elapsed.push_back(m.phase({{0, 1, 10u << 20}}));
  FaultEvent down;
  down.time = m.now() + elapsed.back() / 2;
  down.kind = FaultEvent::Kind::kLinkDown;
  down.a = 0;
  down.b = 2;
  m.inject_faults({down});
  elapsed.push_back(m.phase({{0, 1, 10u << 20}}));
  FaultEvent up;
  up.time = m.now();
  up.kind = FaultEvent::Kind::kLinkUp;
  up.a = 0;
  up.b = 2;
  m.inject_faults({up});
  elapsed.push_back(m.phase({{0, 1, 10u << 20}}));

  Xoshiro256 rng(17);
  Machine all(random_host_switch_graph(8, 4, 6, rng));
  all.alltoall(1 << 16);
  return elapsed;
}

std::string trace_workload(const char* stem) {
  const std::string path = testing::TempDir() + stem;
  if (!obs::configure(obs::parse_sink(path))) ADD_FAILURE() << "cannot open " << path;
  net_detail::reset_for_tests();
  run_workload();
  obs::flush();
  obs::configure(obs::SinkConfig{});  // detach so later tests start clean
  return path;
}

TEST(SimTelemetryEndToEnd, AttributionTermsSumToMeasuredCompletionTime) {
  set_net_telemetry(NetTelemetryConfig{});
  const std::string path = trace_workload("sim_telemetry_e2e.jsonl");
  const obs::report::TraceAnalysis a = obs::report::analyze_trace_file(path);
  std::remove(path.c_str());

  const obs::report::NetworkAnalysis& net = a.network;
  ASSERT_TRUE(net.present);
  // 3 triangle phases with 1 flow each + 7 alltoall rounds of 8 flows.
  EXPECT_EQ(net.phases.size(), 10u);
  EXPECT_EQ(net.flows.size(), 3u + 7u * 8u);
  EXPECT_EQ(net.flows_seen, net.flows_kept);  // reservoirs never dropped
  EXPECT_GE(net.retried, 1u);                 // the mid-phase fault
  EXPECT_EQ(net.failed, 0u);
  EXPECT_FALSE(net.link_samples.empty());

  // The acceptance bound is 1e-6 s; the terms are exact by construction,
  // so demand far better than that.
  EXPECT_LT(net.max_residual_s, 1e-9);
  for (const obs::report::NetFlow& f : net.flows) {
    const double sum = f.ser_s + f.queue_s + f.hop_s + f.retry_s +
                       f.overhead_s;
    EXPECT_NEAR(sum, f.total_s, 1e-9) << "flow " << f.src << "->" << f.dst;
    EXPECT_GT(f.ser_s, 0.0);
    EXPECT_GE(f.queue_s, -1e-12);
  }
}

TEST(SimTelemetryEndToEnd, PhaseElapsedEqualsSlowestFlow) {
  set_net_telemetry(NetTelemetryConfig{});
  const std::string path = trace_workload("sim_telemetry_phase.jsonl");
  const obs::report::TraceAnalysis a = obs::report::analyze_trace_file(path);
  std::remove(path.c_str());

  const obs::report::NetworkAnalysis& net = a.network;
  ASSERT_TRUE(net.present);
  for (const obs::report::NetPhase& p : net.phases) {
    double slowest = 0.0;
    std::uint32_t counted = 0;
    for (const obs::report::NetFlow& f : net.flows) {
      if (f.phase != p.phase) continue;
      slowest = std::max(slowest, f.total_s);
      ++counted;
    }
    ASSERT_EQ(counted, p.flows);
    EXPECT_NEAR(p.elapsed_s, slowest, 1e-12 + 1e-9 * slowest);
  }
}

TEST(SimTelemetryEndToEnd, NetworkSectionIsByteDeterministic) {
  set_net_telemetry(NetTelemetryConfig{});
  const auto network_section = [](const std::string& path) {
    const std::string md =
        obs::report::render_markdown(obs::report::analyze_trace_file(path));
    const std::size_t begin = md.find("## Network");
    const std::size_t end = md.find("## Annealer");
    EXPECT_NE(begin, std::string::npos);
    EXPECT_NE(end, std::string::npos);
    return md.substr(begin, end - begin);
  };
  const std::string p1 = trace_workload("sim_telemetry_det1.jsonl");
  const std::string s1 = network_section(p1);
  std::remove(p1.c_str());
  const std::string p2 = trace_workload("sim_telemetry_det2.jsonl");
  const std::string s2 = network_section(p2);
  std::remove(p2.c_str());
  EXPECT_EQ(s1, s2);
  EXPECT_NE(s1.find("### Latency attribution"), std::string::npos);
}

TEST(SimTelemetryEndToEnd, DisabledConfigSuppressesRecords) {
  NetTelemetryConfig off;
  off.enabled = false;
  set_net_telemetry(off);
  const std::string path = trace_workload("sim_telemetry_off.jsonl");
  const obs::report::TraceAnalysis a = obs::report::analyze_trace_file(path);
  std::remove(path.c_str());
  EXPECT_FALSE(a.network.present);
  set_net_telemetry(NetTelemetryConfig{});
}

// ---- fast-solver aggregation vs reference records ------------------------

// Traced workload built to exercise the fast solver's route aggregation:
// every (src, dst) pair carries three messages of different sizes, so
// each route is shared by three flows that complete at different times
// (mid-phase deactivations -> warm re-solves). Telemetry must see exact
// de-aggregated per-flow rates, not the per-route aggregate.
std::string trace_aggregation_workload(const char* stem) {
  const std::string path = testing::TempDir() + stem;
  if (!obs::configure(obs::parse_sink(path))) ADD_FAILURE() << "cannot open " << path;
  net_detail::reset_for_tests();
  {
    Xoshiro256 rng(17);
    Machine m(random_host_switch_graph(8, 4, 6, rng));
    std::vector<Message> messages;
    for (Rank src = 0; src < 8; ++src) {
      for (std::uint64_t copy = 0; copy < 3; ++copy) {
        messages.push_back(
            {src, static_cast<Rank>((src + 3) % 8), (copy + 1) << 18});
      }
    }
    m.phase(messages);
    m.alltoall(1 << 14);
  }
  obs::flush();
  obs::configure(obs::SinkConfig{});
  return path;
}

TEST(SimTelemetryEndToEnd, FastSolverAggregationMatchesReferenceRecords) {
  set_net_telemetry(NetTelemetryConfig{});
  const std::string path = trace_aggregation_workload("sim_tel_agg.jsonl");
  const obs::report::TraceAnalysis a = obs::report::analyze_trace_file(path);
  std::remove(path.c_str());
  const obs::report::NetworkAnalysis& net = a.network;
  ASSERT_TRUE(net.present);

  // Phase elapsed times recorded from the same workload driven by the
  // reference FairShareSolver (commit e28bf676b95548b9a2c5b264f9dba0cc1172a4b6):
  // the aggregated phase, then seven alltoall rounds.
  const double golden_elapsed[] = {
      0.00031587279999999998, 4.4768000000000001e-06, 7.8536000000000005e-06,
      7.8536000000000005e-06, 7.8536000000000005e-06, 7.8536000000000005e-06,
      7.8536000000000005e-06, 7.8536000000000005e-06};
  ASSERT_EQ(net.phases.size(), std::size(golden_elapsed));
  for (std::size_t i = 0; i < net.phases.size(); ++i) {
    EXPECT_NEAR(net.phases[i].elapsed_s, golden_elapsed[i],
                1e-7 * golden_elapsed[i])
        << "phase " << i;
  }
  ASSERT_EQ(net.flows.size(), 24u + 7u * 8u);

  // Five-term attribution stays exact when the fast solver aggregates.
  EXPECT_LT(net.max_residual_s, 1e-9);
  for (const obs::report::NetFlow& f : net.flows) {
    EXPECT_NEAR(f.ser_s + f.queue_s + f.hop_s + f.retry_s + f.overhead_s,
                f.total_s, 1e-9)
        << "flow " << f.src << "->" << f.dst;
  }

  // Same-route copies (equal phase, src, dst; adjacent in sorted order)
  // start at one de-aggregated rate: max-min gives equal paths equal rates.
  std::size_t copies = 0;
  for (std::size_t i = 1; i < net.flows.size(); ++i) {
    const obs::report::NetFlow& prev = net.flows[i - 1];
    const obs::report::NetFlow& f = net.flows[i];
    if (prev.phase != f.phase || prev.src != f.src || prev.dst != f.dst) continue;
    ++copies;
    EXPECT_NEAR(prev.rate_first_bps, f.rate_first_bps,
                1e-9 * f.rate_first_bps)
        << "flow " << f.src << "->" << f.dst;
  }
  EXPECT_EQ(copies, 8u * 2u);

  // A link's fair rate is the slowest crossing flow's, so it can never
  // exceed the link's capacity split evenly over its flows.
  const double capacity = SimParams{}.link_bandwidth;
  ASSERT_FALSE(net.link_samples.empty());
  for (const obs::report::NetLink& l : net.link_samples) {
    ASSERT_GT(l.flows, 0u);
    EXPECT_LE(l.fair_bps, capacity / l.flows * (1.0 + 1e-9))
        << "phase " << l.phase << " link " << l.link;
  }
}

// ---- golden link loads ----------------------------------------------------

// A traced alltoallv on a fixed random graph, with a cable that fails and
// is repaired mid-collective and a switch that dies near its end (so later
// rounds carry failed flows). Returns the trace path.
std::string trace_faulted_alltoallv(const char* stem) {
  Xoshiro256 rng(29);
  const HostSwitchGraph g = random_host_switch_graph(8, 4, 6, rng);
  const auto bytes = [](Rank src, Rank dst) -> std::uint64_t {
    return std::uint64_t{(src * 3 + dst * 5) % 7 + 1} << 14;
  };
  const double healthy_s = Machine(g).alltoallv(bytes);
  const SwitchId a = 0;
  const SwitchId b = g.neighbors(0).front();
  const std::string path = testing::TempDir() + stem;
  if (!obs::configure(obs::parse_sink(path))) ADD_FAILURE() << "cannot open " << path;
  set_net_telemetry(NetTelemetryConfig{});
  net_detail::reset_for_tests();
  Machine m(g);
  m.inject_faults({{0.3 * healthy_s, FaultEvent::Kind::kLinkDown, a, b},
                   {0.55 * healthy_s, FaultEvent::Kind::kLinkUp, a, b},
                   {0.8 * healthy_s, FaultEvent::Kind::kSwitchDown, 3, 0}});
  m.alltoallv(bytes);
  obs::flush();
  obs::configure(obs::SinkConfig{});
  return path;
}

TEST(SimTelemetryGolden, FaultedAlltoallvLinkLoadsHoldBitForBit) {
  // Recorded when Machine::phase and the collector each ran their own
  // per-link byte pass. Values are the trace's (%.12g) read back.
  const double golden_max_util[] = {1, 1, 1, 1, 1, 1, 1};
  struct Row {
    std::uint64_t phase;
    std::uint32_t link;
    double utilization;
    std::uint32_t flows;
    double fair_bps;
  };
  const Row golden_rows[] = {
      {0, 0, 1, 1, 5000000000},
      {0, 3, 1, 1, 5000000000},
      {0, 9, 1, 1, 5000000000},
      {0, 10, 1, 1, 5000000000},
      {1, 2, 0.77777777777799995, 1, 4375000000},
      {1, 16, 1, 2, 2500000000},
      {1, 19, 0.88888888888899997, 2, 2500000000},
      {1, 27, 1, 2, 2500000000},
      {2, 1, 0.69999999999999996, 1, 3888888888.8899999},
      {2, 7, 0.69999999999999996, 1, 3888888888.8899999},
      {2, 24, 1, 2, 2500000000},
      {2, 27, 0.90000000000000002, 2, 2500000000},
      {3, 0, 0.53846153846199996, 1, 4375000000},
      {3, 5, 0.53846153846199996, 1, 2692307692.3099999},
      {3, 17, 0.615384615385, 2, 2500000000},
      {3, 22, 1, 2, 2500000000},
      {4, 2, 0.58333333333299997, 1, 2916666666.6700001},
      {4, 17, 0.66666666666700003, 2, 2500000000},
      {4, 21, 1, 2, 2500000000},
      {4, 26, 0.83333333333299997, 2, 2500000000},
      {5, 3, 0.53846153846199996, 1, 2692307692.3099999},
      {5, 13, 0.53846153846199996, 1, 2692307692.3099999},
      {5, 18, 0.53846153846199996, 2, 2500000000},
      {5, 20, 1, 2, 2500000000},
      {6, 4, 0.58333333333299997, 1, 2916666666.6700001},
      {6, 11, 0.58333333333299997, 1, 2916666666.6700001},
      {6, 20, 0.5, 2, 2500000000},
      {6, 23, 1, 2, 2500000000},
  };
  // The collector keeps 8 links per phase. The rows above are each phase's
  // first four in the select's (utilization descending, link ascending)
  // order; these are its other four, recorded with the same 8-link select.
  const Row golden_more_rows[] = {
      {0, 1, 0.66666666666700003, 1, 5000000000},
      {0, 6, 0.83333333333299997, 1, 5000000000},
      {0, 8, 0.66666666666700003, 1, 5000000000},
      {0, 15, 0.83333333333299997, 1, 5000000000},
      {1, 1, 0.555555555556, 1, 2777777777.7800002},
      {1, 7, 0.555555555556, 1, 2777777777.7800002},
      {1, 8, 0.77777777777799995, 1, 4375000000},
      {1, 11, 0.555555555556, 1, 2777777777.7800002},
      {2, 10, 0.69999999999999996, 1, 3888888888.8899999},
      {2, 12, 0.69999999999999996, 1, 3888888888.8899999},
      {2, 17, 0.69999999999999996, 1, 3888888888.8899999},
      {2, 23, 0.69999999999999996, 1, 3888888888.8899999},
      {3, 4, 0.46153846153799999, 1, 2500000000},
      {3, 8, 0.46153846153799999, 1, 2500000000},
      {3, 9, 0.53846153846199996, 1, 2692307692.3099999},
      {3, 12, 0.53846153846199996, 1, 4375000000},
      {4, 6, 0.5, 1, 3000000000},
      {4, 11, 0.5, 1, 3000000000},
      {4, 15, 0.58333333333299997, 1, 2916666666.6700001},
      {4, 22, 0.5, 2, 2500000000},
      {5, 1, 0.30769230769200001, 1, 2857142857.1399999},
      {5, 2, 0.46153846153799999, 1, 2500000000},
      {5, 12, 0.46153846153799999, 1, 2500000000},
      {5, 23, 0.384615384615, 2, 2500000000},
      {6, 2, 0.33333333333300003, 1, 3333333333.3299999},
      {6, 5, 0.41666666666699997, 1, 2500000000},
      {6, 10, 0.41666666666699997, 1, 2500000000},
      {6, 13, 0.33333333333300003, 1, 3333333333.3299999},
  };
  const std::string path = trace_faulted_alltoallv("sim_tel_golden.jsonl");
  const obs::report::TraceAnalysis a = obs::report::analyze_trace_file(path);
  std::remove(path.c_str());
  const obs::report::NetworkAnalysis& net = a.network;
  ASSERT_TRUE(net.present);
  EXPECT_EQ(net.failed, 6u);  // the switch death reached the later rounds
  EXPECT_EQ(net.retried, 2u);
  ASSERT_EQ(net.phases.size(), std::size(golden_max_util));
  for (std::size_t i = 0; i < net.phases.size(); ++i) {
    EXPECT_EQ(net.phases[i].max_utilization, golden_max_util[i]) << "phase " << i;
  }
  const auto by_link = [](const obs::report::NetLink& x, const obs::report::NetLink& y) {
    return x.link < y.link;
  };
  std::vector<obs::report::NetLink> top, rest;
  for (std::uint64_t phase = 0; phase < net.phases.size(); ++phase) {
    std::vector<obs::report::NetLink> ranked;
    for (const obs::report::NetLink& l : net.link_samples) {
      if (l.step == -1 && l.phase == phase) ranked.push_back(l);
    }
    ASSERT_EQ(ranked.size(), 8u) << "phase " << phase;
    std::sort(ranked.begin(), ranked.end(),
              [](const obs::report::NetLink& x, const obs::report::NetLink& y) {
                return x.utilization != y.utilization ? x.utilization > y.utilization
                                                      : x.link < y.link;
              });
    std::sort(ranked.begin(), ranked.begin() + 4, by_link);
    std::sort(ranked.begin() + 4, ranked.end(), by_link);
    top.insert(top.end(), ranked.begin(), ranked.begin() + 4);
    rest.insert(rest.end(), ranked.begin() + 4, ranked.end());
  }
  const auto expect_rows = [](const std::vector<obs::report::NetLink>& rows,
                              const Row* golden, std::size_t count) {
    ASSERT_EQ(rows.size(), count);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& want = golden[i];
      EXPECT_EQ(rows[i].phase, want.phase) << "row " << i;
      EXPECT_EQ(rows[i].link, want.link) << "row " << i;
      EXPECT_EQ(rows[i].utilization, want.utilization) << "row " << i;
      EXPECT_EQ(rows[i].flows, want.flows) << "row " << i;
      EXPECT_EQ(rows[i].fair_bps, want.fair_bps) << "row " << i;
    }
  };
  expect_rows(top, golden_rows, std::size(golden_rows));
  expect_rows(rest, golden_more_rows, std::size(golden_more_rows));
}

// ---- reservoirs at their caps ---------------------------------------------

TEST(SimTelemetryReservoir, FullFlowReservoirKeepsOneSampleOnAnyPool) {
  // An alltoall at n = 128 offers 128 * 127 = 16256 flow records, about
  // four times the 4096 a process buffers, so the flow reservoir replaces
  // records. Which ones it keeps depends only on the flow ordinals: a run
  // on the calling thread, one on a pool and a repeat trace the same lines.
  Xoshiro256 rng(31);
  const HostSwitchGraph g = random_host_switch_graph(128, 32, 8, rng);
  ThreadPool three(3);
  const std::string path = testing::TempDir() + "sim_tel_reservoir.jsonl";
  std::vector<std::string> first;
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &three,
                           static_cast<ThreadPool*>(nullptr)}) {
    const std::string name = pool ? "pool3" : "serial";
    ASSERT_TRUE(obs::configure(obs::parse_sink(path)));
    set_net_telemetry(NetTelemetryConfig{});
    net_detail::reset_for_tests();
    obs::Counter& parallel = obs::Registry::global().counter("sim.rounds.parallel");
    const std::uint64_t parallel_before = parallel.value();
    Machine(g, SimParams{}, {}, pool).alltoall(1 << 10);
    const std::uint64_t parallel_rounds = parallel.value() - parallel_before;
    obs::flush();
    obs::configure(obs::SinkConfig{});
    const obs::report::TraceAnalysis a = obs::report::analyze_trace_file(path);
    const std::vector<std::string> lines = trace_lines(path, "net.");
    std::remove(path.c_str());

    const obs::report::NetworkAnalysis& net = a.network;
    ASSERT_TRUE(net.present) << name;
    EXPECT_EQ(net.flows_seen, 128u * 127u) << name;
    EXPECT_EQ(net.flows_kept, 4096u) << name;
    EXPECT_EQ(net.flows.size(), 4096u) << name;
    EXPECT_EQ(net.phases_seen, net.phases_kept) << name;
    EXPECT_EQ(parallel_rounds > 0, pool != nullptr) << name;
    if (first.empty()) {
      first = lines;
    } else {
      EXPECT_EQ(lines, first) << name;
    }
  }
}

}  // namespace
}  // namespace orp
