// Degraded-operation tests: routing on faulted topologies and the
// simulator's mid-run fault handling (reroute, bounded-timeout failure,
// graceful-degradation accounting).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "obs/sink.hpp"
#include "obs/trace_analysis.hpp"
#include "search/random_init.hpp"
#include "sim/machine.hpp"
#include "sim/routing.hpp"
#include "sim/telemetry/telemetry.hpp"

namespace orp {
namespace {

// host0 - s0 - s1 - s2 - host1, with a detour edge s0-s2 available for
// variants that add it.
HostSwitchGraph line_graph() {
  HostSwitchGraph g(2, 3, 4);
  g.attach_host(0, 0);
  g.attach_host(1, 2);
  g.add_switch_edge(0, 1);
  g.add_switch_edge(1, 2);
  return g;
}

TEST(RoutingDegraded, TryAppendOnDisconnectedPairReturnsZero) {
  HostSwitchGraph g = line_graph();
  g.remove_switch_edge(1, 2);  // s2 (and host1) now isolated
  const RoutingTable routes(g);

  EXPECT_FALSE(routes.hosts_connected(0, 1));
  std::vector<LinkId> path;
  EXPECT_EQ(routes.try_append_host_path(0, 1, path), 0u);
  EXPECT_TRUE(path.empty());
  EXPECT_EQ(routes.try_append_host_path_ecmp(0, 1, 42, path), 0u);
  EXPECT_TRUE(path.empty());
  EXPECT_THROW(routes.append_host_path(0, 1, path), std::invalid_argument);
}

TEST(RoutingDegraded, RerouteAfterLinkRemovalTakesSurvivingPath) {
  // Triangle s0-s1-s2; direct edge s0-s2 dies, route detours via s1.
  HostSwitchGraph g(2, 3, 4);
  g.attach_host(0, 0);
  g.attach_host(1, 2);
  g.add_switch_edge(0, 1);
  g.add_switch_edge(1, 2);
  g.add_switch_edge(0, 2);

  const RoutingTable healthy(g);
  std::vector<LinkId> path;
  EXPECT_EQ(healthy.append_host_path(0, 1, path), 3u);  // up, s0->s2, down

  g.remove_switch_edge(0, 2);
  const RoutingTable degraded(g);
  path.clear();
  EXPECT_EQ(degraded.try_append_host_path(0, 1, path), 4u);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path[0], degraded.host_uplink(0));
  EXPECT_EQ(path[1], degraded.switch_link(0, 1));
  EXPECT_EQ(path[2], degraded.switch_link(1, 2));
  EXPECT_EQ(path[3], degraded.host_downlink(1));
}

TEST(RoutingDegraded, EcmpPathsStayValidAfterRebuild) {
  Xoshiro256 rng(11);
  HostSwitchGraph g = random_host_switch_graph(32, 8, 6, rng);
  // Remove a couple of switch edges (keep it connected with high
  // probability at r=6; skip the check if it disconnects).
  const auto n0 = g.neighbors(0);
  std::vector<SwitchId> nbrs(n0.begin(), n0.end());
  if (!nbrs.empty()) g.remove_switch_edge(0, nbrs.front());
  const RoutingTable routes(g);

  std::vector<LinkId> path;
  for (HostId src = 0; src < 8; ++src) {
    for (HostId dst = 8; dst < 16; ++dst) {
      for (std::uint64_t key = 0; key < 4; ++key) {
        path.clear();
        const std::uint32_t hops =
            routes.try_append_host_path_ecmp(src, dst, key, path);
        if (hops == 0) continue;  // disconnected pair: nothing to validate
        ASSERT_EQ(path.size(), hops);
        // Deterministic and ECMP routes agree on length.
        std::vector<LinkId> det;
        EXPECT_EQ(routes.try_append_host_path(src, dst, det), hops);
        // Every link id is in range and the path is loop-free.
        std::vector<LinkId> sorted(path);
        std::sort(sorted.begin(), sorted.end());
        EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                    sorted.end());
        for (const LinkId l : path) EXPECT_LT(l, routes.num_links());
      }
    }
  }
}

TEST(MachineFaults, NoFaultRunIsUnchanged) {
  Xoshiro256 rng(5);
  const HostSwitchGraph g = random_host_switch_graph(16, 8, 5, rng);
  Machine a(g);
  Machine b(g);
  b.inject_faults({});  // empty injection must be a no-op
  const double ta = a.alltoall(1 << 12);
  const double tb = b.alltoall(1 << 12);
  EXPECT_DOUBLE_EQ(ta, tb);
  EXPECT_EQ(b.fault_stats().events_applied, 0u);
  EXPECT_EQ(b.last_phase_stats().failed, 0u);
  EXPECT_EQ(b.last_phase_stats().retried, 0u);
  EXPECT_EQ(b.last_phase_stats().completed, b.last_phase_stats().flows);
}

TEST(MachineFaults, RejectsInvalidEvents) {
  const HostSwitchGraph g = line_graph();
  Machine m(g);
  FaultEvent bad;
  bad.time = -1.0;
  bad.kind = FaultEvent::Kind::kSwitchDown;
  bad.a = 0;
  EXPECT_THROW(m.inject_faults({bad}), std::invalid_argument);
  bad.time = 1.0;
  bad.a = 99;  // out of range
  EXPECT_THROW(m.inject_faults({bad}), std::invalid_argument);
}

TEST(MachineFaults, MidPhaseLinkFailureReroutesAndFinishes) {
  // Triangle topology: the direct s0-s2 cable dies mid-phase; the flow
  // reroutes via s1 and still completes, slower than the healthy run.
  HostSwitchGraph g(2, 3, 4);
  g.attach_host(0, 0);
  g.attach_host(1, 2);
  g.add_switch_edge(0, 1);
  g.add_switch_edge(1, 2);
  g.add_switch_edge(0, 2);

  SimParams params;
  Machine healthy(g, params);
  const double t_healthy = healthy.phase({{0, 1, 100u << 20}});

  Machine m(g, params);
  FaultEvent e;
  e.time = t_healthy / 2;  // strike mid-transfer
  e.kind = FaultEvent::Kind::kLinkDown;
  e.a = 0;
  e.b = 2;
  m.inject_faults({e});
  const double t_degraded = m.phase({{0, 1, 100u << 20}});

  EXPECT_GT(t_degraded, t_healthy);
  EXPECT_EQ(m.fault_stats().events_applied, 1u);
  EXPECT_EQ(m.fault_stats().routing_rebuilds, 1u);
  EXPECT_EQ(m.fault_stats().flows_retried, 1u);
  EXPECT_EQ(m.fault_stats().flows_failed, 0u);
  EXPECT_EQ(m.last_phase_stats().retried, 1u);
  EXPECT_EQ(m.last_phase_stats().completed, 1u);
  EXPECT_GT(m.last_phase_stats().retry_added_latency, 0.0);
  EXPECT_FALSE(m.graph().has_switch_edge(0, 2));
}

TEST(MachineFaults, UnroutableFlowFailsAtBoundedTimeout) {
  // Line topology: the only cable into host1's switch dies mid-phase.
  HostSwitchGraph g = line_graph();
  SimParams params;
  params.retry_timeout = 0.5e-3;

  Machine healthy(g, params);
  const double t_healthy = healthy.phase({{0, 1, 100u << 20}});

  Machine m(g, params);
  FaultEvent e;
  e.time = t_healthy / 2;
  e.kind = FaultEvent::Kind::kLinkDown;
  e.a = 1;
  e.b = 2;
  m.inject_faults({e});
  const double t = m.phase({{0, 1, 100u << 20}});

  EXPECT_EQ(m.fault_stats().flows_failed, 1u);
  EXPECT_EQ(m.last_phase_stats().failed, 1u);
  EXPECT_EQ(m.last_phase_stats().completed, 0u);
  // The phase ends when the doomed flow gives up: event time + timeout.
  EXPECT_NEAR(t, t_healthy / 2 + params.retry_timeout, 1e-9);
  EXPECT_LT(t, t_healthy);  // bounded, not hung
}

TEST(MachineFaults, FlowStrandedMidPhaseReportsZeroHops) {
  // Path s0-s1-s2; host0 on s0, host1 on s2, host2 on s1. s2 dies
  // mid-phase: flow 0->1 loses its destination and fails, flow 0->2
  // completes. A failed flow has no route, so it counts 0 hops — the same
  // as a flow that fails at injection — not its dead route's 4.
  HostSwitchGraph g(3, 3, 4);
  g.attach_host(0, 0);
  g.attach_host(1, 2);
  g.attach_host(2, 1);
  g.add_switch_edge(0, 1);
  g.add_switch_edge(1, 2);
  const std::vector<Message> messages{{0, 1, 10u << 20}, {0, 2, 10u << 20}};

  Machine healthy(g);
  const double t_healthy = healthy.phase(messages);

  const std::string path = testing::TempDir() + "sim_fault_stranded.jsonl";
  ASSERT_TRUE(obs::configure(obs::parse_sink(path)));
  set_net_telemetry(NetTelemetryConfig{});
  net_detail::reset_for_tests();
  Machine m(g);
  m.inject_faults({{t_healthy / 2, FaultEvent::Kind::kSwitchDown, 2, 0}});
  m.phase(messages);
  EXPECT_EQ(m.last_phase_stats().failed, 1u);
  EXPECT_EQ(m.last_phase_stats().completed, 1u);
  // The survivor crosses up-link, s0->s1, down-link; the stranded flow 0.
  EXPECT_DOUBLE_EQ(m.last_phase_stats().mean_hops, 1.5);
  obs::flush();
  obs::configure(obs::SinkConfig{});
  const obs::report::TraceAnalysis a = obs::report::analyze_trace_file(path);
  std::remove(path.c_str());
  ASSERT_EQ(a.network.flows.size(), 2u);
  for (const obs::report::NetFlow& flow : a.network.flows) {
    EXPECT_EQ(flow.hops, flow.failed ? 0u : 3u) << "dst " << flow.dst;
  }
}

TEST(MachineFaults, LinkLoadsNameTheCablesFlowsCrossedAcrossAMidPhaseFault) {
  // s0 and s1 carry two hosts each, s2 and s3 one; cables 0-1, 0-2, 1-2,
  // 2-3. Two 1 MiB flows share cable 0->1 and end a quarter of the way in;
  // an 8 MiB flow crosses 2->3 throughout. Cable 1-2, which no flow uses,
  // dies mid-phase and the 8 MiB flow is re-pathed. Each flow's bytes must
  // land on the cable it crossed, named by the healthy table's link ids:
  // with ids that renumbered on every rebuild, the long flow's bytes were
  // credited to whatever cable its id named after the fault (here 2->0).
  HostSwitchGraph g(6, 4, 8);
  g.attach_host(0, 0);
  g.attach_host(4, 0);
  g.attach_host(1, 1);
  g.attach_host(5, 1);
  g.attach_host(2, 2);
  g.attach_host(3, 3);
  g.add_switch_edge(0, 1);
  g.add_switch_edge(0, 2);
  g.add_switch_edge(1, 2);
  g.add_switch_edge(2, 3);
  const std::vector<Message> messages{
      {0, 1, 1u << 20}, {4, 5, 1u << 20}, {2, 3, 8u << 20}};
  const RoutingTable healthy_routes(g);
  const LinkId shared = healthy_routes.switch_link(0, 1);
  const LinkId tail = healthy_routes.switch_link(2, 3);
  Machine healthy(g);
  const double t_healthy = healthy.phase(messages);

  const std::string path = testing::TempDir() + "sim_fault_link_loads.jsonl";
  ASSERT_TRUE(obs::configure(obs::parse_sink(path)));
  set_net_telemetry(NetTelemetryConfig{});
  net_detail::reset_for_tests();
  Machine m(g);
  m.inject_faults({{t_healthy / 2, FaultEvent::Kind::kLinkDown, 1, 2}});
  m.phase(messages);
  const Machine::PhaseStats& stats = m.last_phase_stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.retried, 0u);
  EXPECT_EQ(m.fault_stats().routing_rebuilds, 1u);
  // The long flow's cable is (with its host links) the busiest; the shared
  // cable carried 2 MiB against its 8, and no other switch link carried any.
  const LinkLoads& loads = m.link_loads();
  EXPECT_EQ(loads.links[tail].flows, 1u);
  EXPECT_EQ(loads.links[shared].flows, 2u);
  EXPECT_DOUBLE_EQ(loads.utilization(tail), loads.max_utilization);
  EXPECT_NEAR(loads.utilization(shared), loads.max_utilization / 4,
              1e-12 * loads.max_utilization);
  for (LinkId l = 2 * g.num_hosts(); l < loads.links.size(); ++l) {
    if (l != tail && l != shared) {
      EXPECT_EQ(loads.links[l].flows, 0u)
          << "bytes credited to switch link " << l << ", which no flow crossed";
    }
  }
  obs::flush();
  obs::configure(obs::SinkConfig{});
  const obs::report::TraceAnalysis a = obs::report::analyze_trace_file(path);
  std::remove(path.c_str());
  std::uint32_t seen = 0;
  for (const obs::report::NetLink& sample : a.network.link_samples) {
    if (sample.step != -1) continue;
    if (sample.link == tail) {
      ++seen;
      EXPECT_EQ(sample.flows, 1u);
      EXPECT_DOUBLE_EQ(sample.utilization, loads.max_utilization);
    } else if (sample.link == shared) {
      ++seen;
      EXPECT_EQ(sample.flows, 2u);
      EXPECT_NEAR(sample.utilization, loads.max_utilization / 4,
                  1e-12 * loads.max_utilization);
    } else if (sample.link >= 2 * g.num_hosts()) {
      ADD_FAILURE() << "bytes credited to switch link " << sample.link
                    << ", which no flow crossed";
    }
  }
  EXPECT_EQ(seen, 2u);
}

TEST(MachineFaults, SwitchDownKillsItsRanksButOthersComplete) {
  // Path s0-s1-s2, one host each. s2 dies before the phase: flows to/from
  // rank 2 fail, the rank0<->rank1 flows complete.
  HostSwitchGraph g(3, 3, 4);
  g.attach_host(0, 0);
  g.attach_host(1, 1);
  g.attach_host(2, 2);
  g.add_switch_edge(0, 1);
  g.add_switch_edge(1, 2);

  SimParams params;
  Machine m(g, params);
  FaultEvent e;
  e.time = 0.0;
  e.kind = FaultEvent::Kind::kSwitchDown;
  e.a = 2;
  m.inject_faults({e});

  EXPECT_TRUE(m.rank_alive(0));
  const double t = m.phase({{0, 1, 1 << 20}, {1, 0, 1 << 20}, {0, 2, 1 << 20}});
  EXPECT_FALSE(m.rank_alive(2));
  EXPECT_EQ(m.last_phase_stats().failed, 1u);
  EXPECT_EQ(m.last_phase_stats().completed, 2u);
  EXPECT_GT(t, 0.0);
  EXPECT_GE(t, params.retry_timeout);  // the dead flow holds until timeout
}

TEST(MachineFaults, AlltoallSurvivesMidRunLinkFailures) {
  // Acceptance scenario: alltoall with mid-run link failures completes
  // without crash/hang and reports degradation.
  Xoshiro256 rng(7);
  const HostSwitchGraph g = random_host_switch_graph(32, 8, 6, rng);

  Machine healthy(g);
  const double t_healthy = healthy.alltoall(1 << 16);

  Machine m(g);
  // Kill two cables of switch 0 partway into the run.
  const auto nbrs = m.graph().neighbors(0);
  ASSERT_GE(nbrs.size(), 2u);
  std::vector<FaultEvent> events;
  FaultEvent e;
  e.kind = FaultEvent::Kind::kLinkDown;
  e.time = t_healthy / 4;
  e.a = 0;
  e.b = nbrs[0];
  events.push_back(e);
  e.time = t_healthy / 3;
  e.b = nbrs[1];
  events.push_back(e);
  m.inject_faults(events);

  const double t = m.alltoall(1 << 16);
  EXPECT_GT(t, 0.0);
  EXPECT_EQ(m.fault_stats().events_applied, 2u);
  EXPECT_GE(t, t_healthy);  // degraded can't beat healthy
  EXPECT_FALSE(m.graph().has_switch_edge(0, nbrs[0]));
  EXPECT_FALSE(m.graph().has_switch_edge(0, nbrs[1]));
}

TEST(MachineFaults, AllreduceSurvivesSwitchFailure) {
  Xoshiro256 rng(13);
  const HostSwitchGraph g = random_host_switch_graph(32, 8, 6, rng);

  Machine healthy(g);
  const double t_healthy = healthy.allreduce(1 << 16);

  Machine m(g);
  FaultEvent e;
  e.time = t_healthy / 2;
  e.kind = FaultEvent::Kind::kSwitchDown;
  e.a = 3;
  m.inject_faults({e});

  // Must terminate (no hang) across the collective's internal phases.
  const double t = m.allreduce(1 << 16);
  EXPECT_GT(t, 0.0);
  EXPECT_EQ(m.fault_stats().events_applied, 1u);
  EXPECT_GE(m.fault_stats().routing_rebuilds, 1u);
  // Ranks on the dead switch are gone; others still report alive.
  std::uint32_t dead = 0;
  for (Rank r = 0; r < m.num_ranks(); ++r)
    if (!m.rank_alive(r)) ++dead;
  EXPECT_EQ(dead, 4u);  // 32 hosts on 8 switches -> 4 per switch
}

TEST(MachineFaults, FaultRunIsDeterministic) {
  Xoshiro256 rng(29);
  const HostSwitchGraph g = random_host_switch_graph(32, 8, 6, rng);
  const auto run = [&g]() {
    Machine m(g);
    FaultEvent e;
    e.time = 1e-5;
    e.kind = FaultEvent::Kind::kSwitchDown;
    e.a = 5;
    m.inject_faults({e});
    return m.alltoall(1 << 14);
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(MachineFaults, EventsApplyAcrossMultiplePhases) {
  // An event scheduled past the first phase's end applies in the second.
  HostSwitchGraph g(2, 3, 4);
  g.attach_host(0, 0);
  g.attach_host(1, 2);
  g.add_switch_edge(0, 1);
  g.add_switch_edge(1, 2);
  g.add_switch_edge(0, 2);

  Machine probe(g);
  const double t1 = probe.phase({{0, 1, 1 << 20}});

  Machine m(g);
  FaultEvent e;
  e.time = t1 * 2;  // strikes during (or before) a later phase
  e.kind = FaultEvent::Kind::kLinkDown;
  e.a = 0;
  e.b = 2;
  m.inject_faults({e});

  m.phase({{0, 1, 1 << 20}});  // phase 1: healthy
  EXPECT_EQ(m.fault_stats().events_applied, 0u);
  EXPECT_TRUE(m.graph().has_switch_edge(0, 2));

  // Keep running phases until the clock passes the event.
  while (m.now() < t1 * 3) m.phase({{0, 1, 1 << 20}});
  EXPECT_EQ(m.fault_stats().events_applied, 1u);
  EXPECT_FALSE(m.graph().has_switch_edge(0, 2));
}

TEST(MachineRepairs, LinkRepairRestoresDirectRoute) {
  // Triangle: the direct s0-s2 cable dies mid-phase (flow detours via s1),
  // then a kLinkUp repairs it — the next phase routes back over the direct
  // edge and matches the healthy run exactly.
  HostSwitchGraph g(2, 3, 4);
  g.attach_host(0, 0);
  g.attach_host(1, 2);
  g.add_switch_edge(0, 1);
  g.add_switch_edge(1, 2);
  g.add_switch_edge(0, 2);

  SimParams params;
  Machine healthy(g, params);
  const double t_healthy = healthy.phase({{0, 1, 100u << 20}});

  Machine m(g, params);
  FaultEvent down;
  down.time = t_healthy / 2;
  down.kind = FaultEvent::Kind::kLinkDown;
  down.a = 0;
  down.b = 2;
  m.inject_faults({down});
  const double t_degraded = m.phase({{0, 1, 100u << 20}});
  EXPECT_GT(t_degraded, t_healthy);
  EXPECT_EQ(m.route_hops(0, 1), 4u);

  FaultEvent up;
  up.time = m.now();  // already due: applies as the next phase starts
  up.kind = FaultEvent::Kind::kLinkUp;
  up.a = 0;
  up.b = 2;
  m.inject_faults({up});
  const double t_repaired = m.phase({{0, 1, 100u << 20}});

  EXPECT_TRUE(m.graph().has_switch_edge(0, 2));
  EXPECT_EQ(m.route_hops(0, 1), 3u);  // rerouted back onto the direct edge
  EXPECT_DOUBLE_EQ(t_repaired, t_healthy);
  EXPECT_EQ(m.fault_stats().links_repaired, 1u);
  EXPECT_EQ(m.fault_stats().flows_retried, 1u);
  EXPECT_EQ(m.fault_stats().flows_failed, 0u);
  EXPECT_EQ(m.last_phase_stats().completed, 1u);
  EXPECT_EQ(m.last_phase_stats().retried, 0u);
}

TEST(MachineRepairs, LinkRepairIsNoOpWhileEndpointDead) {
  // kLinkUp targeting a dead switch must not resurrect the cable; the
  // switch has to be repaired first (see fault.hpp).
  HostSwitchGraph g = line_graph();
  Machine m(g);
  FaultEvent down;
  down.time = 0.0;
  down.kind = FaultEvent::Kind::kSwitchDown;
  down.a = 2;
  FaultEvent up;
  up.time = 0.0;  // same instant: stable order applies it after the down
  up.kind = FaultEvent::Kind::kLinkUp;
  up.a = 1;
  up.b = 2;
  m.inject_faults({down, up});

  m.phase({{0, 1, 1 << 20}});
  EXPECT_EQ(m.fault_stats().events_applied, 2u);
  EXPECT_EQ(m.fault_stats().links_repaired, 0u);
  EXPECT_FALSE(m.graph().has_switch_edge(1, 2));
  EXPECT_FALSE(m.rank_alive(1));
  EXPECT_EQ(m.last_phase_stats().failed, 1u);
}

TEST(MachineRepairs, SwitchRepairReadmitsRanksAndRestoresLinks) {
  // Line: s2 dies (flow to rank 1 fails, rank goes dark); kSwitchUp brings
  // the switch, its recorded s1-s2 cable, and the rank back, and the next
  // phase completes at the healthy rate.
  HostSwitchGraph g = line_graph();
  SimParams params;
  Machine healthy(g, params);
  const double t_healthy = healthy.phase({{0, 1, 1 << 20}});

  Machine m(g, params);
  FaultEvent down;
  down.time = 0.0;
  down.kind = FaultEvent::Kind::kSwitchDown;
  down.a = 2;
  m.inject_faults({down});
  m.phase({{0, 1, 1 << 20}});
  EXPECT_FALSE(m.rank_alive(1));
  EXPECT_EQ(m.last_phase_stats().failed, 1u);

  FaultEvent up;
  up.time = m.now();
  up.kind = FaultEvent::Kind::kSwitchUp;
  up.a = 2;
  m.inject_faults({up});
  const double t_repaired = m.phase({{0, 1, 1 << 20}});

  EXPECT_TRUE(m.rank_alive(1));
  EXPECT_TRUE(m.graph().has_switch_edge(1, 2));
  EXPECT_DOUBLE_EQ(t_repaired, t_healthy);
  EXPECT_EQ(m.fault_stats().switches_repaired, 1u);
  EXPECT_EQ(m.last_phase_stats().completed, 1u);
  EXPECT_EQ(m.last_phase_stats().failed, 0u);
}

TEST(MachineRepairs, SwitchRepairSkipsIndependentlyFailedCable) {
  // The cable 1-2 fails on its own AFTER s2 died (the kLinkDown unrecords
  // it from s2's frozen adjacency), so repairing s2 re-admits the rank but
  // must NOT resurrect that cable — host1 stays unreachable.
  HostSwitchGraph g = line_graph();
  Machine m(g);
  FaultEvent sdown;
  sdown.time = 0.0;
  sdown.kind = FaultEvent::Kind::kSwitchDown;
  sdown.a = 2;
  FaultEvent ldown;
  ldown.time = 0.0;  // strikes the already-removed edge: unrecord only
  ldown.kind = FaultEvent::Kind::kLinkDown;
  ldown.a = 1;
  ldown.b = 2;
  FaultEvent sup;
  sup.time = 0.0;  // same instant: injection order is the apply order
  sup.kind = FaultEvent::Kind::kSwitchUp;
  sup.a = 2;
  m.inject_faults({sdown, ldown, sup});

  m.phase({{0, 1, 1 << 20}});
  EXPECT_TRUE(m.rank_alive(1));  // rank re-admitted...
  EXPECT_FALSE(m.graph().has_switch_edge(1, 2));  // ...but the cable is gone
  EXPECT_EQ(m.fault_stats().switches_repaired, 1u);
  EXPECT_EQ(m.fault_stats().links_repaired, 0u);
  EXPECT_EQ(m.last_phase_stats().failed, 1u);  // no route to host1
}

TEST(MachineRepairs, RepairEventsAreIdempotent) {
  // Repairing an intact link or switch changes nothing: the healthy run's
  // timing is preserved and no repair is counted.
  HostSwitchGraph g = line_graph();
  Machine healthy(g);
  const double t_healthy = healthy.phase({{0, 1, 1 << 20}});

  Machine m(g);
  FaultEvent lup;
  lup.time = 0.0;
  lup.kind = FaultEvent::Kind::kLinkUp;
  lup.a = 0;
  lup.b = 1;
  FaultEvent sup;
  sup.time = 0.0;
  sup.kind = FaultEvent::Kind::kSwitchUp;
  sup.a = 1;
  m.inject_faults({lup, sup});
  const double t = m.phase({{0, 1, 1 << 20}});

  EXPECT_DOUBLE_EQ(t, t_healthy);
  EXPECT_EQ(m.fault_stats().events_applied, 2u);
  EXPECT_EQ(m.fault_stats().links_repaired, 0u);
  EXPECT_EQ(m.fault_stats().switches_repaired, 0u);
  EXPECT_EQ(m.last_phase_stats().failed, 0u);
}

}  // namespace
}  // namespace orp
