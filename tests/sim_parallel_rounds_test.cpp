// Parallel collective rounds: every collective must give bit-identical
// results whether its rounds run serially or on a thread pool of any size.
// A tracer only observes: a traced run takes the same paths as an untraced
// one, equals it, and records the same `net.*` lines at every pool size.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/prng.hpp"
#include "common/thread_pool.hpp"
#include "hsg/bounds.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "search/random_init.hpp"
#include "sim/machine.hpp"
#include "sim/telemetry/telemetry.hpp"
#include "sim_record.hpp"

namespace orp {
namespace {

HostSwitchGraph random_graph(std::uint32_t n, std::uint32_t r, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  return random_host_switch_graph(n, optimal_switch_count(n, r), r, rng);
}

// Two islands: switches {0, 1} and {2, 3}, three hosts each. Every flow
// between the islands fails at injection.
HostSwitchGraph disconnected_graph() {
  HostSwitchGraph g(12, 4, 5);
  for (HostId h = 0; h < 12; ++h) g.attach_host(h, h % 4);
  g.add_switch_edge(0, 1);
  g.add_switch_edge(2, 3);
  return g;
}

/// Runs every collective (and one plain phase) on a fresh Machine. `faults`
/// strike the first barrier; `tail_faults`, with times relative to its
/// start, strike the first alltoall.
Record run_all(const HostSwitchGraph& g, RoutingPolicy routing, ThreadPool* pool,
               std::vector<FaultEvent> faults = {},
               std::vector<FaultEvent> tail_faults = {}) {
  SimParams params;
  params.routing = routing;
  Machine m(g, params, {}, pool);
  const Rank n = m.num_ranks();
  const Rank root = n / 3;
  Record rec;
  if (!faults.empty()) {
    m.inject_faults(std::move(faults));
    rec.observe("faulted_barrier", m.barrier(), m);
  }
  if (!tail_faults.empty()) {
    const std::uint64_t applied = m.fault_stats().events_applied + tail_faults.size();
    for (FaultEvent& e : tail_faults) e.time += m.now();
    m.inject_faults(std::move(tail_faults));
    rec.observe("faulted_alltoall", m.alltoall(2048), m);
    EXPECT_EQ(m.fault_stats().events_applied, applied);  // all struck inside it
  }
  rec.observe("barrier", m.barrier(), m);
  rec.observe("bcast", m.bcast(4096, root), m);
  rec.observe("reduce", m.reduce(8192, root), m);
  rec.observe("allreduce", m.allreduce(1 << 16), m);
  rec.observe("allgather", m.allgather(3000), m);
  rec.observe("scatter", m.scatter(2048, root), m);
  rec.observe("gather", m.gather(2048, root), m);
  rec.observe("reduce_scatter", m.reduce_scatter(1024), m);
  rec.observe("ring_allreduce", m.ring_allreduce(1 << 20), m);
  rec.observe("alltoall", m.alltoall(4096), m);
  // Uneven sizes with zeros, so some rounds are sparse and late rounds
  // may move nothing at all.
  rec.observe("alltoallv", m.alltoallv([n](Rank a, Rank b) -> std::uint64_t {
    return (a + 2 * b) % 5 == 0 || (a ^ b) > n / 2 ? 0 : 512 * (1 + (a * 7 + b) % 13);
  }), m);
  std::vector<Message> messages;
  for (Rank r = 0; r < n; ++r) messages.push_back({r, (r * 5 + 1) % n, 100000});
  rec.observe("phase", m.phase(messages), m);
  rec.observe("alltoall_again", m.alltoall(64), m);
  return rec;
}

struct Case {
  std::string name;
  HostSwitchGraph graph;
  std::vector<FaultEvent> faults;
  std::vector<FaultEvent> tail_faults = {};
};

std::vector<Case> cases() {
  std::vector<Case> out;
  out.push_back({"pow2_n64", random_graph(64, 12, 3), {}});
  out.push_back({"np2_n48", random_graph(48, 10, 5), {}});
  out.push_back({"disconnected_n12", disconnected_graph(), {}});
  // A switch that dies at time 0: the first barrier applies it serially,
  // and every later collective runs with dead ranks on the pool.
  const HostSwitchGraph g = random_graph(40, 8, 9);
  out.push_back({"dead_switch_n40", g, {{0.0, FaultEvent::Kind::kSwitchDown, 1, 0}}});
  // A cable that fails and comes back within the first rounds of an
  // alltoall: the rounds after the repair run on the pool.
  const HostSwitchGraph h = random_graph(48, 10, 5);
  const SwitchId far = h.neighbors(0)[0];
  out.push_back({"early_fault_alltoall_n48", h, {},
                 {{0.5e-6, FaultEvent::Kind::kLinkDown, 0, far},
                  {4e-6, FaultEvent::Kind::kLinkUp, 0, far}}});
  return out;
}

TEST(ParallelRounds, BitIdenticalAcrossPoolSizes) {
  ThreadPool one(1);
  ThreadPool three(3);
  for (const Case& c : cases()) {
    for (const RoutingPolicy routing : {RoutingPolicy::kDeterministic, RoutingPolicy::kEcmp}) {
      const std::string label =
          c.name + (routing == RoutingPolicy::kEcmp ? "/ecmp" : "/deterministic");
      const Record serial = run_all(c.graph, routing, nullptr, c.faults, c.tail_faults);
      expect_identical(serial, run_all(c.graph, routing, &one, c.faults, c.tail_faults),
                       label + "/pool1");
      expect_identical(serial, run_all(c.graph, routing, &three, c.faults, c.tail_faults),
                       label + "/pool3");
      // Twice on the same pool: engines persist across Machines' calls.
      expect_identical(serial, run_all(c.graph, routing, &three, c.faults, c.tail_faults),
                       label + "/pool3b");
    }
  }
}

TEST(ParallelRounds, DisconnectedFlowsFailAtInjectionOnThePool) {
  ThreadPool pool(3);
  Machine m(disconnected_graph(), SimParams{}, {}, &pool);
  m.alltoall(1024);
  // Each host reaches the 5 others on its island and fails towards the 6
  // on the other one.
  EXPECT_EQ(m.fault_stats().flows_failed, 12u * 6u);
  EXPECT_EQ(m.fault_stats().flows_retried, 0u);
}

TEST(ParallelRounds, AlltoallvCallbackRunsOnTheCallerOncePerPair) {
  ThreadPool pool(3);
  Machine m(random_graph(48, 10, 5), SimParams{}, {}, &pool);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> calls(48 * 48, 0);
  std::vector<std::pair<Rank, Rank>> order;
  bool on_caller = true;
  m.alltoallv([&](Rank a, Rank b) -> std::uint64_t {
    on_caller = on_caller && std::this_thread::get_id() == caller;
    ++calls[a * 48 + b];
    order.emplace_back(a, b);
    return 1000;
  });
  EXPECT_TRUE(on_caller);
  for (Rank a = 0; a < 48; ++a) {
    for (Rank b = 0; b < 48; ++b) EXPECT_EQ(calls[a * 48 + b], a == b ? 0 : 1);
  }
  // Round by round: the shift (b - a) mod n never decreases.
  for (std::size_t i = 1; i < order.size(); ++i) {
    const auto shift = [](const std::pair<Rank, Rank>& p) { return (p.second + 48 - p.first) % 48; };
    EXPECT_LE(shift(order[i - 1]), shift(order[i]));
  }
}

TEST(ParallelRounds, MachineCalledFromPoolTasksRunsSerially) {
  // Machines on the pool's own workers: each collective runs its rounds
  // inline on that worker, and the results match a serial Machine.
  ThreadPool pool(2);
  const HostSwitchGraph g = random_graph(32, 8, 11);
  Machine serial(g, SimParams{}, {}, nullptr);
  const double want = serial.alltoall(2048);
  std::vector<double> got(6, 0.0);
  pool.parallel_for(got.size(), [&](std::size_t i) {
    Machine m(g, SimParams{}, {}, &pool);
    got[i] = m.alltoall(2048);
  });
  for (const double v : got) EXPECT_EQ(std::bit_cast<std::uint64_t>(v), std::bit_cast<std::uint64_t>(want));
}

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

TEST(ParallelRounds, CountersShowWhichPathEachCollectiveTook) {
  ThreadPool pool(2);
  const HostSwitchGraph g = random_graph(32, 8, 11);
  Machine healthy(g, SimParams{}, {}, &pool);
  std::uint64_t parallel = counter("sim.rounds.parallel");
  std::uint64_t serial = counter("sim.rounds.serial");
  healthy.alltoall(1024);
  EXPECT_EQ(counter("sim.rounds.parallel") - parallel, 31u);
  EXPECT_EQ(counter("sim.rounds.serial") - serial, 0u);

  // The event falls after round 0's transfer and applies as round 1 starts;
  // the 29 rounds after it run on the pool.
  Machine faulted(g, SimParams{}, {}, &pool);
  const SwitchId a = 0;
  const SwitchId b = g.neighbors(0)[0];
  faulted.inject_faults({{1e-6, FaultEvent::Kind::kLinkDown, a, b}});
  parallel = counter("sim.rounds.parallel");
  serial = counter("sim.rounds.serial");
  faulted.alltoall(1024);
  EXPECT_EQ(counter("sim.rounds.parallel") - parallel, 29u);
  EXPECT_EQ(counter("sim.rounds.serial") - serial, 2u);
  EXPECT_EQ(faulted.fault_stats().events_applied, 1u);

  // An event past the collective's end stays pending, so every round is
  // serial.
  Machine pending(g, SimParams{}, {}, &pool);
  pending.inject_faults({{1.0, FaultEvent::Kind::kLinkDown, a, b}});
  parallel = counter("sim.rounds.parallel");
  serial = counter("sim.rounds.serial");
  pending.alltoall(1024);
  EXPECT_EQ(counter("sim.rounds.parallel") - parallel, 0u);
  EXPECT_EQ(counter("sim.rounds.serial") - serial, 31u);
  EXPECT_EQ(pending.fault_stats().events_applied, 0u);
}

/// The `net.*` lines of a trace, without the wall-clock "ts" and the "tid"
/// of the thread that drained them.
std::vector<std::string> net_lines(const std::string& path) {
  std::vector<std::string> out;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"cat\":\"net\"") == std::string::npos) continue;
    for (const char* key : {"\"ts\":", "\"tid\":"}) {
      const std::size_t at = line.find(key);
      if (at != std::string::npos) line.erase(at, line.find(',', at) + 1 - at);
    }
    out.push_back(line);
  }
  return out;
}

TEST(ParallelRounds, TracedRunEqualsUntraced) {
  ThreadPool one(1);
  ThreadPool three(3);
  const std::string path = testing::TempDir() + "sim_parallel_rounds_traced.jsonl";
  for (const Case& c : cases()) {
    if (c.name != "np2_n48" && c.name != "early_fault_alltoall_n48") continue;
    for (const RoutingPolicy routing : {RoutingPolicy::kDeterministic, RoutingPolicy::kEcmp}) {
      const std::string label =
          c.name + (routing == RoutingPolicy::kEcmp ? "/ecmp" : "/deterministic");
      const Record untraced = run_all(c.graph, routing, nullptr, c.faults, c.tail_faults);
      std::vector<std::string> serial_lines;
      for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one, &three}) {
        const std::string run = label + "/pool" + std::to_string(pool ? pool->size() : 0);
        obs::SinkConfig config = obs::parse_sink(path);
        config.snapshot_ms = 0;
        ASSERT_TRUE(obs::configure(config));
        set_net_telemetry(NetTelemetryConfig{});
        net_detail::reset_for_tests();
        const std::uint64_t parallel = counter("sim.rounds.parallel");
        const Record traced = run_all(c.graph, routing, pool, c.faults, c.tail_faults);
        const std::uint64_t parallel_while_traced = counter("sim.rounds.parallel") - parallel;
        obs::flush();
        obs::configure(obs::SinkConfig{});
        const std::vector<std::string> lines = net_lines(path);
        std::remove(path.c_str());

        expect_identical(untraced, traced, run);
        // The tracer leaves the pool to the rounds it would run untraced.
        if (pool != nullptr) {
          EXPECT_GT(parallel_while_traced, 0u) << run;
        }
        ASSERT_FALSE(lines.empty()) << run;
        if (pool == nullptr) {
          serial_lines = lines;
        } else {
          EXPECT_EQ(lines, serial_lines) << run;
        }
      }
    }
  }
}

}  // namespace
}  // namespace orp
