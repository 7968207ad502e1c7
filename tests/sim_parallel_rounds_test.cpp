// Parallel collective rounds: every collective must give bit-identical
// results whether its rounds run serially or on a thread pool of any size,
// also when fault events strike some of its rounds.
// A tracer only observes: a traced run takes the same paths as an untraced
// one, equals it, and records the same `net.*` lines at every pool size.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
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

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
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

/// How many bytes rank a sends rank b.
using PairBytes = std::function<std::uint64_t(Rank, Rank)>;

/// Round k of Machine::alltoallv(bytes) on n ranks: the pairwise exchange's
/// XOR partners for a power of two, shifted partners otherwise, without
/// the pairs that send nothing.
std::vector<Message> exchange_round(Rank n, std::uint32_t k, const PairBytes& bytes) {
  const std::uint32_t shift = k + 1;
  std::vector<Message> round;
  for (Rank r = 0; r < n; ++r) {
    const Rank partner = std::has_single_bit(n) ? (r ^ shift) : (r + shift) % n;
    if (const std::uint64_t size = bytes(r, partner)) round.push_back({r, partner, size});
  }
  return round;
}

/// A round of an exchange on a fresh Machine: its start on the clock, how
/// long after it the last byte moved and the last message landed, and its
/// fluid steps.
struct RoundTimes {
  double start = 0.0;
  double transfer = 0.0;
  double elapsed = 0.0;
  std::uint64_t steps = 0;
};

/// Runs rounds [0, count) of alltoallv(bytes) as phase() calls, after
/// injecting `events`. A phase() call runs one round as the collective's
/// serial loop does and takes the next phase index, so the rounds repeat
/// the collective's clock exactly.
std::vector<RoundTimes> exchange_rounds(const HostSwitchGraph& g, RoutingPolicy routing,
                                        const PairBytes& bytes, std::uint32_t count,
                                        std::vector<FaultEvent> events = {}) {
  SimParams params;
  params.routing = routing;
  Machine m(g, params, {}, nullptr);
  m.inject_faults(std::move(events));
  std::vector<RoundTimes> out;
  for (std::uint32_t k = 0; k < count; ++k) {
    RoundTimes& t = out.emplace_back();
    t.start = m.now();
    const std::uint64_t steps = counter("sim.phase.fluid_steps");
    t.elapsed = m.phase(exchange_round(m.num_ranks(), k, bytes));
    t.steps = counter("sim.phase.fluid_steps") - steps;
    t.transfer = m.link_loads().window_s;
  }
  return out;
}

constexpr std::uint64_t kFaultedBytes = 4096;

/// Uneven alltoallv sizes with zeros, so some rounds are sparse.
std::uint64_t uneven_bytes(Rank n, Rank a, Rank b) {
  return (a + 2 * b) % 5 == 0 || (a ^ b) > n / 2 ? 0 : 512 * (1 + (a * 7 + b) % 13);
}

/// One collective with fault events pending through it; each strikes one
/// of its rounds (mid-round, or due at its start).
struct FaultedCase {
  std::string name;
  HostSwitchGraph graph;
  std::vector<FaultEvent> events;  ///< absolute times
  bool alltoallv = false;
};

/// Eight cables that fail at times spread through [0, 0.8 T) of a
/// collective lasting T and come back 0.1 T later.
std::vector<FaultEvent> eight_link_faults(const HostSwitchGraph& g, double T) {
  std::vector<FaultEvent> events;
  for (SwitchId s = 0; s < g.num_switches() && events.size() < 8; ++s) {
    const SwitchId t = g.neighbors(s)[0];
    if (t < s) continue;
    const double down = (static_cast<double>(events.size()) + 0.5) / 8.0 * 0.8 * T;
    events.push_back({down, FaultEvent::Kind::kLinkDown, s, t});
  }
  const std::size_t downs = events.size();
  for (std::size_t e = 0; e < downs; ++e) {
    events.push_back({events[e].time + 0.1 * T, FaultEvent::Kind::kLinkUp, events[e].a,
                      events[e].b});
  }
  return events;
}

std::vector<FaultedCase> faulted_cases(RoutingPolicy routing) {
  SimParams params;
  params.routing = routing;
  std::vector<FaultedCase> out;
  const HostSwitchGraph g48 = random_graph(48, 10, 5);
  const HostSwitchGraph g64 = random_graph(64, 12, 3);
  for (const HostSwitchGraph* g : {&g48, &g64}) {
    Machine probe(*g, params, {}, nullptr);
    const double T = probe.alltoall(kFaultedBytes);
    out.push_back({"eight_links_alltoall_n" + std::to_string(g->num_hosts()), *g,
                   eight_link_faults(*g, T), false});
  }
  {
    Machine probe(g48, params, {}, nullptr);
    const Rank n = probe.num_ranks();
    const double T = probe.alltoallv([n](Rank a, Rank b) { return uneven_bytes(n, a, b); });
    out.push_back({"eight_links_alltoallv_n48", g48, eight_link_faults(g48, T), true});
  }
  // One cable of switch 0 fails in relation to round 10 of the n = 48
  // alltoall and comes back at round 20's start.
  const SwitchId far = g48.neighbors(0)[0];
  const PairBytes even = [](Rank, Rank) { return kFaultedBytes; };
  const std::vector<RoundTimes> rounds = exchange_rounds(g48, routing, even, 47);
  const RoundTimes& r10 = rounds[10];
  const auto link_fault = [&](std::string name, double at, double back, bool alltoallv) {
    out.push_back({std::move(name), g48,
                   {{at, FaultEvent::Kind::kLinkDown, 0, far},
                    {back, FaultEvent::Kind::kLinkUp, 0, far}},
                   alltoallv});
  };
  // Exactly at the round boundary: the serial loop applies it as round 10
  // starts.
  link_fault("round_boundary", r10.start, rounds[20].start, false);
  // In round 10's latency tail, after its last byte and before its last
  // message lands: round 10 stands, round 11 applies it.
  EXPECT_LT(r10.transfer, r10.elapsed);
  link_fault("latency_tail", r10.start + (r10.transfer + r10.elapsed) / 2, rounds[20].start,
             false);
  // At round 10's last byte on the clock: inside the margin, so the round
  // runs again.
  link_fault("at_transfer", r10.start + r10.transfer, rounds[20].start, false);
  // At the last round's start: the round that runs again is the one
  // last_phase_stats() and link_loads() read.
  out.push_back({"last_round", g48,
                 {{rounds.back().start, FaultEvent::Kind::kLinkDown, 0, far}},
                 false});
  // At a round's last byte on the clock, where the serial loop's own sum
  // clock + t + dt rounds one ulp higher, so the serial loop stops at the
  // event for one more fluid step: the pool's run of the round, without
  // that step, must not be kept. Uneven sizes give rounds of several fluid
  // steps, where the sums can differ.
  const PairBytes uneven = [](Rank a, Rank b) { return uneven_bytes(48, a, b); };
  const std::vector<RoundTimes> sparse = exchange_rounds(g48, routing, uneven, 47);
  double stops = -1.0;
  for (std::uint32_t k = 1; k < sparse.size() && stops < 0.0; ++k) {
    const double at = sparse[k].start + sparse[k].transfer;
    const std::vector<RoundTimes> struck = exchange_rounds(
        g48, routing, uneven, k + 1, {{at, FaultEvent::Kind::kLinkDown, 0, far}});
    if (struck[k].steps != sparse[k].steps) stops = at;
  }
  EXPECT_GE(stops, 0.0) << "no event at a round's last byte stops the serial loop";
  if (stops >= 0.0) link_fault("stops_at_transfer", stops, sparse.back().start, true);
  return out;
}

/// Runs the case's collective on a fresh Machine, then an allreduce on the
/// state it left; checks the alltoallv callback and how the rounds ran.
Record run_faulted(const FaultedCase& c, RoutingPolicy routing, ThreadPool* pool) {
  SimParams params;
  params.routing = routing;
  Machine m(c.graph, params, {}, pool);
  const Rank n = m.num_ranks();
  m.inject_faults(c.events);
  const std::uint64_t parallel = counter("sim.rounds.parallel");
  const std::uint64_t serial = counter("sim.rounds.serial");
  const std::uint64_t flows = counter("sim.flows");
  std::uint64_t messages = std::uint64_t{n} * (n - 1);
  Record rec;
  if (c.alltoallv) {
    std::vector<int> calls(std::size_t{n} * n, 0);
    std::vector<Rank> shifts;
    messages = 0;
    rec.observe("alltoallv", m.alltoallv([&](Rank a, Rank b) -> std::uint64_t {
      ++calls[std::size_t{a} * n + b];
      shifts.push_back((b + n - a) % n);
      messages += uneven_bytes(n, a, b) > 0;
      return uneven_bytes(n, a, b);
    }), m);
    for (Rank a = 0; a < n; ++a) {
      for (Rank b = 0; b < n; ++b) EXPECT_EQ(calls[std::size_t{a} * n + b], a == b ? 0 : 1);
    }
    EXPECT_TRUE(std::is_sorted(shifts.begin(), shifts.end())) << c.name;  // round order
  } else {
    rec.observe("alltoall", m.alltoall(kFaultedBytes), m);
  }
  const std::uint64_t ran_parallel = counter("sim.rounds.parallel") - parallel;
  const std::uint64_t ran_serial = counter("sim.rounds.serial") - serial;
  EXPECT_EQ(ran_parallel + ran_serial, n - 1) << c.name;  // each round once
  // Engine work counts the rounds kept, not the pool runs thrown away.
  EXPECT_EQ(counter("sim.flows") - flows, messages) << c.name;
  if (pool != nullptr) {
    EXPECT_GT(ran_serial, 0u) << c.name;  // a struck round ran again on the caller
  }
  EXPECT_EQ(m.fault_stats().events_applied, c.events.size()) << c.name;
  rec.observe("allreduce_after", m.allreduce(1 << 16), m);
  return rec;
}

TEST(ParallelRounds, FaultedCollectivesBitIdenticalAcrossPoolSizes) {
  ThreadPool one(1);
  ThreadPool three(3);
  for (const RoutingPolicy routing : {RoutingPolicy::kDeterministic, RoutingPolicy::kEcmp}) {
    for (const FaultedCase& c : faulted_cases(routing)) {
      const std::string label =
          c.name + (routing == RoutingPolicy::kEcmp ? "/ecmp" : "/deterministic");
      const Record serial = run_faulted(c, routing, nullptr);
      expect_identical(serial, run_faulted(c, routing, &one), label + "/pool1");
      expect_identical(serial, run_faulted(c, routing, &three), label + "/pool3");
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

TEST(ParallelRounds, CountersShowWhichPathEachCollectiveTook) {
  ThreadPool pool(2);
  const HostSwitchGraph g = random_graph(32, 8, 11);
  struct Counts {
    std::uint64_t parallel, serial, discarded;
  };
  const auto counts = [] {
    return Counts{counter("sim.rounds.parallel"), counter("sim.rounds.serial"),
                  counter("sim.rounds.discarded")};
  };
  const auto expect_delta = [&](const Counts& before, Counts want) {
    const Counts now = counts();
    EXPECT_EQ(now.parallel - before.parallel, want.parallel);
    EXPECT_EQ(now.serial - before.serial, want.serial);
    EXPECT_EQ(now.discarded - before.discarded, want.discarded);
  };
  Machine healthy(g, SimParams{}, {}, &pool);
  Counts before = counts();
  healthy.alltoall(1024);
  expect_delta(before, {31, 0, 0});

  // The event falls after round 0's transfer. The first window of three
  // rounds (one per participant) keeps round 0; round 1 finds the event
  // due at its start and runs again on the caller, which applies it, and
  // the pool's runs of rounds 1 and 2 are thrown away. With no event left,
  // the 29 rounds after it run on the pool.
  Machine faulted(g, SimParams{}, {}, &pool);
  const SwitchId a = 0;
  const SwitchId b = g.neighbors(0)[0];
  faulted.inject_faults({{1e-6, FaultEvent::Kind::kLinkDown, a, b}});
  before = counts();
  faulted.alltoall(1024);
  expect_delta(before, {30, 1, 2});
  EXPECT_EQ(faulted.fault_stats().events_applied, 1u);

  // An event past the collective's end stays pending and strikes no
  // round, so every round is kept from the pool.
  Machine pending(g, SimParams{}, {}, &pool);
  pending.inject_faults({{1.0, FaultEvent::Kind::kLinkDown, a, b}});
  before = counts();
  pending.alltoall(1024);
  expect_delta(before, {31, 0, 0});
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

/// Traces `run` with no pool and on pools of 1 and 3 workers: each traced
/// run equals `untraced`, the runs on a pool do take it, and every run
/// records the same `net.*` lines.
void expect_traced_equals_untraced(const std::string& label, const Record& untraced,
                                   const std::function<Record(ThreadPool*)>& run) {
  ThreadPool one(1);
  ThreadPool three(3);
  // One file per test: ctest may run the traced tests at once.
  const std::string path = testing::TempDir() + "sim_parallel_rounds_" +
                           testing::UnitTest::GetInstance()->current_test_info()->name() +
                           ".jsonl";
  std::vector<std::string> serial_lines;
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one, &three}) {
    const std::string name = label + "/pool" + std::to_string(pool ? pool->size() : 0);
    obs::SinkConfig config = obs::parse_sink(path);
    config.snapshot_ms = 0;
    ASSERT_TRUE(obs::configure(config));
    set_net_telemetry(NetTelemetryConfig{});
    net_detail::reset_for_tests();
    const std::uint64_t parallel = counter("sim.rounds.parallel");
    const Record traced = run(pool);
    const std::uint64_t parallel_while_traced = counter("sim.rounds.parallel") - parallel;
    obs::flush();
    obs::configure(obs::SinkConfig{});
    const std::vector<std::string> lines = net_lines(path);
    std::remove(path.c_str());

    expect_identical(untraced, traced, name);
    // The tracer leaves the pool to the rounds it would run untraced.
    if (pool != nullptr) {
      EXPECT_GT(parallel_while_traced, 0u) << name;
    }
    ASSERT_FALSE(lines.empty()) << name;
    if (pool == nullptr) {
      serial_lines = lines;
    } else {
      EXPECT_EQ(lines, serial_lines) << name;
    }
  }
}

TEST(ParallelRounds, TracedRunEqualsUntraced) {
  for (const Case& c : cases()) {
    if (c.name != "np2_n48" && c.name != "early_fault_alltoall_n48") continue;
    for (const RoutingPolicy routing : {RoutingPolicy::kDeterministic, RoutingPolicy::kEcmp}) {
      const std::string label =
          c.name + (routing == RoutingPolicy::kEcmp ? "/ecmp" : "/deterministic");
      expect_traced_equals_untraced(
          label, run_all(c.graph, routing, nullptr, c.faults, c.tail_faults),
          [&](ThreadPool* pool) {
            return run_all(c.graph, routing, pool, c.faults, c.tail_faults);
          });
    }
  }
}

TEST(ParallelRounds, FaultedTracedRunEqualsUntraced) {
  for (const RoutingPolicy routing : {RoutingPolicy::kDeterministic, RoutingPolicy::kEcmp}) {
    for (const FaultedCase& c : faulted_cases(routing)) {
      const std::string label =
          c.name + (routing == RoutingPolicy::kEcmp ? "/ecmp" : "/deterministic");
      expect_traced_equals_untraced(label, run_faulted(c, routing, nullptr),
                                    [&](ThreadPool* pool) { return run_faulted(c, routing, pool); });
    }
  }
}

}  // namespace
}  // namespace orp
