// Replayed calls (docs/sim.md): a Machine that replays a repeated call, or
// reuses the duration of a round equal to the one before it, must leave
// every observable bit-identical to one that simulates everything. The
// reference Machines here never replay: a fault event scheduled far past
// the end of the run stays pending (a pending event turns replays off and
// never strikes), or a tracer records.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "common/thread_pool.hpp"
#include "hsg/bounds.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "search/random_init.hpp"
#include "sim/machine.hpp"
#include "sim/nas.hpp"
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

/// Keeps `m` from replaying: an event that stays pending for the whole run.
void never_replay(Machine& m) {
  const SwitchId a = 0;
  const SwitchId b = m.graph().neighbors(0)[0];
  m.inject_faults({{1e9, FaultEvent::Kind::kLinkDown, a, b}});
}

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

/// Record entries that sum over a Machine's life: the clock and the fault
/// counters.
bool accumulates(const std::string& what) {
  return what.ends_with(".now") || what.find(".faults.") != std::string::npos;
}

using Step = std::function<double(Machine&)>;

struct NamedStep {
  std::string name;
  Step run;
};

/// Every keyed call: the nine builder collectives, alltoall and phase().
std::vector<NamedStep> keyed_calls(std::uint32_t n) {
  const Rank root = n / 3;
  std::vector<Message> messages;
  for (Rank r = 0; r < n; ++r) messages.push_back({r, (r * 5 + 1) % n, 100000});
  // Self-messages only: the call consumes a phase index and moves nothing.
  std::vector<Message> selves;
  for (Rank r = 0; r < n; ++r) selves.push_back({r, r, 4096});
  return {
      {"phase", [messages](Machine& m) { return m.phase(messages); }},
      {"self_phase", [selves](Machine& m) { return m.phase(selves); }},
      {"barrier", [](Machine& m) { return m.barrier(); }},
      {"bcast", [root](Machine& m) { return m.bcast(4096, root); }},
      {"reduce", [root](Machine& m) { return m.reduce(8192, root); }},
      {"allreduce", [](Machine& m) { return m.allreduce(1 << 16); }},
      {"allgather", [](Machine& m) { return m.allgather(3000); }},
      {"scatter", [root](Machine& m) { return m.scatter(2048, root); }},
      {"gather", [root](Machine& m) { return m.gather(2048, root); }},
      {"reduce_scatter", [](Machine& m) { return m.reduce_scatter(1024); }},
      {"ring_allreduce", [](Machine& m) { return m.ring_allreduce(1 << 20); }},
      {"alltoall", [](Machine& m) { return m.alltoall(4096); }},
  };
}

struct Graph {
  std::string name;
  HostSwitchGraph graph;
};

std::vector<Graph> graphs() {
  std::vector<Graph> out;
  out.push_back({"pow2_n64", random_graph(64, 12, 3)});
  // Ring allgather, reduce + bcast allreduce, shifted alltoall partners.
  out.push_back({"np2_n48", random_graph(48, 10, 5)});
  // Flows between the islands fail at injection in every round.
  out.push_back({"disconnected_n12", disconnected_graph()});
  return out;
}

TEST(Replay, RepeatedCallEqualsTheCallOnAFreshMachine) {
  ThreadPool pool(2);
  for (const Graph& g : graphs()) {
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      for (const NamedStep& step : keyed_calls(g.graph.num_hosts())) {
        const std::string label =
            g.name + "/" + step.name + (p != nullptr ? "/pool" : "/serial");
        Machine fresh(g.graph, SimParams{}, {}, p);
        Record first;
        first.observe(step.name, step.run(fresh), fresh);

        Machine reference(g.graph, SimParams{}, {}, nullptr);
        never_replay(reference);
        Record want;
        want.observe("first", step.run(reference), reference);
        want.observe("second", step.run(reference), reference);

        Machine warm(g.graph, SimParams{}, {}, p);
        Record got;
        got.observe("first", step.run(warm), warm);
        const std::uint64_t phases = counter("sim.phases");
        const std::uint64_t replayed = counter("sim.rounds.replayed");
        const double again = step.run(warm);
        // Read before observe(): link_loads() simulates the replayed round.
        const std::uint64_t phases_run = counter("sim.phases") - phases;
        const std::uint64_t rounds_replayed = counter("sim.rounds.replayed") - replayed;
        got.observe("second", again, warm);
        expect_identical(want, got, label);

        // The repeat, on its own, is the call on a fresh Machine.
        Record repeat;
        repeat.observe(step.name, again, warm);
        for (std::size_t i = 0; i < first.what.size(); ++i) {
          if (accumulates(first.what[i])) continue;
          EXPECT_EQ(first.bits[i], repeat.bits[i]) << label << ": " << first.what[i];
        }
#ifndef ORP_OBS_DISABLED
        EXPECT_EQ(phases_run, 0u) << label;
        if (step.name == "self_phase") {
          EXPECT_EQ(rounds_replayed, 0u) << label;
        } else {
          EXPECT_GT(rounds_replayed, 0u) << label;
        }
#else
        (void)phases_run;
        (void)rounds_replayed;
#endif
      }
    }
  }
}

TEST(Replay, FailedFlowsOfAReplayedCallCountAgain) {
  Machine m(disconnected_graph(), SimParams{}, {}, nullptr);
  m.alltoall(1024);
  EXPECT_EQ(m.fault_stats().flows_failed, 12u * 6u);
  m.alltoall(1024);
  EXPECT_EQ(m.fault_stats().flows_failed, 2u * 12u * 6u);
}

/// Runs all eight NAS kernels on one Machine, recording each kernel's
/// result and the Machine after it. `work` collects the engine phases plus
/// replayed rounds of each kernel (without the round link_loads() may
/// simulate after it).
Record run_kernels(Machine& m, double fraction,
                   std::vector<std::uint64_t>* work = nullptr) {
  Record rec;
  for (const NasKernel kernel : all_nas_kernels()) {
    const std::string name = nas_kernel_name(kernel);
    const std::uint64_t phases = counter("sim.phases");
    const std::uint64_t replayed = counter("sim.rounds.replayed");
    const NasResult result = run_nas_kernel(m, kernel, NasOptions{fraction});
    if (work != nullptr) {
      work->push_back(counter("sim.phases") - phases + counter("sim.rounds.replayed") -
                      replayed);
    }
    rec.add(name + ".comm_seconds", result.comm_seconds);
    rec.add(name + ".mops_per_second", result.mops_per_second);
    rec.observe(name, result.seconds, m);
  }
  return rec;
}

TEST(Replay, NasKernelsEqualTheSimulatedRun) {
  const HostSwitchGraph g = random_graph(64, 12, 17);
  for (const double fraction : {0.1, 1.0}) {
    const std::string label = "fraction " + std::to_string(fraction);
    Machine reference(g, SimParams{}, {}, nullptr);
    never_replay(reference);
    const Record want = run_kernels(reference, fraction);
    Machine replaying(g, SimParams{}, {}, nullptr);
    const std::uint64_t replayed = counter("sim.rounds.replayed");
    expect_identical(want, run_kernels(replaying, fraction), label);
#ifndef ORP_OBS_DISABLED
    EXPECT_GT(counter("sim.rounds.replayed"), replayed) << label;
#else
    (void)replayed;
#endif
  }
}

#ifndef ORP_OBS_DISABLED
TEST(Replay, NasKernelsUntracedEqualTraced) {
  // A tracer turns replays off, so the traced run simulates every phase;
  // the untraced run replays, and takes each skipped phase as a replayed
  // round.
  const HostSwitchGraph g = random_graph(64, 12, 17);
  for (const double fraction : {0.1, 1.0}) {
    const std::string label = "fraction " + std::to_string(fraction);
    Machine untraced_machine(g, SimParams{}, {}, nullptr);
    std::vector<std::uint64_t> untraced_work;
    const std::uint64_t replayed = counter("sim.rounds.replayed");
    const Record untraced = run_kernels(untraced_machine, fraction, &untraced_work);
    EXPECT_GT(counter("sim.rounds.replayed"), replayed) << label;

    const std::string path = testing::TempDir() + "sim_replay_traced.jsonl";
    obs::SinkConfig config = obs::parse_sink(path);
    config.snapshot_ms = 0;
    ASSERT_TRUE(obs::configure(config));
    NetTelemetryConfig telemetry;
    telemetry.enabled = false;  // the trace stays small; spans suffice
    set_net_telemetry(telemetry);
    net_detail::reset_for_tests();
    Machine traced_machine(g, SimParams{}, {}, nullptr);
    const std::uint64_t replayed_traced = counter("sim.rounds.replayed");
    std::vector<std::uint64_t> traced_work;
    const Record traced = run_kernels(traced_machine, fraction, &traced_work);
    const std::uint64_t replayed_while_traced =
        counter("sim.rounds.replayed") - replayed_traced;
    obs::flush();
    obs::configure(obs::SinkConfig{});
    set_net_telemetry(NetTelemetryConfig{});
    std::remove(path.c_str());

    EXPECT_EQ(replayed_while_traced, 0u) << label;
    expect_identical(traced, untraced, label);
    // Engine phases plus replayed rounds: the same work, kernel by kernel.
    EXPECT_EQ(traced_work, untraced_work) << label;
  }
}
#endif  // ORP_OBS_DISABLED

TEST(Replay, NotAcrossAFaultThatChangedTheTopology) {
  // The cable fails between two identical alltoalls: the second one routes
  // on the degraded graph, as a fresh Machine on that graph does.
  const HostSwitchGraph g = random_graph(64, 12, 3);
  const SwitchId a = 0;
  const SwitchId b = g.neighbors(0)[0];
  HostSwitchGraph degraded = g;
  degraded.remove_switch_edge(a, b);

  Machine fresh(degraded, SimParams{}, {}, nullptr);
  const double want = fresh.alltoall(4096);
  const PhaseStats want_stats = fresh.last_phase_stats();
  const double want_utilization = fresh.link_loads().max_utilization;

  Machine m(g, SimParams{}, {}, nullptr);
  const double healthy = m.alltoall(4096);
  m.inject_faults({{m.now(), FaultEvent::Kind::kLinkDown, a, b}});
  m.phase({{0, 0, 1}});  // applies the fault, moves nothing
  ASSERT_EQ(m.fault_stats().events_applied, 1u);
  const std::uint64_t replayed = counter("sim.rounds.replayed");
  const double got = m.alltoall(4096);  // no event pending: may look up the memo
  EXPECT_EQ(counter("sim.rounds.replayed"), replayed);
  ASSERT_NE(std::bit_cast<std::uint64_t>(healthy), std::bit_cast<std::uint64_t>(got))
      << "the fault must change the alltoall for this test to see a stale replay";
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want), std::bit_cast<std::uint64_t>(got));
  const PhaseStats& stats = m.last_phase_stats();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want_stats.elapsed),
            std::bit_cast<std::uint64_t>(stats.elapsed));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want_stats.mean_hops),
            std::bit_cast<std::uint64_t>(stats.mean_hops));
  EXPECT_EQ(want_stats.flows, stats.flows);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want_utilization),
            std::bit_cast<std::uint64_t>(m.link_loads().max_utilization));
}

TEST(Replay, LinkLoadsAfterAReplayUseTheTopologyOfTheReplay) {
  // A replay, then a fault injected before anyone asks for link loads: the
  // loads still describe the replayed round on the healthy topology.
  const HostSwitchGraph g = random_graph(64, 12, 3);
  std::vector<Message> messages;
  for (Rank r = 0; r < 64; ++r) messages.push_back({r, (r * 7 + 3) % 64, 50000});
  Machine healthy(g, SimParams{}, {}, nullptr);
  Record want;
  want.observe("phase", healthy.phase(messages), healthy);

  Machine m(g, SimParams{}, {}, nullptr);
  m.phase(messages);
  const double replayed = m.phase(messages);
  const SwitchId b = g.neighbors(0)[0];
  m.inject_faults({{m.now(), FaultEvent::Kind::kLinkDown, 0, b}});
  m.phase({{0, 0, 1}});  // applies the fault, moves nothing
  ASSERT_EQ(m.fault_stats().events_applied, 1u);
  Record got;
  got.observe("phase", replayed, m);
  for (std::size_t i = 0; i < want.what.size(); ++i) {
    if (accumulates(want.what[i])) continue;
    EXPECT_EQ(want.bits[i], got.bits[i]) << want.what[i];
  }
}

#ifndef ORP_OBS_DISABLED
TEST(Replay, NotWhileAnEventIsPending) {
  const HostSwitchGraph g = random_graph(64, 12, 3);
  Machine m(g, SimParams{}, {}, nullptr);
  never_replay(m);
  m.alltoall(4096);
  const std::uint64_t phases = counter("sim.phases");
  const std::uint64_t replayed = counter("sim.rounds.replayed");
  m.alltoall(4096);
  EXPECT_EQ(counter("sim.rounds.replayed"), replayed);
  EXPECT_EQ(counter("sim.phases") - phases, 63u);
}

TEST(Replay, NotUnderEcmp) {
  // The phase index is hashed into every ECMP flow key, so no two calls
  // are equal.
  const HostSwitchGraph g = random_graph(48, 10, 5);
  SimParams params;
  params.routing = RoutingPolicy::kEcmp;
  std::vector<Message> messages;
  for (Rank r = 0; r < 48; ++r) messages.push_back({r, (r * 5 + 1) % 48, 100000});
  ThreadPool pool(2);
  Machine m(g, params, {}, &pool);
  const std::uint64_t replayed = counter("sim.rounds.replayed");
  const std::uint64_t phases = counter("sim.phases");
  for (int i = 0; i < 2; ++i) {
    m.phase(messages);
    m.alltoall(4096);
    m.ring_allreduce(1 << 16);  // 2 * 47 rounds
  }
  EXPECT_EQ(counter("sim.rounds.replayed"), replayed);
  EXPECT_EQ(counter("sim.phases") - phases, 2u * (1 + 47 + 94));
}

TEST(Replay, NotAcrossAReset) {
  const HostSwitchGraph g = random_graph(64, 12, 3);
  Machine fresh(g, SimParams{}, {}, nullptr);
  Record want;
  want.observe("alltoall", fresh.alltoall(4096), fresh);

  Machine m(g, SimParams{}, {}, nullptr);
  m.alltoall(4096);
  m.reset();
  const std::uint64_t replayed = counter("sim.rounds.replayed");
  const std::uint64_t phases = counter("sim.phases");
  const double again = m.alltoall(4096);
  EXPECT_EQ(counter("sim.rounds.replayed"), replayed);
  EXPECT_EQ(counter("sim.phases") - phases, 63u);
  Record got;
  got.observe("alltoall", again, m);
  expect_identical(want, got, "after reset");
}

TEST(Replay, NeverForAlltoallv) {
  const HostSwitchGraph g = random_graph(48, 10, 5);
  Machine m(g, SimParams{}, {}, nullptr);
  std::vector<int> calls(48 * 48, 0);
  const auto sizes = [&calls](Rank a, Rank b) -> std::uint64_t {
    ++calls[a * 48 + b];
    return 1000;
  };
  const std::uint64_t replayed = counter("sim.rounds.replayed");
  const double first = m.alltoallv(sizes);
  const double second = m.alltoallv(sizes);
  EXPECT_EQ(counter("sim.rounds.replayed"), replayed);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(first), std::bit_cast<std::uint64_t>(second));
  for (Rank a = 0; a < 48; ++a) {
    for (Rank b = 0; b < 48; ++b) EXPECT_EQ(calls[a * 48 + b], a == b ? 0 : 2);
  }
}

TEST(Replay, PastTheBudgetCallsSimulateEveryTime) {
  // Distinct phases of n messages each hold more than n * sizeof(Message)
  // bytes, so at most `fits` of them fill the memo; the ones recorded before
  // still replay, the ones after simulate again, and every result matches
  // the reference.
  constexpr Rank n = 64;
  constexpr std::size_t fits = Machine::kReplayBudget / (n * sizeof(Message));
  constexpr std::size_t calls = fits + 24;
  const auto phase_of = [](std::size_t k) {
    std::vector<Message> messages;
    for (Rank r = 0; r < n; ++r) {
      messages.push_back({r, static_cast<Rank>((r + 1 + k % (n - 1)) % n), 512 + k});
    }
    return messages;
  };
  const HostSwitchGraph g = random_graph(n, 12, 3);
  Machine reference(g, SimParams{}, {}, nullptr);
  never_replay(reference);
  Machine m(g, SimParams{}, {}, nullptr);
  Record want, got;
  const auto step = [&](std::size_t k) {
    const std::vector<Message> messages = phase_of(k);
    want.add("phase" + std::to_string(k), reference.phase(messages));
    got.add("phase" + std::to_string(k), m.phase(messages));
  };
  for (std::size_t k = 0; k < calls; ++k) step(k);

  std::uint64_t phases = counter("sim.phases");
  std::uint64_t replayed = counter("sim.rounds.replayed");
  for (std::size_t k = 0; k < 16; ++k) step(k);
  EXPECT_EQ(counter("sim.rounds.replayed") - replayed, 16u);
  EXPECT_EQ(counter("sim.phases") - phases, 16u);  // the reference's

  phases = counter("sim.phases");
  replayed = counter("sim.rounds.replayed");
  for (std::size_t k = calls - 16; k < calls; ++k) step(k);
  EXPECT_EQ(counter("sim.rounds.replayed") - replayed, 0u);
  EXPECT_EQ(counter("sim.phases") - phases, 32u);

  want.observe("end", 0.0, reference);
  got.observe("end", 0.0, m);
  expect_identical(want, got, "past the budget");
}
#endif  // ORP_OBS_DISABLED

TEST(Replay, ResetRestartsTheEcmpPhaseIndex) {
  // Under ECMP a kernel's result depends on the phase index; reset() zeroes
  // it, so a kernel gives the same result whatever ran on the Machine
  // before.
  const HostSwitchGraph g = random_graph(64, 12, 29);
  SimParams params;
  params.routing = RoutingPolicy::kEcmp;
  const NasOptions options{0.2};
  Machine fresh(g, params);
  Record want;
  want.observe("FT", run_nas_kernel(fresh, NasKernel::kFT, options).seconds, fresh);

  Machine twice(g, params);
  run_nas_kernel(twice, NasKernel::kFT, options);
  Record again;
  again.observe("FT", run_nas_kernel(twice, NasKernel::kFT, options).seconds, twice);
  expect_identical(want, again, "FT after FT");

  Machine after_is(g, params);
  run_nas_kernel(after_is, NasKernel::kIS, options);
  Record after;
  after.observe("FT", run_nas_kernel(after_is, NasKernel::kFT, options).seconds,
                after_is);
  expect_identical(want, after, "FT after IS");
}

}  // namespace
}  // namespace orp
