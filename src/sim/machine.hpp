#pragma once
// The simulated parallel machine: a host-switch graph with routing, a
// fluid flow engine, and an MPI-like communication layer (§6.2.1's
// replacement for SimGrid + MVAPICH2).
//
// Execution model: applications are sequences of *steps*; each step is
// either per-rank computation or a communication phase (a set of messages
// injected simultaneously). Within a phase, flows share link bandwidth
// max-min fairly and the phase lasts until its slowest message finishes —
// this mirrors loosely-synchronous bulk applications like the NAS suite.
//
// Collectives decompose into rounds (phases) of point-to-point messages
// using the textbook algorithms MPI implementations pick at these sizes:
//   bcast/reduce     binomial tree
//   allreduce        recursive doubling (reduce+bcast for non-power-of-2)
//   allgather        recursive doubling (ring for non-power-of-2)
//   alltoall(v)      pairwise exchange (XOR partners for power-of-2 ranks)
//   barrier          zero-byte recursive doubling
//
// Parallel rounds (docs/sim.md). The Machine owns the topology, routing,
// clock, fault queue and telemetry; a FluidPhase engine runs one round on
// them. A collective of two or more rounds runs them on the Machine's
// thread pool, one engine per participant, when no fault event is left to
// apply, no tracer is recording, the pool has a worker and the caller is
// not one of them; otherwise it runs them one by one on the calling
// thread. Durations, fault counters and the state read back afterwards
// (now(), last_phase_stats(), link_loads()) are added and kept in round
// order, so every result is bit-identical for every pool size.

#include <cstdint>
#include <functional>
#include <vector>

#include "hsg/host_switch_graph.hpp"
#include "sim/fault.hpp"
#include "sim/fluid_phase.hpp"
#include "sim/params.hpp"
#include "sim/routing.hpp"
#include "sim/telemetry/telemetry.hpp"

namespace orp {

class ThreadPool;

class Machine : private FaultHook {
 public:
  using PhaseStats = orp::PhaseStats;

  /// `rank_to_host[i]` maps MPI rank i to a host; empty means identity.
  /// Collectives run their rounds on ThreadPool::global(), looked up at the
  /// first one that runs in parallel.
  Machine(const HostSwitchGraph& graph, const SimParams& params = {},
          std::vector<HostId> rank_to_host = {});
  /// The same on `pool`; nullptr runs every round on the calling thread.
  /// The pool must outlive the Machine and its copies.
  Machine(const HostSwitchGraph& graph, const SimParams& params,
          std::vector<HostId> rank_to_host, ThreadPool* pool);

  std::uint32_t num_ranks() const noexcept { return num_ranks_; }
  const SimParams& params() const noexcept { return params_; }
  /// Simulated seconds elapsed so far.
  double now() const noexcept { return clock_; }
  /// Resets the simulated clock (the topology/routing is reusable).
  void reset() noexcept { clock_ = 0.0; }

  /// Hop count of the route between two ranks (the end-to-end latency in
  /// links; equals l(h_i, h_j) of the underlying host-switch graph).
  std::uint32_t route_hops(Rank a, Rank b) const;

  // ---- fault injection (see sim/fault.hpp and docs/resilience.md) ------

  /// Schedules fault events. Events due at or before the current clock
  /// apply at the start of the next phase; later ones strike mid-phase at
  /// their timestamp. Merges with any not-yet-applied events.
  void inject_faults(std::vector<FaultEvent> events);
  const FaultStats& fault_stats() const noexcept { return fault_stats_; }
  /// True while the rank's host sits on a live switch.
  bool rank_alive(Rank r) const {
    ORP_REQUIRE(r < num_ranks_, "rank out of range");
    return !host_dead_[rank_to_host_[r]];
  }
  /// The (possibly degraded) topology the machine currently routes on.
  const HostSwitchGraph& graph() const noexcept { return graph_; }
  /// The routing table over graph(); its link ids are stable for the
  /// Machine's lifetime (link_loads() and telemetry use them).
  const RoutingTable& routes() const noexcept { return routes_; }

  // ---- steps: each advances the clock and returns its elapsed seconds --

  /// Every rank computes `flops` operations in parallel.
  double compute(double flops_per_rank);
  /// Injects all messages at once; returns when the last one lands. Runs
  /// on the calling thread.
  double phase(const std::vector<Message>& messages);

  // Rooted collectives throw std::invalid_argument when root >= num_ranks().
  double barrier();
  double bcast(std::uint64_t bytes, Rank root = 0);
  double reduce(std::uint64_t bytes, Rank root = 0);
  double allreduce(std::uint64_t bytes);
  double allgather(std::uint64_t bytes_per_rank);
  /// Pairwise-exchange all-to-all: every ordered pair exchanges
  /// `bytes_per_pair` bytes.
  double alltoall(std::uint64_t bytes_per_pair);
  /// All-to-all with per-pair sizes from `bytes(src, dst)`. The callback is
  /// called on the calling thread, exactly once per ordered pair of
  /// distinct ranks, round by round in round order, and never concurrently
  /// (rounds are built before they run, also when they run in parallel).
  /// A zero size sends nothing.
  double alltoallv(const std::function<std::uint64_t(Rank, Rank)>& bytes);

  /// Root scatters a distinct `bytes_per_rank` block to every rank
  /// (binomial tree; internal rounds forward whole subtree payloads).
  double scatter(std::uint64_t bytes_per_rank, Rank root = 0);
  /// Mirror of scatter: every rank's block converges on the root.
  double gather(std::uint64_t bytes_per_rank, Rank root = 0);
  /// Recursive-halving reduce-scatter: each rank ends with one reduced
  /// `bytes_per_rank` block (power-of-two ranks; pairwise fallback).
  double reduce_scatter(std::uint64_t bytes_per_rank);
  /// Ring allreduce (Rabenseifner-style bandwidth-optimal large-message
  /// algorithm): reduce-scatter ring then allgather ring over
  /// `bytes_total / ranks` chunks.
  double ring_allreduce(std::uint64_t bytes_total);

  /// Statistics of the most recent phase() that moved flows (collectives
  /// update it once per internal round; the last round's stats remain).
  const PhaseStats& last_phase_stats() const noexcept { return engines_[0].stats(); }
  /// Per-link load of the same phase: what each link carried over its
  /// transfer window. Traced phases build it anyway; otherwise the first
  /// call after a phase builds it.
  const LinkLoads& link_loads() const;

 private:
  /// Builds round `r` of a collective into `out` (handed over empty).
  using RoundBuilder = std::function<void(std::uint32_t r, std::vector<Message>& out)>;
  /// The one round driver of every collective: builds rounds [0, count) on
  /// the calling thread in round order and runs them, in parallel when
  /// parallel_pool() allows; returns their summed elapsed seconds.
  double run_rounds(std::uint32_t count, const RoundBuilder& build);
  /// The pool to run `count` rounds on now, or nullptr for the serial path.
  ThreadPool* parallel_pool(std::uint32_t count);

  // FaultHook: the serial engine's view of the fault queue.
  double next_fault_time() const override;
  bool apply_faults(double horizon) override { return apply_due_faults(horizon); }

  /// Applies every pending fault event with time <= horizon to the
  /// topology; updates routing in place and returns true when it changed
  /// (routes_.died_in_last_update() then names the links that went down).
  bool apply_due_faults(double horizon);
  FluidPhase::Network network() const {
    return {routes_, rank_to_host_, host_dead_, params_};
  }

  SimParams params_;
  HostSwitchGraph graph_;  ///< current (possibly degraded) topology
  RoutingTable routes_;
  std::uint32_t num_ranks_;
  std::vector<HostId> rank_to_host_;
  double clock_ = 0.0;
  std::uint64_t phase_counter_ = 0;  ///< decorrelates ECMP hashes across phases
  mutable LinkLoads link_loads_;
  mutable bool link_loads_stale_ = false;

  /// Round engines: [0] is the Machine's own, which ran the last round
  /// that moved flows; a parallel collective also uses one per extra pool
  /// participant.
  std::vector<FluidPhase> engines_;
  ThreadPool* pool_ = nullptr;
  bool global_pool_ = false;  ///< pool_ is ThreadPool::global(), not yet looked up

  // Fault state.
  std::vector<std::uint8_t> switch_dead_;
  std::vector<std::uint8_t> host_dead_;
  /// Adjacency frozen at switch death, so kSwitchUp can restore the links
  /// that are still restorable (kLinkDown on a dead switch's recorded edge
  /// removes it from here — the cable failed independently).
  std::vector<std::vector<SwitchId>> downed_adjacency_;
  std::vector<FaultEvent> pending_;  ///< sorted by time
  std::size_t next_event_ = 0;       ///< first unapplied entry of pending_
  FaultStats fault_stats_;

  // Network telemetry (no-op unless a JSONL tracer is active).
  NetPhaseCollector net_;
};

}  // namespace orp
