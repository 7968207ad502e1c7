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
// clock and fault queue; a FluidPhase engine runs one round on them. A
// collective of two or more rounds runs them on the Machine's thread pool,
// one engine per participant, whenever the pool has a worker and the
// caller is not one of them; otherwise it runs them one by one on the
// calling thread. Pool rounds run without the fault queue, in windows:
// a round is kept only when the clock shows that no fault event was due
// at its start or lands before its last byte, and the first round an
// event strikes runs again on the calling thread, with the fault queue,
// as the serial loop runs it. Durations, fault counters, telemetry
// records and the state read back afterwards (now(), last_phase_stats(),
// link_loads()) are added and kept in round order, so every result, and
// every `net.*` record of a traced run, is bit-identical for every pool
// size.
//
// Replayed calls (docs/sim.md). Under deterministic routing, with no fault
// event pending, a round is a pure function of its messages, so the
// Machine remembers whole calls: phase() by its messages, the other
// collectives except alltoallv() by (collective, bytes, root). A repeated
// call adds the recorded round durations to the clock in round order, as
// the first call did, instead of simulating again; a traced run marks it
// with one `sim.replay` span and no `net.*` records. The memo is cleared
// by reset() and by every fault that changes the topology, so results
// never depend on it.
//
// A tracer only observes: traced and untraced runs take the same paths.

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
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
  /// Starts a new run on the same topology and routing: zeroes the clock
  /// and the phase index (which ECMP hashes), and forgets every recorded
  /// call. The fault state and the last phase's statistics are kept.
  void reset() noexcept;

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

  /// Every rank computes `flops` operations in parallel (finite, >= 0).
  double compute(double flops_per_rank);
  /// Injects all messages at once; returns when the last one lands. Runs
  /// on the calling thread, or replays an identical earlier call.
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
  const PhaseStats& last_phase_stats() const noexcept {
    return replayed_ ? replayed_->stats : engines_[0].stats();
  }
  /// Per-link load of the same phase: what each link carried over its
  /// transfer window. Traced phases build it anyway; otherwise the first
  /// call after a phase builds it (after a replayed call, by simulating
  /// that call's last round once). Valid until the next step.
  const LinkLoads& link_loads() const;

  /// Bytes the replay memo holds at most (1 MiB, counted by
  /// Replay::footprint()); calls recorded past it are simulated every time.
  static constexpr std::size_t kReplayBudget = std::size_t{1} << 20;

 private:
  /// The collective a call runs, part of its replay key.
  enum class Op : std::uint8_t {
    kPhase, kBarrier, kBcast, kReduce, kAllreduce, kAllgather, kScatter,
    kGather, kReduceScatter, kRingAllreduce, kAlltoall, kAlltoallv
  };
  /// One call handed to run_rounds(): its replay key and, for kPhase, its
  /// one round.
  struct Call {
    Op op;
    std::uint64_t bytes = 0;
    Rank root = 0;
    const std::vector<Message>* messages = nullptr;
  };
  /// What a recorded call did, replayed in place of simulating it again.
  struct Replay {
    Op op;
    std::uint64_t bytes;
    Rank root;
    /// kPhase: the call's messages (its key); otherwise the messages of its
    /// last round that moved flows.
    std::vector<Message> messages;
    std::vector<double> durations;  ///< each round that moved flows, in order
    std::uint64_t phases = 0;       ///< phase indices the call consumed
    std::uint64_t flows_failed = 0; ///< flows that failed at injection
    PhaseStats stats;               ///< of the last round that moved flows

    /// Bytes the entry holds: itself, its two arrays, and its map node and
    /// shared_ptr control block (about 64 bytes).
    std::size_t footprint() const {
      return sizeof(Replay) + 64 + messages.size() * sizeof(Message) +
             durations.size() * sizeof(double);
    }
  };

  /// Builds round `r` of a collective into `out` (handed over empty).
  using RoundBuilder = std::function<void(std::uint32_t r, std::vector<Message>& out)>;
  /// Runs every call, collectives and phase() alike: replays `call` when
  /// the memo holds it; otherwise builds rounds [0, count) on the calling
  /// thread in round order and runs them, on the pool when parallel_pool()
  /// allows, and records the call when it may be replayed. Returns the
  /// rounds' summed elapsed seconds.
  double run_rounds(const Call& call, std::uint32_t count, const RoundBuilder& build);
  /// Runs rounds [0, count) on `pool`, re-running on the calling thread
  /// each round a fault event strikes, and adds each round's duration to
  /// clock_ and `elapsed` in round order (and to `durations` when given).
  /// Returns the last round that moved flows, or `count` when none did.
  std::uint32_t run_parallel(ThreadPool& pool, std::uint32_t count,
                             const RoundBuilder& build, double& elapsed,
                             std::vector<double>* durations);
  /// Runs `messages` as round `index` on engine 0 with the fault queue as
  /// its hook, after applying the events due now; when it moves flows,
  /// counts its work, commits its opened telemetry and advances the clock.
  FluidPhase::Round run_round(const std::vector<Message>& messages, std::uint64_t index,
                              NetRound& net);
  /// The pool to run `count` rounds on, or nullptr for the serial path.
  ThreadPool* parallel_pool(std::uint32_t count);
  /// True while no fault event is left to apply: a round then depends only
  /// on its messages and its phase index.
  bool quiet() const;
  /// True while a round is a pure function of its messages: quiet() under
  /// deterministic routing, which ignores the phase index.
  bool replayable() const;
  /// Advances the clock, the phase index and the fault counters as
  /// simulating `call` again would; returns its elapsed seconds.
  double replay(const std::shared_ptr<const Replay>& call);
  /// Simulates the last replayed call's last round on engine 0 again, so
  /// its flow table backs link_loads().
  void rerun_replayed() const;

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

  /// Round engines: [0] is the Machine's own, which ran the last round
  /// that moved flows (or re-runs a replayed one for link_loads()) and
  /// holds its link loads; a parallel collective also uses one per extra
  /// pool participant.
  mutable std::vector<FluidPhase> engines_;
  ThreadPool* pool_ = nullptr;
  bool global_pool_ = false;  ///< pool_ is ThreadPool::global(), not yet looked up

  /// Recorded calls by key hash (docs/sim.md, "Replayed calls"); entries
  /// are immutable and compared exactly on lookup.
  std::unordered_multimap<std::uint64_t, std::shared_ptr<const Replay>> memo_;
  std::size_t memo_bytes_ = 0;  ///< footprint of memo_, <= kReplayBudget
  /// The last replayed call that moved flows, while engine 0 does not hold
  /// its last round: last_phase_stats() reads it, link_loads() re-runs it.
  mutable std::shared_ptr<const Replay> replayed_;

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
};

}  // namespace orp
