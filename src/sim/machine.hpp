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
// Collectives decompose into phases of point-to-point messages using the
// textbook algorithms MPI implementations pick at these sizes:
//   bcast/reduce     binomial tree
//   allreduce        recursive doubling (reduce+bcast for non-power-of-2)
//   allgather        recursive doubling (ring for non-power-of-2)
//   alltoall(v)      pairwise exchange (XOR partners for power-of-2 ranks)
//   barrier          zero-byte recursive doubling

#include <cstdint>
#include <functional>
#include <vector>

#include "hsg/host_switch_graph.hpp"
#include "sim/fairshare_fast.hpp"
#include "sim/fault.hpp"
#include "sim/params.hpp"
#include "sim/routing.hpp"
#include "sim/telemetry/telemetry.hpp"

namespace orp {

using Rank = std::uint32_t;

/// One point-to-point message of a communication phase.
struct Message {
  Rank src;
  Rank dst;
  std::uint64_t bytes;
};

class Machine {
 public:
  /// `rank_to_host[i]` maps MPI rank i to a host; empty means identity.
  Machine(const HostSwitchGraph& graph, const SimParams& params = {},
          std::vector<HostId> rank_to_host = {});

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
  /// Injects all messages at once; returns when the last one lands.
  double phase(const std::vector<Message>& messages);

  double barrier();
  double bcast(std::uint64_t bytes, Rank root = 0);
  double reduce(std::uint64_t bytes, Rank root = 0);
  double allreduce(std::uint64_t bytes);
  double allgather(std::uint64_t bytes_per_rank);
  /// Pairwise-exchange all-to-all: every ordered pair exchanges
  /// `bytes_per_pair` bytes.
  double alltoall(std::uint64_t bytes_per_pair);
  /// All-to-all with per-pair sizes from `bytes(src, dst)`.
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
  struct PhaseStats {
    double elapsed = 0.0;          ///< seconds, same value phase() returned
    double mean_hops = 0.0;        ///< average route length of the flows
    std::uint64_t flows = 0;

    // Graceful-degradation breakdown (all zero on a healthy run):
    std::uint64_t completed = 0;  ///< flows fully delivered
    std::uint64_t retried = 0;    ///< flows rerouted at least once
    std::uint64_t failed = 0;     ///< flows abandoned (no surviving route)
    double retry_added_latency = 0.0;  ///< summed backoff seconds
  };
  const PhaseStats& last_phase_stats() const noexcept { return stats_; }
  /// Per-link load of the same phase: what each link carried over its
  /// transfer window. Traced phases build it anyway; otherwise the first
  /// call after a phase builds it.
  const LinkLoads& link_loads() const;

 private:
  /// Applies every pending fault event with time <= horizon to the
  /// topology; updates routing in place and returns true when it changed
  /// (routes_.died_in_last_update() then names the links that went down).
  bool apply_due_faults(double horizon);
  /// Fills link_loads_ from the last phase's final routes and flow table.
  void account_link_loads() const;

  SimParams params_;
  HostSwitchGraph graph_;  ///< current (possibly degraded) topology
  RoutingTable routes_;
  std::uint32_t num_ranks_;
  std::vector<HostId> rank_to_host_;
  FastFairShareSolver solver_;  ///< max-min allocator of the fluid loop
  double clock_ = 0.0;
  PhaseStats stats_;
  double transfer_s_ = 0.0;  ///< fluid time the last phase's last byte moved
  mutable LinkLoads link_loads_;
  mutable bool link_loads_stale_ = false;
  std::uint64_t phase_counter_ = 0;  ///< decorrelates ECMP hashes across phases

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

  /// Hands solver_ the live flows' routes without the host links each holds
  /// alone (docs/sim.md, "Private host links"); returns how many it left out.
  std::uint64_t load_solver(const std::vector<std::uint8_t>& active);

  // Scratch reused across phases (the vectors keep their capacity).
  PathStore paths_;  ///< the phase's routes, host links included
  std::vector<PathRange> solver_ranges_;  ///< paths_ ranges given to solver_
  std::vector<std::uint32_t> host_link_flows_;  ///< live flows per host link
  std::vector<double> rates_;  ///< per-flow rates, kept current by solver_

  /// Min-queue of projected flow finish times (phase time) that drives
  /// the fluid event loop. A cold solve re-keys every flow at once, so
  /// those keys are sorted into a run consumed front to back; the few flows
  /// a warm solve re-keys go to a binary min-heap beside it. Invalidation
  /// is lazy: an entry is live only while its stamp equals its flow's
  /// current stamp, and dead entries are dropped when they surface.
  class FinishQueue {
   public:
    struct Entry {
      double time;
      std::uint32_t flow;
      std::uint32_t stamp;
    };
    void clear() {
      run_.clear();
      heap_.clear();
      cursor_ = 0;
    }
    /// Bulk re-key: append unordered, then sort_run() once.
    void add_to_run(const Entry& e) { run_.push_back(e); }
    void sort_run();
    void push(const Entry& e);
    std::size_t size() const { return run_.size() - cursor_ + heap_.size(); }
    /// The earliest live entry (dead ones are dropped on the way), or
    /// nullptr when none is left. pop() removes the entry it returned.
    const Entry* top(const std::vector<std::uint32_t>& stamps);
    void pop();
    /// Drops every dead entry (bounds growth under many warm re-keys).
    void compact(const std::vector<std::uint32_t>& stamps);

   private:
    static bool later(const Entry& a, const Entry& b) { return a.time > b.time; }
    static bool dead(const Entry& e, const std::vector<std::uint32_t>& stamps) {
      return e.stamp != stamps[e.flow];
    }

    std::vector<Entry> run_;   ///< sorted by time; [cursor_, end) pending
    std::vector<Entry> heap_;  ///< min-heap by time
    std::size_t cursor_ = 0;
    bool top_in_run_ = false;
  };

  struct PhaseScratch {
    std::vector<std::uint64_t> remaining;
    std::vector<std::uint32_t> hops;
    std::vector<HostId> flow_src, flow_dst;
    std::vector<std::uint64_t> flow_key;
    std::vector<double> penalty;
    std::vector<std::uint8_t> failed, retried, active;
    std::vector<double> finish;
    // Flow table: bytes delivered as of phase time `since`, at `rate`
    // (the solver's rate, cached when the flow was last re-keyed).
    std::vector<double> delivered, since, rate;
    std::vector<std::uint32_t> stamp;
    FinishQueue queue;
    std::vector<FinishQueue::Entry> deferred;
  } scratch_;
};

}  // namespace orp
