#pragma once
// One communication round of the fluid flow engine (docs/sim.md): route a
// set of messages, run the max-min event loop until the last byte lands,
// and keep the round's flow table for its statistics and link loads.
//
// The engine owns only per-round state: the fair-share solver, the path
// store, the flow table, its link-load account and its telemetry
// collector. The topology, routing table, clock and fault queue belong to
// its caller (Machine), which lends them for each run(). That split lets a
// Machine run the rounds of one collective on several engines at once,
// one per pool participant (docs/sim.md, "Parallel rounds"), while a
// faulted run drives one engine serially. Traced or not, a round runs the
// same way: the caller opens its telemetry in round order, the engine
// fills it, and the caller commits it in round order (docs/telemetry.md).

#include <cstdint>
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

  friend bool operator==(const Message&, const Message&) = default;
};

/// Statistics of one round that moved flows.
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

/// How fault instants reach a running round. The owner of the topology
/// implements it; a round that no fault can interrupt runs without one.
class FaultHook {
 public:
  /// Absolute time of the earliest unapplied event; +inf when none is left.
  virtual double next_fault_time() const = 0;
  /// Applies every event due at or before absolute time `horizon`. Returns
  /// true when the routing table changed in place; the lent routes and
  /// host_dead then describe the degraded topology.
  virtual bool apply_faults(double horizon) = 0;

 protected:
  ~FaultHook() = default;
};

class FluidPhase {
 public:
  /// What a round routes on, lent for one run(). Only a fault hook may
  /// change it during the run.
  struct Network {
    const RoutingTable& routes;
    const std::vector<HostId>& rank_to_host;
    const std::vector<std::uint8_t>& host_dead;
    const SimParams& params;
  };

  /// What run() reports besides stats().
  struct Round {
    double elapsed = 0.0;  ///< seconds until the slowest message landed
    bool moved = false;    ///< flows ran, so stats() and the flow table are this round's
  };

  explicit FluidPhase(double link_bandwidth)
      : solver_(link_bandwidth), link_bandwidth_(link_bandwidth) {}

  /// Opens `net` for a round of `messages` while telemetry records
  /// (open_net_round); call on the caller, in round order.
  static void open_telemetry(const std::vector<Message>& messages, NetRound& net);

  /// Runs `messages` as round `index` of the caller's phase sequence (the
  /// ECMP flow keys hash it), starting at absolute time `clock`. `faults`
  /// may interrupt the round at its event instants. Flow failures and
  /// retries are added to `fault_stats`; an opened `net` receives the
  /// round's records, times relative to its start. A round of
  /// self-messages only moves nothing and leaves the previous round's
  /// statistics and flow table in place.
  Round run(const std::vector<Message>& messages, std::uint64_t index,
            const Network& network, double clock, FaultHook* faults,
            FaultStats& fault_stats, NetRound& net);

  /// Statistics of the last round that moved flows.
  const PhaseStats& stats() const noexcept { return stats_; }

  /// Per-link load of the last round that moved flows, from its final
  /// routes and flow table; built on the first call after the round.
  const LinkLoads& link_loads() const;

 private:
  /// Hands solver_ the live flows' routes without the host links each holds
  /// alone (docs/sim.md, "Private host links"); returns how many it left out.
  std::uint64_t load_solver(std::uint32_t num_hosts,
                            const std::vector<std::uint8_t>& active);

  FastFairShareSolver solver_;  ///< max-min allocator of the fluid loop
  PathStore paths_;  ///< the round's routes, host links included
  std::vector<PathRange> solver_ranges_;  ///< paths_ ranges given to solver_
  std::vector<std::uint32_t> host_link_flows_;  ///< live flows per host link
  std::vector<double> rates_;  ///< per-flow rates, kept current by solver_
  PhaseStats stats_;
  double transfer_s_ = 0.0;  ///< fluid time the last round's last byte moved
  std::uint32_t num_links_ = 0;  ///< of the routing table the last round ran on
  double link_bandwidth_;
  mutable LinkLoads loads_;  ///< link_loads(), valid unless loads_stale_
  mutable bool loads_stale_ = false;
  NetPhaseCollector net_;

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

  // The flow table, reused across rounds (the vectors keep their capacity).
  struct PhaseScratch {
    std::vector<std::uint64_t> remaining;
    std::vector<std::uint32_t> hops;
    std::vector<HostId> flow_src, flow_dst;
    std::vector<std::uint64_t> flow_key;
    std::vector<double> penalty;
    std::vector<std::uint8_t> failed, retried, active;
    std::vector<double> finish;
    // Bytes delivered as of phase time `since`, at `rate` (the solver's
    // rate, cached when the flow was last re-keyed).
    std::vector<double> delivered, since, rate;
    std::vector<std::uint32_t> stamp;
    FinishQueue queue;
    std::vector<FinishQueue::Entry> deferred;
  } scratch_;
};

}  // namespace orp
