#include "sim/machine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/require.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace orp {
namespace {

struct SimInstruments {
  obs::Counter& fault_events;
  obs::Counter& fault_rebuilds;
  obs::Counter& fault_repairs;
  obs::Counter& rounds_parallel;
  obs::Counter& rounds_serial;
  obs::Counter& rounds_discarded;
  obs::Counter& rounds_replayed;

  static SimInstruments& get() {
    auto& registry = obs::Registry::global();
    static SimInstruments instance{registry.counter("sim.fault.events"),
                                   registry.counter("sim.fault.rebuilds"),
                                   registry.counter("sim.fault.repairs"),
                                   registry.counter("sim.rounds.parallel"),
                                   registry.counter("sim.rounds.serial"),
                                   registry.counter("sim.rounds.discarded"),
                                   registry.counter("sim.rounds.replayed")};
    return instance;
  }
};

/// Rounds built ahead per pool participant while no fault event is
/// pending: enough to balance uneven rounds across the participants, few
/// enough to keep the built messages small beside the engines. A pending
/// event shrinks the window towards the round it is expected to strike,
/// to one round per participant at least, since an event throws away the
/// rounds after the one it strikes.
constexpr std::size_t kRoundsPerParticipant = 8;

/// Relative margin between a round's end of transfer and the next fault
/// event, far above the rounding of the engine's clock + t + dt sums: a
/// round run without the fault hook is kept only past it.
constexpr double kFaultMargin = 1e-12;

const SimParams& validated(const SimParams& params) {
  const auto duration = [](double s) { return std::isfinite(s) && s >= 0.0; };
  ORP_REQUIRE(std::isfinite(params.host_gflops) && params.host_gflops > 0.0,
              "host_gflops must be finite and positive");
  ORP_REQUIRE(duration(params.hop_latency), "hop_latency must be finite and >= 0");
  ORP_REQUIRE(duration(params.mpi_overhead), "mpi_overhead must be finite and >= 0");
  ORP_REQUIRE(duration(params.retry_backoff), "retry_backoff must be finite and >= 0");
  ORP_REQUIRE(duration(params.retry_timeout), "retry_timeout must be finite and >= 0");
  return params;
}

/// The `op` arg of a `sim.replay` span, by Machine::Op.
constexpr const char* kOpNames[] = {
    "phase",  "barrier", "bcast",          "reduce",         "allreduce", "allgather",
    "scatter", "gather", "reduce_scatter", "ring_allreduce", "alltoall",  "alltoallv"};

std::uint64_t mix(std::uint64_t h, std::uint64_t word) {
  h = (h ^ word) * 0x9e3779b97f4a7c15ULL;
  return h ^ (h >> 29);
}

}  // namespace

Machine::Machine(const HostSwitchGraph& graph, const SimParams& params,
                 std::vector<HostId> rank_to_host)
    : Machine(graph, params, std::move(rank_to_host), nullptr) {
  global_pool_ = true;
}

Machine::Machine(const HostSwitchGraph& graph, const SimParams& params,
                 std::vector<HostId> rank_to_host, ThreadPool* pool)
    : params_(validated(params)),
      graph_(graph),
      routes_(graph_),
      num_ranks_(graph.num_hosts()),
      rank_to_host_(std::move(rank_to_host)),
      engines_(1, FluidPhase(params.link_bandwidth)),
      pool_(pool) {
  if (rank_to_host_.empty()) {
    rank_to_host_.resize(num_ranks_);
    std::iota(rank_to_host_.begin(), rank_to_host_.end(), 0);
  }
  ORP_REQUIRE(rank_to_host_.size() == num_ranks_, "rank map size mismatch");
  std::vector<std::uint8_t> seen(num_ranks_, 0);
  for (const HostId h : rank_to_host_) {
    ORP_REQUIRE(h < num_ranks_ && !seen[h], "rank map must be a permutation of hosts");
    seen[h] = 1;
  }
  switch_dead_.assign(graph_.num_switches(), 0);
  host_dead_.assign(num_ranks_, 0);
  downed_adjacency_.assign(graph_.num_switches(), {});
}

void Machine::reset() noexcept {
  clock_ = 0.0;
  phase_counter_ = 0;
  memo_.clear();
  memo_bytes_ = 0;
}

void Machine::inject_faults(std::vector<FaultEvent> events) {
  for (const FaultEvent& e : events) {
    ORP_REQUIRE(std::isfinite(e.time) && e.time >= 0.0,
                "fault event time must be finite and non-negative");
    ORP_REQUIRE(e.a < graph_.num_switches(), "fault event switch out of range");
    if (e.kind == FaultEvent::Kind::kLinkDown ||
        e.kind == FaultEvent::Kind::kLinkUp) {
      ORP_REQUIRE(e.b < graph_.num_switches() && e.a != e.b,
                  "fault event link endpoints invalid");
    }
  }
  // A replayed round must be re-run on the topology it was replayed on.
  if (!events.empty()) rerun_replayed();
  // Drop the already-applied prefix, merge, and keep time order (stable so
  // same-instant events apply in injection order).
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(next_event_));
  next_event_ = 0;
  pending_.insert(pending_.end(), events.begin(), events.end());
  std::stable_sort(
      pending_.begin(), pending_.end(),
      [](const FaultEvent& x, const FaultEvent& y) { return x.time < y.time; });
}

bool Machine::apply_due_faults(double horizon) {
  SimInstruments& instruments = SimInstruments::get();
  bool changed = false;
  while (next_event_ < pending_.size() &&
         pending_[next_event_].time <= horizon) {
    const FaultEvent& e = pending_[next_event_++];
    ++fault_stats_.events_applied;
    instruments.fault_events.inc();
    // Drops {a, b} from a dead switch's frozen adjacency: the cable failed
    // on its own, so a later kSwitchUp must not resurrect it.
    const auto unrecord = [this](SwitchId a, SwitchId b) {
      auto& adj = downed_adjacency_[a];
      adj.erase(std::remove(adj.begin(), adj.end(), b), adj.end());
    };
    switch (e.kind) {
      case FaultEvent::Kind::kLinkDown:
        // A cable that is already gone (repeat event, or its switch died)
        // is a no-op rather than an error: fault schedules may overlap.
        if (graph_.has_switch_edge(e.a, e.b)) {
          graph_.remove_switch_edge(e.a, e.b);
          changed = true;
        } else {
          unrecord(e.a, e.b);
          unrecord(e.b, e.a);
        }
        break;
      case FaultEvent::Kind::kSwitchDown:
        if (!switch_dead_[e.a]) {
          switch_dead_[e.a] = 1;
          const auto span = graph_.neighbors(e.a);
          downed_adjacency_[e.a].assign(span.begin(), span.end());
          for (const SwitchId t : downed_adjacency_[e.a]) {
            graph_.remove_switch_edge(e.a, t);
          }
          for (HostId h = 0; h < graph_.num_hosts(); ++h) {
            if (graph_.host_switch(h) == e.a) host_dead_[h] = 1;
          }
          changed = true;
        }
        break;
      case FaultEvent::Kind::kLinkUp:
        // Inverse topology edit. Requires both endpoints alive (repair the
        // switch first — its kSwitchUp restores recorded cables), the edge
        // absent, and a free port on each end.
        if (!switch_dead_[e.a] && !switch_dead_[e.b] &&
            !graph_.has_switch_edge(e.a, e.b) && graph_.free_ports(e.a) > 0 &&
            graph_.free_ports(e.b) > 0) {
          graph_.add_switch_edge(e.a, e.b);
          ++fault_stats_.links_repaired;
          instruments.fault_repairs.inc();
          changed = true;
        }
        break;
      case FaultEvent::Kind::kSwitchUp:
        if (switch_dead_[e.a]) {
          switch_dead_[e.a] = 0;
          // Restore the pre-failure cables whose far end survived and
          // still has a port; re-admit the switch's hosts (their ranks
          // become routable again — failed flows stay failed, re-admission
          // is of ranks, not of past traffic).
          for (const SwitchId t : downed_adjacency_[e.a]) {
            if (!switch_dead_[t] && !graph_.has_switch_edge(e.a, t) &&
                graph_.free_ports(e.a) > 0 && graph_.free_ports(t) > 0) {
              graph_.add_switch_edge(e.a, t);
            }
          }
          downed_adjacency_[e.a].clear();
          for (HostId h = 0; h < graph_.num_hosts(); ++h) {
            if (graph_.host_switch(h) == e.a) host_dead_[h] = 0;
          }
          ++fault_stats_.switches_repaired;
          instruments.fault_repairs.inc();
          changed = true;
        }
        break;
    }
  }
  if (changed) {
    // In-place update: surviving cables keep their link ids, and the links
    // that lost their cable are flagged until the next update.
    routes_.update(graph_);
    ++fault_stats_.routing_rebuilds;
    instruments.fault_rebuilds.inc();
    memo_.clear();
    memo_bytes_ = 0;
  }
  return changed;
}

std::uint32_t Machine::route_hops(Rank a, Rank b) const {
  ORP_REQUIRE(a < num_ranks_ && b < num_ranks_, "rank out of range");
  if (a == b) return 0;
  std::vector<LinkId> scratch;
  return routes_.append_host_path(rank_to_host_[a], rank_to_host_[b], scratch);
}

double Machine::compute(double flops_per_rank) {
  ORP_REQUIRE(std::isfinite(flops_per_rank) && flops_per_rank >= 0,
              "flops must be finite and non-negative");
  const double elapsed = flops_per_rank / (params_.host_gflops * 1e9);
  clock_ += elapsed;
  return elapsed;
}

double Machine::next_fault_time() const {
  return next_event_ < pending_.size() ? pending_[next_event_].time
                                       : std::numeric_limits<double>::infinity();
}

double Machine::phase(const std::vector<Message>& messages) {
  if (messages.empty()) return 0.0;
  return run_rounds({Op::kPhase, 0, 0, &messages}, 1, nullptr);
}

FluidPhase::Round Machine::run_round(const std::vector<Message>& messages,
                                     std::uint64_t index, NetRound& net) {
  // Faults that struck between phases (or before the run) land now, so
  // injection already routes on the degraded topology.
  apply_due_faults(clock_);

  const FluidPhase::Round round =
      engines_[0].run(messages, index, network(), clock_, this, fault_stats_, net);
  if (!round.moved) return round;
  FluidPhase::count(round);
  replayed_.reset();
  commit_net_round(net, clock_);
  clock_ += round.elapsed;
  return round;
}

const LinkLoads& Machine::link_loads() const {
  rerun_replayed();
  return engines_[0].link_loads();
}

void Machine::rerun_replayed() const {
  if (!replayed_) return;
  // Replays run under deterministic routing, where the phase index keys
  // nothing, on the topology the call was recorded on. The re-run records
  // no telemetry: a replayed call's rounds were traced, if at all, when it
  // was first simulated.
  FaultStats unused;
  NetRound untraced;
  engines_[0].run(replayed_->messages, phase_counter_, network(), clock_, nullptr,
                  unused, untraced);
  replayed_.reset();
}

bool Machine::quiet() const { return next_event_ == pending_.size(); }

bool Machine::replayable() const {
  return params_.routing == RoutingPolicy::kDeterministic && quiet();
}

ThreadPool* Machine::parallel_pool(std::uint32_t count) {
  if (count < 2) return nullptr;
  if (global_pool_) {
    pool_ = &ThreadPool::global();
    global_pool_ = false;
  }
  if (pool_ == nullptr || pool_->size() == 0 || pool_->on_worker_thread()) return nullptr;
  return pool_;
}

double Machine::replay(const std::shared_ptr<const Replay>& call) {
  obs::Span span("sim.replay", "sim");
  // The additions the simulated call made, in the same order.
  double elapsed = 0.0;
  for (const double d : call->durations) {
    clock_ += d;
    elapsed += d;
  }
  phase_counter_ += call->phases;
  fault_stats_.flows_failed += call->flows_failed;
  if (!call->durations.empty()) replayed_ = call;
  SimInstruments::get().rounds_replayed.add(call->durations.size());
  if (span.active()) {
    span.arg("op", kOpNames[static_cast<std::size_t>(call->op)]);
    span.arg("rounds", std::uint64_t{call->durations.size()});
    span.arg("sim_elapsed_s", elapsed);
  }
  return elapsed;
}

double Machine::run_rounds(const Call& call, std::uint32_t count,
                           const RoundBuilder& build) {
  SimInstruments& instruments = SimInstruments::get();
  // Replayed calls (docs/sim.md): alltoallv's callback must see every call,
  // and outside replayable() a round also depends on the fault queue or the
  // phase index.
  const bool memo = call.op != Op::kAlltoallv && count > 0 && replayable();
  std::uint64_t key = 0;
  if (memo) {
    key = mix(mix(mix(0, static_cast<std::uint64_t>(call.op)), call.bytes), call.root);
    if (call.messages != nullptr) {
      for (const Message& m : *call.messages) {
        key = mix(mix(key, (std::uint64_t{m.src} << 32) | m.dst), m.bytes);
      }
    }
    for (auto [it, end] = memo_.equal_range(key); it != end; ++it) {
      const Replay& known = *it->second;
      if (known.op == call.op && known.bytes == call.bytes && known.root == call.root &&
          (call.messages == nullptr || known.messages == *call.messages)) {
        return replay(it->second);
      }
    }
  }
  const std::uint64_t first_phase = phase_counter_;
  const std::uint64_t failed_before = fault_stats_.flows_failed;
  std::vector<double> durations;
  std::vector<double>* record = memo ? &durations : nullptr;

  double elapsed = 0.0;
  std::uint32_t last_moved = count;  // the last round that moved flows
  if (ThreadPool* pool = parallel_pool(count)) {
    last_moved = run_parallel(*pool, count, build, elapsed, record);
  } else {
    std::vector<Message> round;
    for (std::uint32_t r = 0; r < count; ++r) {
      if (count >= 2) instruments.rounds_serial.inc();
      round.clear();
      if (call.messages == nullptr) build(r, round);
      const std::vector<Message>& messages = call.messages ? *call.messages : round;
      if (messages.empty()) continue;
      NetRound net;
      FluidPhase::open_telemetry(messages, net);
      const FluidPhase::Round result = run_round(messages, ++phase_counter_, net);
      if (!result.moved) continue;
      elapsed += result.elapsed;
      if (record != nullptr) record->push_back(result.elapsed);
      last_moved = r;
    }
  }
  if (!memo) return elapsed;

  auto known = std::make_shared<Replay>();
  known->op = call.op;
  known->bytes = call.bytes;
  known->root = call.root;
  if (call.messages != nullptr) {
    known->messages = *call.messages;
  } else if (last_moved < count) {
    build(last_moved, known->messages);  // the builders of keyed calls are pure
  }
  known->durations = std::move(durations);
  const std::size_t bytes = known->footprint();
  if (memo_bytes_ + bytes > kReplayBudget) return elapsed;
  known->phases = phase_counter_ - first_phase;
  known->flows_failed = fault_stats_.flows_failed - failed_before;
  if (last_moved < count) known->stats = engines_[0].stats();
  memo_bytes_ += bytes;
  memo_.emplace(key, std::move(known));
  return elapsed;
}

std::uint32_t Machine::run_parallel(ThreadPool& pool, std::uint32_t count,
                                    const RoundBuilder& build, double& elapsed,
                                    std::vector<double>* durations) {
  // Windows of rounds (docs/sim.md, "Parallel rounds"): built here in round
  // order (so builders, and the alltoallv callback, never run
  // concurrently), with their phase indices and telemetry opened here too,
  // then claimed by the pool participants through an atomic cursor, each
  // on its own engine, with no fault hook. Between two fault events the
  // topology is fixed, so a round then depends only on its messages and
  // its phase index. The rounds are kept in round order while the clock
  // shows that no event was due at a round's start or lands before its
  // last byte; the first round that fails the check runs again here as
  // the serial loop runs it, and the rounds after it carry into the next
  // window, already built and opened.
  SimInstruments& instruments = SimInstruments::get();
  const std::size_t participants = pool.size() + 1;
  engines_.resize(std::max(engines_.size(), participants),
                  FluidPhase(params_.link_bandwidth));
  struct Slot {
    std::vector<Message> messages;
    std::uint64_t index = 0;  ///< phase index; 0 for an empty round
    NetRound net;
    FluidPhase::Round result;
    FaultStats faults;
    std::size_t engine = 0;
  };
  // slots[0, size) hold rounds [first, first + size); the rest are spare
  // buffers.
  std::vector<Slot> slots(std::min<std::size_t>(kRoundsPerParticipant * participants, count));
  std::size_t size = 0;
  std::uint32_t last_moved = count;
  for (std::uint32_t first = 0; first < count;) {
    double window = static_cast<double>(slots.size());
    if (!quiet()) {
      // The rounds expected to start before the next event, at the mean
      // round duration so far, plus the one it strikes: a longer window
      // waits for its slowest round less often, a shorter one throws less
      // away.
      const double ahead = first > 0 && elapsed > 0.0
                               ? (next_fault_time() - clock_) / elapsed * first + 1.0
                               : 0.0;
      window = std::min(std::max(ahead, static_cast<double>(participants)), window);
    }
    const std::size_t end = std::min<std::size_t>(static_cast<std::size_t>(window), count - first);
    for (; size < end; ++size) {
      Slot& slot = slots[size];
      slot.messages.clear();
      build(first + static_cast<std::uint32_t>(size), slot.messages);
      slot.index = 0;
      if (slot.messages.empty()) continue;
      slot.index = ++phase_counter_;
      FluidPhase::open_telemetry(slot.messages, slot.net);
    }
    const FluidPhase::Network net = network();
    std::atomic<std::size_t> cursor{0};
    pool.parallel_for(participants, [&](std::size_t p) {
      FluidPhase& engine = engines_[p];
      for (std::size_t i; (i = cursor.fetch_add(1)) < size;) {
        Slot& slot = slots[i];
        if (slot.index == 0) continue;
        slot.faults = FaultStats{};
        slot.result = engine.run(slot.messages, slot.index, net, clock_, nullptr,
                                 slot.faults, slot.net);
        slot.engine = p;
      }
    });

    std::size_t last = participants;  // engine of the last kept round that moved
    std::size_t done = 0;
    for (; done < size; ++done) {
      Slot& slot = slots[done];
      // An empty round runs nothing, so no event reaches it. Any other
      // round is the serial loop's only when no event was due at its start
      // (the serial loop would apply it first) and none lands before its
      // last byte moved (it would strike mid-round).
      if (slot.index != 0 &&
          !(next_fault_time() > (clock_ + slot.result.transfer) * (1.0 + kFaultMargin))) {
        break;
      }
      instruments.rounds_parallel.inc();
      if (slot.index == 0) continue;
      // Collective rounds hold no self-messages, so every non-empty round
      // moves flows; the engine state below relies on it.
      ORP_ASSERT(slot.result.moved);
      // Round order, as the serial loop adds them. Without a fault hook
      // flows fail only at injection (a dead or partitioned endpoint).
      fault_stats_.flows_failed += slot.faults.flows_failed;
      fault_stats_.flows_retried += slot.faults.flows_retried;
      fault_stats_.retry_added_latency += slot.faults.retry_added_latency;
      FluidPhase::count(slot.result);
      commit_net_round(slot.net, clock_);
      clock_ += slot.result.elapsed;
      elapsed += slot.result.elapsed;
      if (durations != nullptr) durations->push_back(slot.result.elapsed);
      last = slot.engine;
      last_moved = first + static_cast<std::uint32_t>(done);
    }
    if (done < size) {
      // An event is due: this round runs again on engine 0 with the fault
      // hook, keeping its phase index and opened telemetry. The pool's
      // runs of it and of the rounds after it are thrown away.
      instruments.rounds_discarded.add(static_cast<std::uint64_t>(std::count_if(
          slots.begin() + static_cast<std::ptrdiff_t>(done),
          slots.begin() + static_cast<std::ptrdiff_t>(size),
          [](const Slot& s) { return s.index != 0; })));
      instruments.rounds_serial.inc();
      Slot& slot = slots[done];
      const FluidPhase::Round result = run_round(slot.messages, slot.index, slot.net);
      ORP_ASSERT(result.moved);
      elapsed += result.elapsed;
      if (durations != nullptr) durations->push_back(result.elapsed);
      last = 0;
      last_moved = first + static_cast<std::uint32_t>(done);
      ++done;
    }
    if (last < participants) {
      // The engine of the last round that moved flows becomes the
      // Machine's own, so last_phase_stats() and link_loads() read it.
      // Any engine that ran a later, thrown-away round lost its state, but
      // a re-run round is then the last one and ran on engine 0.
      if (last != 0) std::swap(engines_[0], engines_[last]);
      replayed_.reset();
    }
    // The rounds after a re-run carry over, built and opened.
    std::rotate(slots.begin(), slots.begin() + static_cast<std::ptrdiff_t>(done),
                slots.begin() + static_cast<std::ptrdiff_t>(size));
    size -= done;
    first += static_cast<std::uint32_t>(done);
  }
  return last_moved;
}

// ---- collectives -------------------------------------------------------
//
// Each collective hands its rounds to run_rounds() as a builder. The
// binomial and recursive-doubling schedules take ceil(log2 n) rounds,
// with round k at stride 2^k (or 2^(L-1-k) for the top-down trees).

namespace {

std::uint32_t log_rounds(std::uint32_t num_ranks) {
  return num_ranks > 1 ? static_cast<std::uint32_t>(std::bit_width(num_ranks - 1)) : 0;
}

/// Rounds of a ring or pairwise schedule: one per other rank.
std::uint32_t ring_rounds(std::uint32_t num_ranks) {
  return num_ranks > 0 ? num_ranks - 1 : 0;
}

/// The alltoall builder: pairwise exchange over ring_rounds(n) rounds, XOR
/// partners when n is a power of two (perfect pairing), shifted partners
/// otherwise; `bytes(src, dst)` sizes each pair, and zero sends nothing.
template <class Bytes>
auto pairwise_exchange(std::uint32_t n, const Bytes& bytes) {
  return [n, &bytes](std::uint32_t k, std::vector<Message>& round) {
    const bool pow2 = std::has_single_bit(n);
    const std::uint32_t shift = k + 1;
    round.reserve(n);
    for (Rank r = 0; r < n; ++r) {
      const Rank partner = pow2 ? (r ^ shift) : (r + shift) % n;
      const std::uint64_t size = bytes(r, partner);
      if (size > 0) round.push_back({r, partner, size});
    }
  };
}

}  // namespace

double Machine::barrier() {
  // Zero-byte recursive-doubling dissemination.
  const std::uint32_t n = num_ranks_;
  return run_rounds({Op::kBarrier}, log_rounds(n),
                    [n](std::uint32_t k, std::vector<Message>& round) {
    const std::uint32_t stride = 1u << k;
    round.reserve(n);
    for (Rank r = 0; r < n; ++r) round.push_back({r, (r + stride) % n, 0});
  });
}

double Machine::bcast(std::uint64_t bytes, Rank root) {
  // Binomial tree rooted at `root` (rank math done relative to the root).
  ORP_REQUIRE(root < num_ranks_, "root out of range");
  const std::uint32_t n = num_ranks_;
  return run_rounds({Op::kBcast, bytes, root}, log_rounds(n),
                    [=](std::uint32_t k, std::vector<Message>& round) {
    const std::uint32_t stride = 1u << k;
    for (Rank rel = 0; rel < stride && rel + stride < n; ++rel) {
      round.push_back({(root + rel) % n, (root + rel + stride) % n, bytes});
    }
  });
}

double Machine::reduce(std::uint64_t bytes, Rank root) {
  // Binomial tree, mirrored: same phases as bcast in reverse order; the
  // fluid model is direction-symmetric so the elapsed time matches a
  // proper reduction schedule.
  ORP_REQUIRE(root < num_ranks_, "root out of range");
  const std::uint32_t n = num_ranks_;
  const std::uint32_t rounds = log_rounds(n);
  return run_rounds({Op::kReduce, bytes, root}, rounds,
                    [=](std::uint32_t k, std::vector<Message>& round) {
    const std::uint32_t stride = 1u << (rounds - 1 - k);
    for (Rank rel = 0; rel < stride && rel + stride < n; ++rel) {
      round.push_back({(root + rel + stride) % n, (root + rel) % n, bytes});
    }
  });
}

double Machine::allreduce(std::uint64_t bytes) {
  const std::uint32_t n = num_ranks_;
  if (std::has_single_bit(n)) {
    // Recursive doubling: log2(n) rounds of pairwise exchanges.
    return run_rounds({Op::kAllreduce, bytes}, log_rounds(n),
                      [=](std::uint32_t k, std::vector<Message>& round) {
      round.reserve(n);
      for (Rank r = 0; r < n; ++r) round.push_back({r, r ^ (1u << k), bytes});
    });
  }
  return reduce(bytes, 0) + bcast(bytes, 0);
}

double Machine::allgather(std::uint64_t bytes_per_rank) {
  const std::uint32_t n = num_ranks_;
  if (std::has_single_bit(n)) {
    // Recursive doubling: exchanged block doubles every round.
    return run_rounds({Op::kAllgather, bytes_per_rank}, log_rounds(n),
                      [=](std::uint32_t k, std::vector<Message>& round) {
      round.reserve(n);
      for (Rank r = 0; r < n; ++r) round.push_back({r, r ^ (1u << k), bytes_per_rank << k});
    });
  }
  // Ring allgather: n-1 rounds of neighbor forwarding.
  return run_rounds({Op::kAllgather, bytes_per_rank}, ring_rounds(n),
                    [=](std::uint32_t, std::vector<Message>& round) {
    round.reserve(n);
    for (Rank r = 0; r < n; ++r) round.push_back({r, (r + 1) % n, bytes_per_rank});
  });
}

double Machine::scatter(std::uint64_t bytes_per_rank, Rank root) {
  // Binomial tree, top stride first: each internal send carries the whole
  // payload of the receiving subtree (stride * bytes_per_rank, clipped to
  // the ranks that actually exist).
  ORP_REQUIRE(root < num_ranks_, "root out of range");
  const std::uint32_t n = num_ranks_;
  const std::uint32_t rounds = log_rounds(n);
  return run_rounds({Op::kScatter, bytes_per_rank, root}, rounds,
                    [=](std::uint32_t k, std::vector<Message>& round) {
    const std::uint32_t stride = 1u << (rounds - 1 - k);
    for (Rank rel = 0; rel < stride && rel + stride < n; ++rel) {
      const std::uint32_t subtree = std::min(stride, n - (rel + stride));
      round.push_back({(root + rel) % n, (root + rel + stride) % n,
                       bytes_per_rank * subtree});
    }
  });
}

double Machine::gather(std::uint64_t bytes_per_rank, Rank root) {
  // Mirror of scatter: subtree payloads converge up the binomial tree.
  ORP_REQUIRE(root < num_ranks_, "root out of range");
  const std::uint32_t n = num_ranks_;
  return run_rounds({Op::kGather, bytes_per_rank, root}, log_rounds(n),
                    [=](std::uint32_t k, std::vector<Message>& round) {
    const std::uint32_t stride = 1u << k;
    for (Rank rel = 0; rel < stride && rel + stride < n; ++rel) {
      const std::uint32_t subtree = std::min(stride, n - (rel + stride));
      round.push_back({(root + rel + stride) % n, (root + rel) % n,
                       bytes_per_rank * subtree});
    }
  });
}

double Machine::reduce_scatter(std::uint64_t bytes_per_rank) {
  const std::uint32_t n = num_ranks_;
  if (std::has_single_bit(n)) {
    // Recursive halving: the exchanged block halves every round, starting
    // at half the full vector.
    const std::uint32_t rounds = log_rounds(n);
    const std::uint64_t block = bytes_per_rank * (n / 2);
    return run_rounds({Op::kReduceScatter, bytes_per_rank}, rounds,
                      [=](std::uint32_t k, std::vector<Message>& round) {
      const std::uint32_t stride = 1u << (rounds - 1 - k);
      round.reserve(n);
      for (Rank r = 0; r < n; ++r) round.push_back({r, r ^ stride, block >> k});
    });
  }
  // Fallback: reduce to rank 0, then scatter the blocks.
  return reduce(bytes_per_rank * num_ranks_, 0) + scatter(bytes_per_rank, 0);
}

double Machine::ring_allreduce(std::uint64_t bytes_total) {
  // Bandwidth-optimal large-message allreduce: n-1 reduce-scatter steps
  // plus n-1 allgather steps, each forwarding one 1/n chunk to the ring
  // neighbor. Total bytes on the wire per rank: 2 (n-1)/n * bytes_total.
  const std::uint32_t n = num_ranks_;
  const std::uint64_t chunk = std::max<std::uint64_t>(1, bytes_total / n);
  return run_rounds({Op::kRingAllreduce, bytes_total}, 2 * ring_rounds(n),
                    [=](std::uint32_t, std::vector<Message>& round) {
    round.reserve(n);
    for (Rank r = 0; r < n; ++r) round.push_back({r, (r + 1) % n, chunk});
  });
}

double Machine::alltoall(std::uint64_t bytes_per_pair) {
  const auto size = [bytes_per_pair](Rank, Rank) { return bytes_per_pair; };
  return run_rounds({Op::kAlltoall, bytes_per_pair}, ring_rounds(num_ranks_),
                    pairwise_exchange(num_ranks_, size));
}

double Machine::alltoallv(const std::function<std::uint64_t(Rank, Rank)>& bytes) {
  return run_rounds({Op::kAlltoallv}, ring_rounds(num_ranks_),
                    pairwise_exchange(num_ranks_, bytes));
}

}  // namespace orp
