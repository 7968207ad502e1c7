#include "sim/machine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/require.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace orp {
namespace {

struct SimInstruments {
  obs::Counter& phases;
  obs::Counter& flows;
  obs::Histogram& solve_ns;
  obs::Counter& fault_events;
  obs::Counter& fault_rebuilds;
  obs::Counter& fault_retries;
  obs::Counter& fault_failures;
  obs::Counter& fault_repairs;
  obs::Counter& fairshare_solves;
  obs::Counter& fairshare_warm_solves;
  obs::Counter& fairshare_refilled_routes;
  obs::Counter& fairshare_elided_links;
  obs::Counter& fluid_steps;

  static SimInstruments& get() {
    auto& registry = obs::Registry::global();
    static SimInstruments instance{registry.counter("sim.phases"),
                                   registry.counter("sim.flows"),
                                   registry.histogram("sim.phase.solve_ns"),
                                   registry.counter("sim.fault.events"),
                                   registry.counter("sim.fault.rebuilds"),
                                   registry.counter("sim.fault.retried_flows"),
                                   registry.counter("sim.fault.failed_flows"),
                                   registry.counter("sim.fault.repairs"),
                                   registry.counter("sim.fairshare.solves"),
                                   registry.counter("sim.fairshare.warm_solves"),
                                   registry.counter("sim.fairshare.refilled_routes"),
                                   registry.counter("sim.fairshare.elided_links"),
                                   registry.counter("sim.phase.fluid_steps")};
    return instance;
  }
};

}  // namespace

Machine::Machine(const HostSwitchGraph& graph, const SimParams& params,
                 std::vector<HostId> rank_to_host)
    : params_(params),
      graph_(graph),
      routes_(graph_),
      num_ranks_(graph.num_hosts()),
      rank_to_host_(std::move(rank_to_host)),
      solver_(params.link_bandwidth) {
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
  ORP_REQUIRE(flops_per_rank >= 0, "negative flops");
  const double elapsed = flops_per_rank / (params_.host_gflops * 1e9);
  clock_ += elapsed;
  return elapsed;
}

std::uint64_t Machine::load_solver(const std::vector<std::uint8_t>& active) {
  // A host link (ids [0, 2n): the route's first or last link) that carries
  // one live flow saturates only at level = capacity, and no filling level
  // exceeds capacity, so it never binds. Leaving it out of the tableau is
  // exact; a flow left with no links rides at line rate, as it would have.
  const std::vector<LinkId>& links = paths_.links;
  const std::size_t num_flows = paths_.size();
  host_link_flows_.assign(2 * static_cast<std::size_t>(routes_.num_hosts()), 0);
  for (std::size_t f = 0; f < num_flows; ++f) {
    const PathRange r = paths_.ranges[f];
    if (!active[f] || r.begin == r.end) continue;
    ++host_link_flows_[links[r.begin]];
    ++host_link_flows_[links[r.end - 1]];
  }
  solver_ranges_.resize(num_flows);
  std::uint64_t elided = 0;
  for (std::size_t f = 0; f < num_flows; ++f) {
    PathRange r = paths_.ranges[f];
    if (active[f] && r.begin != r.end) {
      // Every route holds two links at least: its up-link and down-link.
      const LinkId up = links[r.begin];
      const LinkId down = links[r.end - 1];
      if (host_link_flows_[up] == 1) {
        ++r.begin;
        ++elided;
      }
      if (host_link_flows_[down] == 1) {
        --r.end;
        ++elided;
      }
    }
    solver_ranges_[f] = r;
  }
  solver_.set_paths(links, solver_ranges_, active);
  return elided;
}

void Machine::FinishQueue::sort_run() {
  std::sort(run_.begin() + static_cast<std::ptrdiff_t>(cursor_), run_.end(),
            [](const Entry& a, const Entry& b) { return a.time < b.time; });
}

void Machine::FinishQueue::push(const Entry& e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), later);
}

const Machine::FinishQueue::Entry* Machine::FinishQueue::top(
    const std::vector<std::uint32_t>& stamps) {
  while (cursor_ < run_.size() && dead(run_[cursor_], stamps)) ++cursor_;
  while (!heap_.empty() && dead(heap_.front(), stamps)) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
  }
  const bool in_run = cursor_ < run_.size();
  if (!in_run && heap_.empty()) return nullptr;
  top_in_run_ = in_run && (heap_.empty() || run_[cursor_].time <= heap_.front().time);
  return top_in_run_ ? &run_[cursor_] : &heap_.front();
}

void Machine::FinishQueue::pop() {
  if (top_in_run_) {
    ++cursor_;
  } else {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
  }
}

void Machine::FinishQueue::compact(const std::vector<std::uint32_t>& stamps) {
  const auto is_dead = [&](const Entry& e) { return dead(e, stamps); };
  run_.erase(run_.begin(), run_.begin() + static_cast<std::ptrdiff_t>(cursor_));
  cursor_ = 0;
  run_.erase(std::remove_if(run_.begin(), run_.end(), is_dead), run_.end());
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(), is_dead), heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), later);
}

double Machine::phase(const std::vector<Message>& messages) {
  if (messages.empty()) return 0.0;

  SimInstruments& instruments = SimInstruments::get();
  obs::Span span("sim.phase", "sim");
  obs::ScopedTimer solve_timer(instruments.solve_ns);

  // Faults that struck between phases (or before the run) land now, so
  // injection below already routes on the degraded topology.
  apply_due_faults(clock_);

  // Build flow paths (self-messages are memcpy, modeled as free). A phase
  // of self-messages only moves nothing, so it leaves the last flow phase's
  // flow table, and with it last_phase_stats() and link_loads(), in place.
  ++phase_counter_;
  std::size_t num_flows = 0;
  for (const Message& m : messages) {
    ORP_REQUIRE(m.src < num_ranks_ && m.dst < num_ranks_, "rank out of range");
    num_flows += m.src != m.dst;
  }
  if (num_flows == 0) return 0.0;
  std::vector<std::uint64_t>& remaining = scratch_.remaining;
  std::vector<std::uint32_t>& hops = scratch_.hops;
  std::vector<HostId>& flow_src = scratch_.flow_src;
  std::vector<HostId>& flow_dst = scratch_.flow_dst;
  std::vector<std::uint64_t>& flow_key = scratch_.flow_key;
  std::vector<double>& penalty = scratch_.penalty;
  std::vector<std::uint8_t>& failed = scratch_.failed;
  std::vector<std::uint8_t>& retried = scratch_.retried;
  remaining.clear();
  hops.clear();
  flow_src.clear();
  flow_dst.clear();
  flow_key.clear();
  penalty.clear();
  failed.clear();
  retried.clear();
  std::size_t built = 0;

  // Routes flow f on the current topology, appending its links to the
  // phase's path store and pointing its range at them; returns its hop
  // count, or 0 with an empty range when no route survives (dead endpoint
  // or partitioned host pair).
  std::vector<LinkId>& links = paths_.links;
  const auto route_flow = [&](std::size_t f) -> std::uint32_t {
    PathRange& range = paths_.ranges[f];
    range.begin = range.end = static_cast<std::uint32_t>(links.size());
    const HostId src = flow_src[f];
    const HostId dst = flow_dst[f];
    if (host_dead_[src] || host_dead_[dst]) return 0;
    const std::uint32_t route_hops =
        params_.routing == RoutingPolicy::kEcmp
            ? routes_.try_append_host_path_ecmp(src, dst, flow_key[f], links)
            : routes_.try_append_host_path(src, dst, links);
    range.end = static_cast<std::uint32_t>(links.size());
    return route_hops;
  };

  links.clear();
  paths_.ranges.clear();
  for (const Message& m : messages) {
    if (m.src == m.dst) continue;
    const std::size_t f = built++;
    paths_.ranges.emplace_back();
    flow_src.push_back(rank_to_host_[m.src]);
    flow_dst.push_back(rank_to_host_[m.dst]);
    // Per-flow key: stable for a (src, dst) within a phase, varied across
    // phases so repeated rounds spread differently.
    flow_key.push_back((static_cast<std::uint64_t>(m.src) << 40) ^
                       (static_cast<std::uint64_t>(m.dst) << 16) ^
                       phase_counter_);
    remaining.push_back(m.bytes);
    penalty.push_back(0.0);
    failed.push_back(0);
    retried.push_back(0);
    hops.push_back(route_flow(f));
  }

  std::vector<std::uint8_t>& active = scratch_.active;
  std::vector<double>& finish = scratch_.finish;
  std::vector<double>& delivered = scratch_.delivered;
  std::vector<double>& since = scratch_.since;
  std::vector<double>& rate = scratch_.rate;
  std::vector<std::uint32_t>& stamp = scratch_.stamp;
  FinishQueue& queue = scratch_.queue;
  active.assign(num_flows, 1);
  finish.assign(num_flows, 0.0);
  delivered.assign(num_flows, 0.0);
  since.assign(num_flows, 0.0);
  rate.assign(num_flows, 0.0);
  stamp.assign(num_flows, 0);
  queue.clear();
  std::size_t active_count = num_flows;
  std::size_t ended = 0;  // flows completed or failed so far

  // Network telemetry (docs/telemetry.md): one load when no tracer is
  // active; otherwise the collector snapshots raw per-flow/per-link data
  // and defers all formatting to the sink flush.
  const bool tele = net_.begin_phase(clock_, num_flows);
  std::uint32_t fluid_steps = 0;
  const FastFairShareSolver::Stats solver_before = solver_.stats();
  std::uint64_t elided_links = 0;

  // Ends flow f at phase time `at`; every flow ends exactly once.
  const auto end_flow = [&](std::size_t f, double at) {
    ORP_ASSERT(active[f]);
    active[f] = 0;
    --active_count;
    ++ended;
    finish[f] = at;
  };
  for (std::size_t f = 0; f < num_flows; ++f) {
    if (hops[f] == 0) {
      // No surviving route at injection: the sender gives up after the
      // bounded detection timeout instead of hanging.
      failed[f] = 1;
      end_flow(f, params_.retry_timeout);
      ++fault_stats_.flows_failed;
      instruments.fault_failures.inc();
    } else if (remaining[f] == 0) {
      end_flow(f, 0.0);  // zero-byte messages finish at once (latency only)
    }
  }

  // Fluid simulation as an event loop (docs/sim.md, "The event loop"). Each
  // active flow carries (delivered bytes at `since`, `since`, rate), and a
  // min-queue holds its projected finish time. A step advances to the
  // earliest finish, ends every flow inside the batch window, and
  // re-solves; only the flows the solver reports as re-rated are re-keyed
  // (superseded queue entries die by their stamp). Completions within a
  // relative epsilon batch together, which keeps homogeneous collectives
  // at one solve per phase. Fault events due mid-phase interrupt the
  // advance at their timestamp: the topology degrades, routing updates in
  // place (link ids are port-stable), and every in-flight flow is re-pathed
  // — flows that were crossing a link that just died pay retry_backoff,
  // flows with no surviving route fail at the event time plus
  // retry_timeout.
  double t = 0.0;
  const auto left = [&](std::size_t f) {
    return static_cast<double>(remaining[f]) -
           (delivered[f] + rate[f] * (t - since[f]));
  };
  // Lowest rate any flow ran at this phase: bounds the dust term of the
  // batch rule in time units (left <= rate * slack + 1e-9 bytes).
  double rate_floor = std::numeric_limits<double>::infinity();
  bool rekey_all = true;  // the next solve is cold: rebuild the queue
  std::vector<FinishQueue::Entry>& deferred = scratch_.deferred;
  elided_links += load_solver(active);
  while (active_count > 0) {
    const std::vector<std::uint32_t>& rerated = solver_.solve(rates_);
    if (rekey_all) queue.clear();
    for (const std::uint32_t f : rerated) {
      delivered[f] += rate[f] * (t - since[f]);
      since[f] = t;
      rate[f] = rates_[f];
      ORP_ASSERT(rate[f] > 0.0);
      rate_floor = std::min(rate_floor, rate[f]);
      const FinishQueue::Entry e{
          t + (static_cast<double>(remaining[f]) - delivered[f]) / rate[f], f,
          ++stamp[f]};
      if (rekey_all) {
        queue.add_to_run(e);
      } else {
        queue.push(e);
      }
    }
    if (rekey_all) {
      queue.sort_run();
      rekey_all = false;
    } else if (queue.size() > 2 * active_count + 64) {
      queue.compact(stamp);
    }
    const FinishQueue::Entry* next = queue.top(stamp);
    ORP_ASSERT(next != nullptr);  // every active flow holds a live entry
    const std::uint32_t first = next->flow;
    const double dt = std::max(0.0, left(first) / rate[first]);

    if (next_event_ < pending_.size() &&
        pending_[next_event_].time < clock_ + t + dt) {
      // Progress to the fault instant, then apply every event due there.
      const double event_t = std::max(pending_[next_event_].time - clock_, t);
      ORP_ASSERT(event_t >= t);  // the clock is monotone (and not NaN)
      if (tele) {
        net_.on_segment(fluid_steps, clock_ + t, clock_ + event_t, paths_,
                        active, rates_);
      }
      ++fluid_steps;
      t = event_t;
      if (!apply_due_faults(clock_ + t)) continue;
      for (std::size_t f = 0; f < num_flows; ++f) {
        if (!active[f]) continue;
        ORP_ASSERT(rate[f] == solver_.rate_of(f));
        // Impacted: an endpoint died, or the route crosses a link that died
        // in this update (link ids are stable, so the old route still names
        // the cables it crossed).
        bool hit = host_dead_[flow_src[f]] || host_dead_[flow_dst[f]];
        if (!hit) {
          for (const LinkId l : paths_[f]) {
            if (routes_.died_in_last_update(l)) {
              hit = true;
              break;
            }
          }
        }
        hops[f] = route_flow(f);
        if (hops[f] == 0) {
          failed[f] = 1;
          end_flow(f, t + params_.retry_timeout);
          ++fault_stats_.flows_failed;
          instruments.fault_failures.inc();
          if (tele) net_.flow_done(f, rates_[f]);
        } else if (hit) {
          // Rerouted mid-flight: delivered bytes are kept, the reroute
          // costs one transport backoff.
          penalty[f] += params_.retry_backoff;
          fault_stats_.retry_added_latency += params_.retry_backoff;
          retried[f] = 1;
          ++fault_stats_.flows_retried;
          instruments.fault_retries.inc();
        }
      }
      // Every surviving flow was re-pathed, so the solver's tableau is
      // rebuilt from scratch: the next solve is cold and re-rates (and
      // re-keys) every active flow.
      elided_links += load_solver(active);
      rekey_all = true;
      continue;
    }

    if (tele) {
      net_.on_segment(fluid_steps, clock_ + t, clock_ + t + dt, paths_, active,
                      rates_);
    }
    ++fluid_steps;
    const double batch_window = dt * (1.0 + 1e-9) + 1e-15;
    const double slack = batch_window - dt;
    ORP_ASSERT(t + dt >= t);
    t += dt;
    // End `first` and every flow inside the batch window. Keys are
    // projected finish times, so a flow can only pass the batch rule when
    // its key lies within slack + 1e-9 / rate of t; candidates beyond the
    // rule (possible only through the dust term) are queued again.
    const double horizon = t + slack + 1e-9 / rate_floor + t * 1e-15;
    deferred.clear();
    while ((next = queue.top(stamp)) != nullptr) {
      const FinishQueue::Entry e = *next;
      if (e.flow != first && e.time > horizon) break;
      queue.pop();
      const std::size_t f = e.flow;
      const double bytes_left = left(f);
      if (f != first && bytes_left > rate[f] * slack + 1e-9) {
        deferred.push_back(e);
        continue;
      }
      // Cached rates are exact copies of the solver's, and a completed
      // flow delivered its bytes up to the batch window plus rounding.
      ORP_ASSERT(rate[f] == solver_.rate_of(f));
      ORP_ASSERT(std::abs(bytes_left) <=
                 1e-9 * static_cast<double>(remaining[f]) +
                     rate[f] * (slack + t * 1e-15) + 1e-9);
      end_flow(f, t);
      solver_.deactivate(f);
      if (tele) net_.flow_done(f, rates_[f]);
    }
    for (const FinishQueue::Entry& e : deferred) queue.push(e);
  }
  ORP_ASSERT(ended == num_flows);

  // Per-message wire latency + software overhead; the phase ends when the
  // slowest message has fully landed (failed flows end at their bounded
  // give-up time).
  double elapsed = 0.0;
  for (std::size_t f = 0; f < num_flows; ++f) {
    const double total =
        failed[f] ? finish[f]
                  : finish[f] + penalty[f] + params_.mpi_overhead +
                        hops[f] * params_.hop_latency;
    elapsed = std::max(elapsed, total);
  }

  // Phase statistics; the link loads are built on demand (link_loads()).
  stats_ = PhaseStats{};
  stats_.elapsed = elapsed;
  stats_.flows = num_flows;
  for (std::size_t f = 0; f < num_flows; ++f) {
    stats_.failed += failed[f];
    stats_.retried += retried[f];
    stats_.retry_added_latency += penalty[f];
  }
  stats_.completed = num_flows - stats_.failed;
  double hop_sum = 0.0;
  for (const std::uint32_t h : hops) hop_sum += h;
  stats_.mean_hops = hop_sum / static_cast<double>(num_flows);
  transfer_s_ = t;
  link_loads_stale_ = true;

  if (tele) {
    NetPhaseCollector::PhaseEnd end;
    end.elapsed_s = elapsed;
    end.steps = fluid_steps;
    end.failed_flows = static_cast<std::uint32_t>(stats_.failed);
    end.retried_flows = static_cast<std::uint32_t>(stats_.retried);
    end.loads = &link_loads();
    end.bytes = &remaining;
    end.finish = &finish;
    end.penalty = &penalty;
    end.hops = &hops;
    end.failed = &failed;
    end.src = &flow_src;
    end.dst = &flow_dst;
    end.params = &params_;
    net_.end_phase(end);
  }

  instruments.phases.inc();
  instruments.flows.add(num_flows);
  const FastFairShareSolver::Stats& solver_after = solver_.stats();
  instruments.fairshare_solves.add(solver_after.solves - solver_before.solves);
  instruments.fairshare_warm_solves.add(solver_after.warm_solves -
                                        solver_before.warm_solves);
  instruments.fairshare_refilled_routes.add(solver_after.refilled_routes -
                                            solver_before.refilled_routes);
  instruments.fairshare_elided_links.add(elided_links);
  instruments.fluid_steps.add(fluid_steps);
  if (span.active()) {
    span.arg("flows", static_cast<std::uint64_t>(num_flows));
    span.arg("sim_elapsed_s", elapsed);
    span.arg("mean_hops", stats_.mean_hops);
    if (stats_.retried || stats_.failed) {
      span.arg("flows_retried", stats_.retried);
      span.arg("flows_failed", stats_.failed);
      span.arg("retry_added_latency_s", stats_.retry_added_latency);
    }
  }

  clock_ += elapsed;
  return elapsed;
}

const LinkLoads& Machine::link_loads() const {
  if (link_loads_stale_) account_link_loads();
  return link_loads_;
}

void Machine::account_link_loads() const {
  // The one per-link byte pass of a phase. Link ids are stable for the
  // Machine's lifetime, so flows that ended before a mid-phase fault and
  // flows re-pathed after it share one numbering: each flow's bytes land
  // on the cables of its last route (a failed flow's route is empty).
  link_loads_stale_ = false;
  LinkLoads& loads = link_loads_;
  loads.links.assign(routes_.num_links(), {});
  loads.used.clear();
  loads.window_s = transfer_s_;
  loads.capacity_bytes = params_.link_bandwidth * transfer_s_;
  loads.max_utilization = 0.0;
  if (transfer_s_ <= 0.0) return;
  const std::vector<std::uint64_t>& bytes = scratch_.remaining;
  const std::vector<double>& finish = scratch_.finish;
  LinkLoads::Link* const account = loads.links.data();
  for (std::size_t f = 0; f < paths_.size(); ++f) {
    if (bytes[f] == 0) continue;
    const double flow_bytes = static_cast<double>(bytes[f]);
    const double mean_bps = finish[f] > 0.0 ? flow_bytes / finish[f] : 0.0;
    for (const LinkId l : paths_[f]) {
      LinkLoads::Link& link = account[l];
      link.slowest_bps = std::min(link.slowest_bps, mean_bps);
      link.bytes += flow_bytes;
      ++link.flows;
    }
  }
  // The used links in id order, which lets the telemetry's top-K select
  // turn ties away at once; branch-free, as used and idle ids interleave.
  loads.used.resize(loads.links.size());
  std::size_t used = 0;
  double peak = 0.0;
  for (LinkId l = 0; l < loads.links.size(); ++l) {
    loads.used[used] = l;
    used += account[l].flows != 0;
    peak = std::max(peak, account[l].bytes);
  }
  loads.used.resize(used);
  loads.max_utilization = peak / loads.capacity_bytes;
}

// ---- collectives -------------------------------------------------------

double Machine::barrier() {
  // Zero-byte recursive-doubling dissemination.
  double elapsed = 0.0;
  for (std::uint32_t stride = 1; stride < num_ranks_; stride <<= 1) {
    std::vector<Message> round;
    round.reserve(num_ranks_);
    for (Rank r = 0; r < num_ranks_; ++r) {
      round.push_back({r, (r + stride) % num_ranks_, 0});
    }
    elapsed += phase(round);
  }
  return elapsed;
}

double Machine::bcast(std::uint64_t bytes, Rank root) {
  // Binomial tree rooted at `root` (rank math done relative to the root).
  double elapsed = 0.0;
  for (std::uint32_t stride = 1; stride < num_ranks_; stride <<= 1) {
    std::vector<Message> round;
    for (Rank rel = 0; rel < stride && rel + stride < num_ranks_; ++rel) {
      const Rank src = (root + rel) % num_ranks_;
      const Rank dst = (root + rel + stride) % num_ranks_;
      round.push_back({src, dst, bytes});
    }
    elapsed += phase(round);
  }
  return elapsed;
}

double Machine::reduce(std::uint64_t bytes, Rank root) {
  // Binomial tree, mirrored: same phases as bcast in reverse order; the
  // fluid model is direction-symmetric so the elapsed time matches a
  // proper reduction schedule.
  double elapsed = 0.0;
  std::uint32_t top = std::bit_ceil(num_ranks_);
  for (std::uint32_t stride = top >> 1; stride >= 1; stride >>= 1) {
    std::vector<Message> round;
    for (Rank rel = 0; rel < stride && rel + stride < num_ranks_; ++rel) {
      const Rank src = (root + rel + stride) % num_ranks_;
      const Rank dst = (root + rel) % num_ranks_;
      round.push_back({src, dst, bytes});
    }
    elapsed += phase(round);
    if (stride == 1) break;
  }
  return elapsed;
}

double Machine::allreduce(std::uint64_t bytes) {
  if (std::has_single_bit(num_ranks_)) {
    // Recursive doubling: log2(n) rounds of pairwise exchanges.
    double elapsed = 0.0;
    for (std::uint32_t stride = 1; stride < num_ranks_; stride <<= 1) {
      std::vector<Message> round;
      round.reserve(num_ranks_);
      for (Rank r = 0; r < num_ranks_; ++r) round.push_back({r, r ^ stride, bytes});
      elapsed += phase(round);
    }
    return elapsed;
  }
  return reduce(bytes, 0) + bcast(bytes, 0);
}

double Machine::allgather(std::uint64_t bytes_per_rank) {
  if (std::has_single_bit(num_ranks_)) {
    // Recursive doubling: exchanged block doubles every round.
    double elapsed = 0.0;
    std::uint64_t block = bytes_per_rank;
    for (std::uint32_t stride = 1; stride < num_ranks_; stride <<= 1) {
      std::vector<Message> round;
      round.reserve(num_ranks_);
      for (Rank r = 0; r < num_ranks_; ++r) round.push_back({r, r ^ stride, block});
      elapsed += phase(round);
      block *= 2;
    }
    return elapsed;
  }
  // Ring allgather: n-1 rounds of neighbor forwarding.
  double elapsed = 0.0;
  for (std::uint32_t round_idx = 1; round_idx < num_ranks_; ++round_idx) {
    std::vector<Message> round;
    round.reserve(num_ranks_);
    for (Rank r = 0; r < num_ranks_; ++r) {
      round.push_back({r, (r + 1) % num_ranks_, bytes_per_rank});
    }
    elapsed += phase(round);
  }
  return elapsed;
}

double Machine::scatter(std::uint64_t bytes_per_rank, Rank root) {
  // Binomial tree, top stride first: each internal send carries the whole
  // payload of the receiving subtree (stride * bytes_per_rank, clipped to
  // the ranks that actually exist).
  double elapsed = 0.0;
  const std::uint32_t top = std::bit_ceil(num_ranks_);
  for (std::uint32_t stride = top >> 1; stride >= 1; stride >>= 1) {
    std::vector<Message> round;
    for (Rank rel = 0; rel < stride && rel + stride < num_ranks_; ++rel) {
      const std::uint32_t subtree =
          std::min(stride, num_ranks_ - (rel + stride));
      round.push_back({(root + rel) % num_ranks_,
                       (root + rel + stride) % num_ranks_,
                       bytes_per_rank * subtree});
    }
    elapsed += phase(round);
    if (stride == 1) break;
  }
  return elapsed;
}

double Machine::gather(std::uint64_t bytes_per_rank, Rank root) {
  // Mirror of scatter: subtree payloads converge up the binomial tree.
  double elapsed = 0.0;
  for (std::uint32_t stride = 1; stride < num_ranks_; stride <<= 1) {
    std::vector<Message> round;
    for (Rank rel = 0; rel < stride && rel + stride < num_ranks_; ++rel) {
      const std::uint32_t subtree =
          std::min(stride, num_ranks_ - (rel + stride));
      round.push_back({(root + rel + stride) % num_ranks_,
                       (root + rel) % num_ranks_, bytes_per_rank * subtree});
    }
    elapsed += phase(round);
  }
  return elapsed;
}

double Machine::reduce_scatter(std::uint64_t bytes_per_rank) {
  if (std::has_single_bit(num_ranks_)) {
    // Recursive halving: the exchanged block halves every round, starting
    // at half the full vector.
    double elapsed = 0.0;
    std::uint64_t block = bytes_per_rank * (num_ranks_ / 2);
    for (std::uint32_t stride = num_ranks_ / 2; stride >= 1; stride >>= 1) {
      std::vector<Message> round;
      round.reserve(num_ranks_);
      for (Rank r = 0; r < num_ranks_; ++r) round.push_back({r, r ^ stride, block});
      elapsed += phase(round);
      block /= 2;
      if (stride == 1) break;
    }
    return elapsed;
  }
  // Fallback: reduce to rank 0, then scatter the blocks.
  return reduce(bytes_per_rank * num_ranks_, 0) + scatter(bytes_per_rank, 0);
}

double Machine::ring_allreduce(std::uint64_t bytes_total) {
  // Bandwidth-optimal large-message allreduce: n-1 reduce-scatter steps
  // plus n-1 allgather steps, each forwarding one 1/n chunk to the ring
  // neighbor. Total bytes on the wire per rank: 2 (n-1)/n * bytes_total.
  const std::uint64_t chunk =
      std::max<std::uint64_t>(1, bytes_total / num_ranks_);
  double elapsed = 0.0;
  for (std::uint32_t step = 0; step + 1 < 2 * num_ranks_ - 1; ++step) {
    std::vector<Message> round;
    round.reserve(num_ranks_);
    for (Rank r = 0; r < num_ranks_; ++r) {
      round.push_back({r, (r + 1) % num_ranks_, chunk});
    }
    elapsed += phase(round);
  }
  return elapsed;
}

double Machine::alltoall(std::uint64_t bytes_per_pair) {
  return alltoallv([bytes_per_pair](Rank, Rank) { return bytes_per_pair; });
}

double Machine::alltoallv(const std::function<std::uint64_t(Rank, Rank)>& bytes) {
  // Pairwise exchange: n-1 rounds; XOR partners when n is a power of two
  // (perfect pairing), shifted partners otherwise.
  double elapsed = 0.0;
  const bool pow2 = std::has_single_bit(num_ranks_);
  for (std::uint32_t round_idx = 1; round_idx < num_ranks_; ++round_idx) {
    std::vector<Message> round;
    round.reserve(num_ranks_);
    for (Rank r = 0; r < num_ranks_; ++r) {
      const Rank partner =
          pow2 ? (r ^ round_idx) : (r + round_idx) % num_ranks_;
      const std::uint64_t size = bytes(r, partner);
      if (size > 0) round.push_back({r, partner, size});
    }
    elapsed += phase(round);
  }
  return elapsed;
}


}  // namespace orp
