#include "sim/fluid_phase.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/require.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace orp {
namespace {

struct PhaseInstruments {
  obs::Histogram& solve_ns;
  obs::Counter& phases;
  obs::Counter& flows;
  obs::Counter& fault_failures;
  obs::Counter& fault_retries;
  obs::Counter& fairshare_solves;
  obs::Counter& fairshare_warm_solves;
  obs::Counter& fairshare_refilled_routes;
  obs::Counter& fairshare_elided_links;
  obs::Counter& fluid_steps;

  static PhaseInstruments& get() {
    auto& registry = obs::Registry::global();
    static PhaseInstruments instance{registry.histogram("sim.phase.solve_ns"),
                                     registry.counter("sim.phases"),
                                     registry.counter("sim.flows"),
                                     registry.counter("sim.fault.failed_flows"),
                                     registry.counter("sim.fault.retried_flows"),
                                     registry.counter("sim.fairshare.solves"),
                                     registry.counter("sim.fairshare.warm_solves"),
                                     registry.counter("sim.fairshare.refilled_routes"),
                                     registry.counter("sim.fairshare.elided_links"),
                                     registry.counter("sim.phase.fluid_steps")};
    return instance;
  }
};

}  // namespace

std::uint64_t FluidPhase::load_solver(std::uint32_t num_hosts,
                                      const std::vector<std::uint8_t>& active) {
  // A host link (ids [0, 2n): the route's first or last link) that carries
  // one live flow saturates only at level = capacity, and no filling level
  // exceeds capacity, so it never binds. Leaving it out of the tableau is
  // exact; a flow left with no links rides at line rate, as it would have.
  const std::vector<LinkId>& links = paths_.links;
  const std::size_t num_flows = paths_.size();
  host_link_flows_.assign(2 * static_cast<std::size_t>(num_hosts), 0);
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

void FluidPhase::FinishQueue::sort_run() {
  std::sort(run_.begin() + static_cast<std::ptrdiff_t>(cursor_), run_.end(),
            [](const Entry& a, const Entry& b) { return a.time < b.time; });
}

void FluidPhase::FinishQueue::push(const Entry& e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), later);
}

const FluidPhase::FinishQueue::Entry* FluidPhase::FinishQueue::top(
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

void FluidPhase::FinishQueue::pop() {
  if (top_in_run_) {
    ++cursor_;
  } else {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
  }
}

void FluidPhase::FinishQueue::compact(const std::vector<std::uint32_t>& stamps) {
  const auto is_dead = [&](const Entry& e) { return dead(e, stamps); };
  run_.erase(run_.begin(), run_.begin() + static_cast<std::ptrdiff_t>(cursor_));
  cursor_ = 0;
  run_.erase(std::remove_if(run_.begin(), run_.end(), is_dead), run_.end());
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(), is_dead), heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), later);
}

void FluidPhase::open_telemetry(const std::vector<Message>& messages, NetRound& net) {
  if (!net_recording()) return;
  open_net_round(net, static_cast<std::size_t>(std::count_if(
                          messages.begin(), messages.end(),
                          [](const Message& m) { return m.src != m.dst; })));
}

FluidPhase::Round FluidPhase::run(const std::vector<Message>& messages,
                                  std::uint64_t index, const Network& network,
                                  double clock, FaultHook* faults,
                                  FaultStats& fault_stats, NetRound& net) {
  const RoutingTable& routes = network.routes;
  const std::vector<std::uint8_t>& host_dead = network.host_dead;
  const SimParams& params = network.params;
  const std::size_t num_ranks = network.rank_to_host.size();

  // Build flow paths (self-messages are memcpy, modeled as free). A round
  // of self-messages only moves nothing, so it leaves the last flow round's
  // flow table, and with it stats() and the link loads, in place.
  Round round;
  std::size_t num_flows = 0;
  for (const Message& m : messages) {
    ORP_REQUIRE(m.src < num_ranks && m.dst < num_ranks, "rank out of range");
    num_flows += m.src != m.dst;
  }
  if (num_flows == 0) return round;

  PhaseInstruments& instruments = PhaseInstruments::get();
  obs::Span span("sim.phase", "sim");
  obs::ScopedTimer solve_timer(instruments.solve_ns);
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
  // round's path store and pointing its range at them; returns its hop
  // count, or 0 with an empty range when no route survives (dead endpoint
  // or partitioned host pair).
  std::vector<LinkId>& links = paths_.links;
  const auto route_flow = [&](std::size_t f) -> std::uint32_t {
    PathRange& range = paths_.ranges[f];
    range.begin = range.end = static_cast<std::uint32_t>(links.size());
    const HostId src = flow_src[f];
    const HostId dst = flow_dst[f];
    if (host_dead[src] || host_dead[dst]) return 0;
    const std::uint32_t route_hops =
        params.routing == RoutingPolicy::kEcmp
            ? routes.try_append_host_path_ecmp(src, dst, flow_key[f], links)
            : routes.try_append_host_path(src, dst, links);
    range.end = static_cast<std::uint32_t>(links.size());
    return route_hops;
  };

  links.clear();
  paths_.ranges.clear();
  for (const Message& m : messages) {
    if (m.src == m.dst) continue;
    const std::size_t f = built++;
    paths_.ranges.emplace_back();
    flow_src.push_back(network.rank_to_host[m.src]);
    flow_dst.push_back(network.rank_to_host[m.dst]);
    // Per-flow key: stable for a (src, dst) within a round, varied across
    // rounds so repeated rounds spread differently.
    flow_key.push_back((static_cast<std::uint64_t>(m.src) << 40) ^
                       (static_cast<std::uint64_t>(m.dst) << 16) ^ index);
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

  // Network telemetry (docs/telemetry.md): one branch per hook when the
  // caller opened no round; otherwise the collector snapshots raw
  // per-flow/per-link data and defers all formatting to the sink flush.
  const bool tele = net_.begin_phase(net, num_flows);
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
      end_flow(f, params.retry_timeout);
      ++fault_stats.flows_failed;
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
  // at one solve per round. Fault events due mid-round interrupt the
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
  // Lowest rate any flow ran at this round: bounds the dust term of the
  // batch rule in time units (left <= rate * slack + 1e-9 bytes).
  double rate_floor = std::numeric_limits<double>::infinity();
  bool rekey_all = true;  // the next solve is cold: rebuild the queue
  std::vector<FinishQueue::Entry>& deferred = scratch_.deferred;
  elided_links += load_solver(routes.num_hosts(), active);
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

    const double fault_at =
        faults ? faults->next_fault_time() : std::numeric_limits<double>::infinity();
    if (fault_at < clock + t + dt) {
      // Progress to the fault instant, then apply every event due there.
      const double event_t = std::max(fault_at - clock, t);
      ORP_ASSERT(event_t >= t);  // the clock is monotone (and not NaN)
      if (tele) net_.on_segment(fluid_steps, t, event_t, paths_, active, rates_);
      ++fluid_steps;
      t = event_t;
      if (!faults->apply_faults(clock + t)) continue;
      for (std::size_t f = 0; f < num_flows; ++f) {
        if (!active[f]) continue;
        ORP_ASSERT(rate[f] == solver_.rate_of(f));
        // Impacted: an endpoint died, or the route crosses a link that died
        // in this update (link ids are stable, so the old route still names
        // the cables it crossed).
        bool hit = host_dead[flow_src[f]] || host_dead[flow_dst[f]];
        if (!hit) {
          for (const LinkId l : paths_[f]) {
            if (routes.died_in_last_update(l)) {
              hit = true;
              break;
            }
          }
        }
        hops[f] = route_flow(f);
        if (hops[f] == 0) {
          failed[f] = 1;
          end_flow(f, t + params.retry_timeout);
          ++fault_stats.flows_failed;
          instruments.fault_failures.inc();
          if (tele) net_.flow_done(f, rates_[f]);
        } else if (hit) {
          // Rerouted mid-flight: delivered bytes are kept, the reroute
          // costs one transport backoff.
          penalty[f] += params.retry_backoff;
          fault_stats.retry_added_latency += params.retry_backoff;
          retried[f] = 1;
          ++fault_stats.flows_retried;
          instruments.fault_retries.inc();
        }
      }
      // Every surviving flow was re-pathed, so the solver's tableau is
      // rebuilt from scratch: the next solve is cold and re-rates (and
      // re-keys) every active flow.
      elided_links += load_solver(routes.num_hosts(), active);
      rekey_all = true;
      continue;
    }

    if (tele) net_.on_segment(fluid_steps, t, t + dt, paths_, active, rates_);
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

  // Per-message wire latency + software overhead; the round ends when the
  // slowest message has fully landed (failed flows end at their bounded
  // give-up time).
  double elapsed = 0.0;
  for (std::size_t f = 0; f < num_flows; ++f) {
    const double total =
        failed[f] ? finish[f]
                  : finish[f] + penalty[f] + params.mpi_overhead +
                        hops[f] * params.hop_latency;
    elapsed = std::max(elapsed, total);
  }

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
  num_links_ = routes.num_links();
  loads_stale_ = true;

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

  if (tele) {
    NetPhaseRecord& record = net.record;
    record.flows = static_cast<std::uint32_t>(num_flows);
    record.completed = static_cast<std::uint32_t>(stats_.completed);
    record.failed = static_cast<std::uint32_t>(stats_.failed);
    record.retried = static_cast<std::uint32_t>(stats_.retried);
    record.steps = fluid_steps;
    record.elapsed_s = elapsed;
    net_.end_phase(link_loads(), params, [&](std::size_t f) {
      return NetPhaseCollector::FlowEnd{flow_src[f], flow_dst[f], remaining[f], hops[f],
                                        failed[f] != 0, finish[f], penalty[f]};
    });
  }
  if (span.active()) {
    span.arg("flows", stats_.flows);
    span.arg("sim_elapsed_s", elapsed);
    span.arg("mean_hops", stats_.mean_hops);
    if (stats_.retried || stats_.failed) {
      span.arg("flows_retried", stats_.retried);
      span.arg("flows_failed", stats_.failed);
      span.arg("retry_added_latency_s", stats_.retry_added_latency);
    }
  }

  round.elapsed = elapsed;
  round.moved = true;
  return round;
}

const LinkLoads& FluidPhase::link_loads() const {
  // The one per-link byte pass of a round. Link ids are stable for the
  // routing table's lifetime, so flows that ended before a mid-round fault
  // and flows re-pathed after it share one numbering: each flow's bytes
  // land on the cables of its last route (a failed flow's route is empty).
  LinkLoads& loads = loads_;
  if (!loads_stale_) return loads;
  loads_stale_ = false;
  loads.links.assign(num_links_, {});
  loads.used.clear();
  loads.window_s = transfer_s_;
  loads.capacity_bytes = link_bandwidth_ * transfer_s_;
  loads.max_utilization = 0.0;
  if (transfer_s_ <= 0.0) return loads;
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
  return loads;
}

}  // namespace orp
