#include "sim/telemetry/telemetry.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "common/cli.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"

namespace orp {
namespace {

NetTelemetryConfig& mutable_config() {
  static NetTelemetryConfig config = net_telemetry_from_env();
  return config;
}

/// Telemetry integers, in the env and the spec alike, are parse_uint's
/// digits up to UINT32_MAX.
constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();

/// An unset, empty or malformed variable keeps `fallback`; "0" is a value.
std::uint32_t env_u32(const char* name, std::uint32_t fallback) {
  const char* raw = std::getenv(name);
  return raw ? static_cast<std::uint32_t>(parse_uint(raw, kMaxU32).value_or(fallback))
             : fallback;
}

}  // namespace

NetTelemetryConfig net_telemetry_from_env() {
  NetTelemetryConfig config;
  config.enabled = env_u32("ORP_NET_TELEMETRY", 1) != 0;
  config.flow_sample =
      std::max(1u, env_u32("ORP_NET_FLOW_SAMPLE", config.flow_sample));
  config.link_top_k = env_u32("ORP_NET_LINK_TOPK", config.link_top_k);
  config.link_steps = env_u32("ORP_NET_LINK_STEPS", config.link_steps);
  config.reservoir_flows =
      env_u32("ORP_NET_RESERVOIR_FLOWS", config.reservoir_flows);
  config.reservoir_links =
      env_u32("ORP_NET_RESERVOIR_LINKS", config.reservoir_links);
  config.reservoir_phases =
      env_u32("ORP_NET_RESERVOIR_PHASES", config.reservoir_phases);
  return config;
}

void set_net_telemetry(const NetTelemetryConfig& config) {
  mutable_config() = config;
}

const NetTelemetryConfig& net_telemetry() { return mutable_config(); }

bool apply_net_telemetry_spec(std::string_view spec) {
  if (spec.empty()) return true;
  NetTelemetryConfig config = net_telemetry();
  if (spec == "off") {
    config.enabled = false;
    set_net_telemetry(config);
    return true;
  }
  if (spec == "on" || spec == "default") {
    config.enabled = true;
    set_net_telemetry(config);
    return true;
  }
  // Comma-separated knob=value pairs; every knob must parse.
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    const std::string_view pair = spec.substr(pos, comma - pos);
    pos = comma + 1;
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) return false;
    const std::string_view key = pair.substr(0, eq);
    const std::optional<std::uint64_t> parsed = parse_uint(pair.substr(eq + 1), kMaxU32);
    if (!parsed) return false;
    const auto value = static_cast<std::uint32_t>(*parsed);
    if (key == "flow_sample") config.flow_sample = std::max(1u, value);
    else if (key == "link_top_k") config.link_top_k = value;
    else if (key == "link_steps") config.link_steps = value;
    else if (key == "reservoir_flows") config.reservoir_flows = value;
    else if (key == "reservoir_links") config.reservoir_links = value;
    else if (key == "reservoir_phases") config.reservoir_phases = value;
    else return false;
  }
  set_net_telemetry(config);
  return true;
}

namespace {

/// splitmix64: deterministic stream for reservoir replacement decisions
/// (no std::random — identical traces for identical runs, by index).
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Algorithm-R reservoir with a deterministic replacement stream. Keeps a
/// uniform sample of everything offered once `capacity` is exceeded.
template <typename T>
class Reservoir {
 public:
  void set_capacity(std::size_t capacity) { capacity_ = capacity; }
  /// Counts `n` more offers; returns the ordinal (from 1) of the first.
  std::uint64_t reserve(std::uint64_t n) {
    seen_ += n;
    return seen_ - n + 1;
  }
  /// Whether the record of ordinal `o` gets a slot. The decision depends
  /// only on the ordinal and the capacity, so callers can skip building
  /// the records the reservoir would drop anyway.
  static bool admits(std::uint64_t o, std::size_t capacity) {
    return o <= capacity || splitmix64(o) % o < capacity;
  }
  /// Stores the record of an admitted ordinal `o`.
  void store(std::uint64_t o, T record) {
    if (items_.size() < capacity_) {
      items_.push_back(std::move(record));
    } else if (const std::uint64_t j = splitmix64(o) % o; j < items_.size()) {
      items_[j] = std::move(record);
    }
  }
  void offer(T record) {
    const std::uint64_t o = reserve(1);
    if (admits(o, capacity_)) store(o, std::move(record));
  }
  std::uint64_t seen() const { return seen_; }
  std::vector<T>& items() { return items_; }
  void clear() {
    items_.clear();
    seen_ = 0;
  }

 private:
  std::size_t capacity_ = 0;
  std::uint64_t seen_ = 0;
  std::vector<T> items_;
};

/// Flows of a round of `num_flows` that the stride samples: flow i *
/// stride is the i-th; a zero stride samples none.
std::size_t sampled_flows(std::size_t num_flows, std::uint32_t stride) {
  return stride > 0 ? (num_flows + stride - 1) / stride : 0;
}

/// %.12g: round-trips every telemetry value (utilizations near 1e-9,
/// rates near 5e9) without the fixed-decimal truncation of format_double.
std::string num(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.12g", value);
  return buffer;
}

std::string num(std::uint64_t value) { return std::to_string(value); }
std::string num(std::int64_t value) { return std::to_string(value); }

/// The one top-K select of link samples: keeps window[base, end) at the k
/// offered links that come first in (utilization descending, link id
/// ascending) order, in that order, so the kept set does not depend on the
/// offer order. `make()` builds a link's sample only once it gets in.
template <typename MakeSample>
void keep_top_k(std::vector<NetLinkSample>& window, std::size_t base,
                std::size_t k, double utilization, LinkId link,
                MakeSample&& make) {
  const auto ahead_of = [&](const NetLinkSample& s) {
    return utilization > s.utilization ||
           (utilization == s.utilization && link < s.link);
  };
  if (k == 0) return;
  if (window.size() - base >= k && !ahead_of(window.back())) return;
  window.insert(std::find_if(window.begin() + static_cast<std::ptrdiff_t>(base),
                             window.end(), ahead_of),
                make());
  if (window.size() - base > k) window.pop_back();
}

/// Process-global record store: phases from every Machine accumulate here
/// and drain into the tracer when the obs sink flushes (the hook runs
/// before the trace writer stops, so the instants land ahead of the
/// metric trailer).
class NetStore {
 public:
  static NetStore& global() {
    static NetStore* instance = new NetStore();  // leaked: used from atexit
    return *instance;
  }

  void open(NetRound& round, std::size_t sampled) {
    std::lock_guard lock(mutex_);
    flows_.set_capacity(round.config.reservoir_flows);
    links_.set_capacity(round.config.reservoir_links);
    phases_.set_capacity(round.config.reservoir_phases);
    round.phase = next_phase_++;
    round.first_flow = flows_.reserve(sampled);
  }

  /// Pushes one round's records. Its flows were built only for the
  /// ordinals the reservoir admits (NetPhaseCollector::end_phase): at
  /// reservoir caps the vast majority of offers are rejected, so skipping
  /// construction for them keeps the traced hot path near the untraced one
  /// (CI's telemetry-overhead gate). Runs under the store lock so a
  /// concurrent drain can never observe a half-pushed round.
  void commit(NetRound& round) {
    std::lock_guard lock(mutex_);
    const std::size_t capacity = round.config.reservoir_flows;
    std::size_t k = 0;
    for (std::uint64_t o = round.first_flow; k < round.flows.size(); ++o) {
      if (Reservoir<NetFlowRecord>::admits(o, capacity)) {
        flows_.store(o, std::move(round.flows[k++]));
      }
    }
    for (NetLinkSample& l : round.links) links_.offer(std::move(l));
    phases_.offer(round.record);
  }

  void drain_to_tracer() {
    std::lock_guard lock(mutex_);
    obs::Tracer& tracer = obs::Tracer::global();
    if (!tracer.enabled()) {
      clear_locked();
      return;
    }
    // Deterministic emission order regardless of reservoir churn.
    auto& phases = phases_.items();
    std::sort(phases.begin(), phases.end(),
              [](const NetPhaseRecord& a, const NetPhaseRecord& b) {
                return a.phase < b.phase;
              });
    auto& flows = flows_.items();
    std::sort(flows.begin(), flows.end(),
              [](const NetFlowRecord& a, const NetFlowRecord& b) {
                if (a.phase != b.phase) return a.phase < b.phase;
                if (a.src != b.src) return a.src < b.src;
                return a.dst < b.dst;
              });
    auto& links = links_.items();
    std::sort(links.begin(), links.end(),
              [](const NetLinkSample& a, const NetLinkSample& b) {
                if (a.phase != b.phase) return a.phase < b.phase;
                if (a.step != b.step) return a.step < b.step;
                return a.link < b.link;
              });

    const std::uint64_t ts = tracer.now_ns();
    const std::uint32_t tid = obs::Tracer::thread_id();
    auto instant = [&](const char* name) {
      obs::TraceEvent event;
      event.name = name;
      event.category = "net";
      event.phase = obs::TraceEvent::Phase::kInstant;
      event.ts_ns = ts;
      event.tid = tid;
      return event;
    };

    std::size_t emitted = 0;
    for (const NetPhaseRecord& p : phases) {
      obs::TraceEvent e = instant("net.phase");
      e.args.emplace_back("phase", num(p.phase));
      e.args.emplace_back("flows", num(std::uint64_t{p.flows}));
      e.args.emplace_back("completed", num(std::uint64_t{p.completed}));
      e.args.emplace_back("failed", num(std::uint64_t{p.failed}));
      e.args.emplace_back("retried", num(std::uint64_t{p.retried}));
      e.args.emplace_back("steps", num(std::uint64_t{p.steps}));
      e.args.emplace_back("start_s", num(p.start_s));
      e.args.emplace_back("elapsed_s", num(p.elapsed_s));
      e.args.emplace_back("transfer_s", num(p.transfer_s));
      e.args.emplace_back("max_util", num(p.max_utilization));
      tracer.emit(std::move(e));
      ++emitted;
    }
    for (const NetFlowRecord& f : flows) {
      obs::TraceEvent e = instant("net.flow");
      e.args.emplace_back("phase", num(f.phase));
      e.args.emplace_back("src", num(std::uint64_t{f.src}));
      e.args.emplace_back("dst", num(std::uint64_t{f.dst}));
      e.args.emplace_back("bytes", num(f.bytes));
      e.args.emplace_back("hops", num(std::uint64_t{f.hops}));
      e.args.emplace_back("retries", num(std::uint64_t{f.retries}));
      e.args.emplace_back("status", f.failed ? "\"failed\"" : "\"ok\"");
      e.args.emplace_back("start_s", num(f.start_s));
      e.args.emplace_back("finish_s", num(f.start_s + f.total_s));
      e.args.emplace_back("total_s", num(f.total_s));
      e.args.emplace_back("ser_s", num(f.serialization_s));
      e.args.emplace_back("queue_s", num(f.queue_s));
      e.args.emplace_back("hop_s", num(f.hop_s));
      e.args.emplace_back("retry_s", num(f.retry_s));
      e.args.emplace_back("ovh_s", num(f.overhead_s));
      e.args.emplace_back("rate_first_bps", num(f.rate_first_bps));
      e.args.emplace_back("rate_last_bps", num(f.rate_last_bps));
      e.args.emplace_back("rate_mean_bps", num(f.rate_mean_bps));
      tracer.emit(std::move(e));
      ++emitted;
    }
    for (const NetLinkSample& l : links) {
      obs::TraceEvent e = instant("net.link");
      e.args.emplace_back("phase", num(l.phase));
      e.args.emplace_back("step", num(std::int64_t{l.step}));
      e.args.emplace_back("link", num(std::uint64_t{l.link}));
      e.args.emplace_back("t0_s", num(l.t0_s));
      e.args.emplace_back("t1_s", num(l.t1_s));
      e.args.emplace_back("util", num(l.utilization));
      e.args.emplace_back("flows", num(std::uint64_t{l.flows}));
      e.args.emplace_back("fair_bps", num(l.fair_bps));
      tracer.emit(std::move(e));
      ++emitted;
    }
    // Coverage record: lets the report say when the reservoirs dropped
    // records instead of silently presenting a sample as the whole run.
    if (emitted > 0) {
      obs::TraceEvent e = instant("net.meta");
      e.args.emplace_back("flows_seen", num(flows_.seen()));
      e.args.emplace_back("flows_kept", num(std::uint64_t{flows.size()}));
      e.args.emplace_back("links_seen", num(links_.seen()));
      e.args.emplace_back("links_kept", num(std::uint64_t{links.size()}));
      e.args.emplace_back("phases_seen", num(phases_.seen()));
      e.args.emplace_back("phases_kept", num(std::uint64_t{phases.size()}));
      tracer.emit(std::move(e));
      ++emitted;
    }
    clear_locked();
  }

  void reset() {
    std::lock_guard lock(mutex_);
    clear_locked();
    next_phase_ = 0;
  }

 private:
  NetStore() {
    obs::register_flush_hook([] { NetStore::global().drain_to_tracer(); });
  }
  void clear_locked() {
    flows_.clear();
    links_.clear();
    phases_.clear();
  }

  std::mutex mutex_;
  std::uint64_t next_phase_ = 0;
  Reservoir<NetFlowRecord> flows_;
  Reservoir<NetLinkSample> links_;
  Reservoir<NetPhaseRecord> phases_;
};

}  // namespace

namespace net_detail {
void reset_for_tests() { NetStore::global().reset(); }
}  // namespace net_detail

bool net_recording() {
  return obs::Tracer::global().enabled() && net_telemetry().enabled;
}

void open_net_round(NetRound& round, std::size_t num_flows) {
  round.config = net_telemetry();
  round.active = true;
  round.record = NetPhaseRecord{};
  round.links.clear();
  round.flows.clear();
  NetStore::global().open(round, sampled_flows(num_flows, round.config.flow_sample));
  round.record.phase = round.phase;
}

void commit_net_round(NetRound& round, double start_s) {
  if (!round.active) return;
  round.active = false;
  round.record.start_s = start_s;
  for (NetLinkSample& l : round.links) {
    l.t0_s += start_s;
    l.t1_s += start_s;
  }
  for (NetFlowRecord& f : round.flows) f.start_s = start_s;
  NetStore::global().commit(round);
}

bool NetPhaseCollector::begin_phase(NetRound& round, std::size_t num_flows) {
  round_ = round.active ? &round : nullptr;
  if (!round_) return false;
  rate_first_.assign(num_flows, 0.0);
  rate_last_.assign(num_flows, 0.0);
  return true;
}

void NetPhaseCollector::on_segment(std::uint32_t step, double t0_s, double t1_s,
                                   const PathStore& paths,
                                   const std::vector<std::uint8_t>& active,
                                   const std::vector<double>& rates) {
  if (!round_) return;
  if (step == 0) {
    for (std::size_t f = 0; f < paths.size(); ++f) {
      if (active[f]) rate_first_[f] = rates[f];
    }
  }
  const NetTelemetryConfig& config = round_->config;
  if (step >= config.link_steps || config.link_top_k == 0) return;

  // Per-link accounting with a dense scratch + touched list: one pass over
  // (flow, link) incidences. Entries that re-pathed flows left in the store
  // can only raise the largest id, which over-sizes the scratch harmlessly.
  const auto top = std::max_element(paths.links.begin(), paths.links.end());
  if (top != paths.links.end() && link_scratch_.size() <= *top) {
    link_scratch_.resize(std::size_t{*top} + 1);
  }
  touched_.clear();
  for (std::size_t f = 0; f < paths.size(); ++f) {
    if (!active[f]) continue;
    for (const LinkId l : paths[f]) {
      LinkScratch& s = link_scratch_[l];
      if (s.count == 0) {
        touched_.push_back(l);
        s.sum = 0.0;
        s.fair = rates[f];
      }
      ++s.count;
      s.sum += rates[f];
      s.fair = std::min(s.fair, rates[f]);
    }
  }

  // Keep the segment's top-K links; utilization holds the rate sum until
  // end_phase scales it to a line-rate fraction.
  std::vector<NetLinkSample>& samples = round_->links;
  const std::size_t base = samples.size();
  for (const std::uint32_t l : touched_) {
    LinkScratch& scratch = link_scratch_[l];
    keep_top_k(samples, base, config.link_top_k, scratch.sum, l, [&] {
      NetLinkSample sample;
      sample.phase = round_->phase;
      sample.step = static_cast<std::int32_t>(step);
      sample.link = l;
      sample.t0_s = t0_s;
      sample.t1_s = t1_s;
      sample.utilization = scratch.sum;
      sample.flows = scratch.count;
      sample.fair_bps = scratch.fair;
      return sample;
    });
    scratch.count = 0;  // reset scratch as we go
  }
}

void NetPhaseCollector::flow_done(std::size_t f, double rate_bps) {
  if (!round_) return;
  rate_last_[f] = rate_bps;
}

void NetPhaseCollector::end_phase(const LinkLoads& loads, const SimParams& params,
                                  const std::function<FlowEnd(std::size_t)>& flow) {
  if (!round_) return;
  NetRound& round = *round_;
  round_ = nullptr;
  const NetTelemetryConfig& config = round.config;
  const double bandwidth = params.link_bandwidth;

  // Per-step samples carried rate sums; scale to line-rate fractions now.
  for (NetLinkSample& sample : round.links) sample.utilization /= bandwidth;
  round.record.transfer_s = loads.window_s;
  round.record.max_utilization = loads.max_utilization;

  // Whole-phase link buckets (step -1), read off the phase's account.
  const std::size_t base = round.links.size();
  for (const LinkId l : loads.used) {
    const LinkLoads::Link& link = loads.links[l];
    const double utilization = loads.utilization(l);
    keep_top_k(round.links, base, config.link_top_k, utilization, l, [&] {
      NetLinkSample sample;
      sample.phase = round.phase;
      sample.step = -1;
      sample.link = l;
      sample.t1_s = loads.window_s;
      sample.utilization = utilization;
      sample.flows = link.flows;
      sample.fair_bps = link.slowest_bps;
      return sample;
    });
  }

  // Flow records only for the ordinals the reservoir admits (NetStore::
  // commit); the i-th sampled flow of the phase is flow i * flow_sample.
  const std::size_t sampled = sampled_flows(rate_first_.size(), config.flow_sample);
  const std::size_t capacity = config.reservoir_flows;
  for (std::size_t i = 0; i < sampled; ++i) {
    if (!Reservoir<NetFlowRecord>::admits(round.first_flow + i, capacity)) continue;
    const std::size_t f = i * config.flow_sample;
    const FlowEnd end = flow(f);

    NetFlowRecord& record = round.flows.emplace_back();
    record.phase = round.phase;
    record.src = end.src;
    record.dst = end.dst;
    record.bytes = end.bytes;
    record.hops = end.hops;
    record.failed = end.failed;
    record.retries = static_cast<std::uint32_t>(
        params.retry_backoff > 0.0 ? end.penalty_s / params.retry_backoff + 0.5
                                   : 0.0);
    if (end.failed) {
      // The sender's whole bounded give-up time is fault cost.
      record.total_s = end.finish_s;
      record.retry_s = end.finish_s;
    } else {
      record.total_s = end.finish_s + end.penalty_s + params.mpi_overhead +
                       record.hops * params.hop_latency;
      record.serialization_s = static_cast<double>(record.bytes) / bandwidth;
      // Queueing is the transfer-time remainder, so the five terms sum to
      // total_s exactly (the acceptance bound in docs/telemetry.md).
      record.queue_s = end.finish_s - record.serialization_s;
      record.hop_s = record.hops * params.hop_latency;
      record.retry_s = end.penalty_s;
      record.overhead_s = params.mpi_overhead;
      if (end.finish_s > 0.0) {
        record.rate_mean_bps = static_cast<double>(record.bytes) / end.finish_s;
      }
    }
    record.rate_first_bps = rate_first_[f];
    record.rate_last_bps = rate_last_[f];
  }
}

}  // namespace orp
