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

}  // namespace

NetTelemetryConfig net_telemetry_from_env() {
  NetTelemetryConfig config;
  if (const char* raw = std::getenv("ORP_NET_TELEMETRY")) {
    if (const auto value = parse_uint(raw, kMaxU32)) config.enabled = *value != 0;
  }
  return config;
}

void set_net_telemetry(const NetTelemetryConfig& config) {
  mutable_config() = config;
}

const NetTelemetryConfig& net_telemetry() { return mutable_config(); }

bool apply_net_telemetry_spec(std::string_view spec) {
  if (spec.empty()) return true;
  NetTelemetryConfig config = net_telemetry();
  constexpr std::string_view kLinkSteps = "link_steps=";
  if (spec == "off" || spec == "on") {
    config.enabled = spec == "on";
  } else if (spec.starts_with(kLinkSteps)) {
    const std::optional<std::uint64_t> steps =
        parse_uint(spec.substr(kLinkSteps.size()), kMaxU32);
    if (!steps) return false;
    config.link_steps = static_cast<std::uint32_t>(*steps);
  } else {
    return false;
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

// The sampling caps: records buffered per process until the sink flushes,
// and links kept per time bucket. They keep the n=256 r=12 all-to-all
// microbenchmark within CI's 25% telemetry-overhead gate and a flush's net
// records under ~5 MB (docs/telemetry.md "Sampling knobs").
constexpr std::size_t kFlowRecords = 4096;
constexpr std::size_t kLinkSamples = 16384;
constexpr std::size_t kPhaseRecords = 2048;
constexpr std::size_t kLinksPerBucket = 8;

/// Whether a reservoir of `capacity` gives the record of ordinal `o` (from
/// 1) a slot. The decision depends only on the ordinal and the capacity, so
/// callers can skip building the records the reservoir would drop anyway.
bool admits(std::uint64_t o, std::size_t capacity) {
  return o <= capacity || splitmix64(o) % o < capacity;
}

/// Algorithm-R reservoir with a deterministic replacement stream. Keeps a
/// uniform sample of everything offered once `capacity` is exceeded.
template <typename T>
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity) : capacity_(capacity) {}
  /// Counts `n` more offers; returns the ordinal (from 1) of the first.
  std::uint64_t reserve(std::uint64_t n) {
    seen_ += n;
    return seen_ - n + 1;
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

/// %.12g: round-trips every telemetry value (utilizations near 1e-9,
/// rates near 5e9) without the fixed-decimal truncation of format_double.
std::string num(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.12g", value);
  return buffer;
}

std::string num(std::uint64_t value) { return std::to_string(value); }
std::string num(std::int64_t value) { return std::to_string(value); }

/// The one top-K select of link samples: keeps window[base, end) at the
/// kLinksPerBucket offered links that come first in (utilization
/// descending, link id ascending) order, in that order, so the kept set
/// does not depend on the offer order. `make()` builds a link's sample only
/// once it gets in.
template <typename MakeSample>
void keep_top_k(std::vector<NetLinkSample>& window, std::size_t base,
                double utilization, LinkId link, MakeSample&& make) {
  const auto ahead_of = [&](const NetLinkSample& s) {
    return utilization > s.utilization ||
           (utilization == s.utilization && link < s.link);
  };
  if (window.size() - base >= kLinksPerBucket && !ahead_of(window.back())) return;
  window.insert(std::find_if(window.begin() + static_cast<std::ptrdiff_t>(base),
                             window.end(), ahead_of),
                make());
  if (window.size() - base > kLinksPerBucket) window.pop_back();
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

  void open(NetRound& round, std::size_t num_flows) {
    std::lock_guard lock(mutex_);
    round.phase = next_phase_++;
    round.first_flow = flows_.reserve(num_flows);
  }

  /// Pushes one round's records. Its flows were built only for the
  /// ordinals the reservoir admits (NetPhaseCollector::end_phase): at
  /// reservoir caps the vast majority of offers are rejected, so skipping
  /// construction for them keeps the traced hot path near the untraced one
  /// (CI's telemetry-overhead gate). Runs under the store lock so a
  /// concurrent drain can never observe a half-pushed round.
  void commit(NetRound& round) {
    std::lock_guard lock(mutex_);
    std::size_t k = 0;
    for (std::uint64_t o = round.first_flow; k < round.flows.size(); ++o) {
      if (admits(o, kFlowRecords)) {
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
  Reservoir<NetFlowRecord> flows_{kFlowRecords};
  Reservoir<NetLinkSample> links_{kLinkSamples};
  Reservoir<NetPhaseRecord> phases_{kPhaseRecords};
};

}  // namespace

namespace net_detail {
void reset_for_tests() { NetStore::global().reset(); }
}  // namespace net_detail

bool net_recording() {
  return obs::Tracer::global().enabled() && net_telemetry().enabled;
}

void open_net_round(NetRound& round, std::size_t num_flows) {
  round.link_steps = net_telemetry().link_steps;
  round.active = true;
  NetStore::global().open(round, num_flows);
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
  // Records of an earlier run of the same round are replaced; the ids
  // taken at open are kept.
  round.record = NetPhaseRecord{};
  round.record.phase = round.phase;
  round.links.clear();
  round.flows.clear();
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
  if (step >= round_->link_steps) return;

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
    keep_top_k(samples, base, scratch.sum, l, [&] {
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
    keep_top_k(round.links, base, utilization, l, [&] {
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
  // commit).
  for (std::size_t f = 0; f < rate_first_.size(); ++f) {
    if (!admits(round.first_flow + f, kFlowRecords)) continue;
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
