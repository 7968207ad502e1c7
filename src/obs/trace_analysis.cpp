#include "obs/trace_analysis.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common/json.hpp"
#include "common/table.hpp"

namespace orp::obs::report {
namespace {

// One Chrome-trace event in parsed form; only the fields the analysis
// needs. `ts` is microseconds (the unit the sink writes).
struct Event {
  char phase = '?';
  double ts = 0.0;
  std::int64_t tid = 0;
  std::string category;
  std::string name;
  double value = 0.0;       // counter sample ("args":{"value":N})
  std::uint64_t flow = 0;   // "id" on s/f events
};

double number_or(const JsonValue* v, double fallback) {
  return (v && v->is_number()) ? v->as_number() : fallback;
}

/// `v` as an Int, saturated to Int's range (NaN reads 0): trace numbers
/// come from a file, and an out-of-range conversion is undefined.
template <typename Int>
Int to_int(double v) {
  constexpr double lo = static_cast<double>(std::numeric_limits<Int>::min());
  constexpr double hi = static_cast<double>(std::numeric_limits<Int>::max());
  if (std::isnan(v)) return 0;
  if (v <= lo) return std::numeric_limits<Int>::min();
  if (v >= hi) return std::numeric_limits<Int>::max();
  return static_cast<Int>(v);
}

std::string string_or(const JsonValue* v, const std::string& fallback) {
  return (v && v->is_string()) ? v->as_string() : fallback;
}

/// Reads the "net.*" instant events into the NetworkAnalysis vectors.
/// Missing args default to zero — the emitter always writes every field,
/// so a partial record means a truncated trace, not a crash.
void parse_net_event(const std::string& name, const JsonValue* args,
                     NetworkAnalysis& net) {
  auto n = [&](const char* key) {
    return args ? number_or(args->find(key), 0.0) : 0.0;
  };
  auto u32 = [&](const char* key) { return to_int<std::uint32_t>(n(key)); };
  auto u64 = [&](const char* key) { return to_int<std::uint64_t>(n(key)); };
  if (name == "net.flow") {
    NetFlow f;
    f.phase = u64("phase");
    f.src = u32("src");
    f.dst = u32("dst");
    f.bytes = u64("bytes");
    f.hops = u32("hops");
    f.retries = u32("retries");
    f.failed = args && string_or(args->find("status"), "ok") == "failed";
    f.start_s = n("start_s");
    f.total_s = n("total_s");
    f.ser_s = n("ser_s");
    f.queue_s = n("queue_s");
    f.hop_s = n("hop_s");
    f.retry_s = n("retry_s");
    f.overhead_s = n("ovh_s");
    f.rate_first_bps = n("rate_first_bps");
    f.rate_last_bps = n("rate_last_bps");
    f.rate_mean_bps = n("rate_mean_bps");
    net.flows.push_back(f);
    net.present = true;
  } else if (name == "net.link") {
    NetLink l;
    l.phase = u64("phase");
    l.step = to_int<std::int64_t>(n("step"));
    l.link = u32("link");
    l.t0_s = n("t0_s");
    l.t1_s = n("t1_s");
    l.utilization = n("util");
    l.flows = u32("flows");
    l.fair_bps = n("fair_bps");
    net.link_samples.push_back(l);
    net.present = true;
  } else if (name == "net.phase") {
    NetPhase p;
    p.phase = u64("phase");
    p.flows = u32("flows");
    p.completed = u32("completed");
    p.failed = u32("failed");
    p.retried = u32("retried");
    p.steps = u32("steps");
    p.start_s = n("start_s");
    p.elapsed_s = n("elapsed_s");
    p.transfer_s = n("transfer_s");
    p.max_utilization = n("max_util");
    net.phases.push_back(std::move(p));
    net.present = true;
  } else if (name == "net.meta") {
    net.flows_seen = u64("flows_seen");
    net.flows_kept = u64("flows_kept");
    net.links_seen = u64("links_seen");
    net.links_kept = u64("links_kept");
    net.phases_seen = u64("phases_seen");
    net.phases_kept = u64("phases_kept");
    net.present = true;
  }
}

/// Parses one JSONL line into `out`. Returns false when the line is not a
/// well-formed event (the caller counts it as malformed). Lines carrying a
/// "kind" key are the trailer metric records — valid, but not events; they
/// set `*is_metric` instead, and counter records land in `totals`.
/// "cat":"net" instants additionally feed `net`.
bool parse_line(const std::string& line, Event& out, bool* is_metric,
                std::map<std::string, std::uint64_t>& totals,
                NetworkAnalysis& net) {
  JsonValue doc;
  try {
    doc = JsonValue::parse(line);
  } catch (const std::exception&) {
    return false;
  }
  if (!doc.is_object()) return false;
  if (doc.find("kind") != nullptr) {
    *is_metric = true;
    const JsonValue* name = doc.find("name");
    if (string_or(doc.find("kind"), "") == "counter" && name && name->is_string()) {
      totals[name->as_string()] =
          to_int<std::uint64_t>(number_or(doc.find("value"), 0.0));
    }
    return true;
  }
  const JsonValue* ph = doc.find("ph");
  if (!ph || !ph->is_string() || ph->as_string().size() != 1) return false;
  out.phase = ph->as_string()[0];
  const JsonValue* ts = doc.find("ts");
  if (!ts || !ts->is_number()) return false;
  out.ts = ts->as_number();
  out.tid = to_int<std::int64_t>(number_or(doc.find("tid"), 0.0));
  out.category = string_or(doc.find("cat"), "");
  out.name = string_or(doc.find("name"), "");
  out.flow = to_int<std::uint64_t>(number_or(doc.find("id"), 0.0));
  const JsonValue* args = doc.find("args");
  if (args) out.value = number_or(args->find("value"), 0.0);
  if (out.phase == 'i' && out.category == "net") {
    parse_net_event(out.name, args, net);
  }
  return true;
}

// An open span on a per-tid stack: children report their total duration
// into `child_us` so the parent can subtract it (self time).
struct OpenSpan {
  std::string category;
  std::string name;
  double begin_ts = 0.0;
  double child_us = 0.0;
};

struct SpanAccum {
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
  double max_us = 0.0;
};

using Series = std::vector<std::pair<double, double>>;  // (ts, value)

struct CounterAccum {
  Series samples;
};

using Key = std::pair<std::string, std::string>;  // (category, name)

void close_span(std::map<Key, SpanAccum>& accum, std::vector<OpenSpan>& stack,
                double end_ts) {
  OpenSpan open = std::move(stack.back());
  stack.pop_back();
  const double total = std::max(0.0, end_ts - open.begin_ts);
  const double self = std::max(0.0, total - open.child_us);
  SpanAccum& a = accum[Key{open.category, open.name}];
  a.count += 1;
  a.total_us += total;
  a.self_us += self;
  a.max_us = std::max(a.max_us, total);
  if (!stack.empty()) stack.back().child_us += total;
}

/// Best-so-far value of a (ts, value) series at time `t` (last sample with
/// ts <= t); the first sample when `t` precedes the series.
double value_at(const Series& series, double t) {
  double v = series.empty() ? 0.0 : series.front().second;
  for (const auto& [ts, value] : series) {
    if (ts > t) break;
    v = value;
  }
  return v;
}

// The annealer series one run's diagnostics read, indexed by the enum.
enum RunSeriesIndex { kBest, kAcceptance, kTemperature, kIteration };
constexpr const char* kRunSeriesNames[] = {"annealer.best_haspl", "annealer.acceptance_rate",
                                           "annealer.temperature", "annealer.iteration"};
using RunSeries = std::array<Series, 4>;

/// Diagnostics of one run; `run[kBest]` is not empty.
Convergence analyze_run(const RunSeries& run, std::size_t window_count) {
  const Series& best = run[kBest];
  const Series& iteration = run[kIteration];
  Convergence conv;
  conv.samples = best.size();
  conv.initial_best = best.front().second;
  conv.final_best = best.back().second;

  const double t0 = best.front().first;
  const double t1 = best.back().first;
  const double span_s = (t1 - t0) / 1e6;
  if (span_s > 0) conv.improvement_per_s = (conv.initial_best - conv.final_best) / span_s;

  // Last strict improvement of the best-so-far series. h-ASPL is minimized,
  // so progress means the value went DOWN.
  double last_improvement_ts = t0;
  double prev = best.front().second;
  for (const auto& [ts, value] : best) {
    if (value < prev - 1e-12) {
      last_improvement_ts = ts;
      prev = value;
    }
  }
  conv.last_improvement_us = last_improvement_ts;
  if (!iteration.empty()) {
    conv.last_improvement_iter =
        to_int<std::int64_t>(value_at(iteration, last_improvement_ts));
  }
  if (t1 > t0) conv.stall_fraction = (t1 - last_improvement_ts) / (t1 - t0);
  // Stall verdict needs enough samples to mean anything: a 4-window run
  // trivially has a large trailing gap.
  conv.stalled = conv.samples >= 8 && conv.stall_fraction > 0.5;

  // Equal time windows from the run's earliest sample to its latest, over
  // every series read: a window's iteration, acceptance and temperature
  // samples are written just before its best_haspl one.
  double w0 = t0, w1 = t1;
  for (const Series& s : run) {
    if (s.empty()) continue;
    w0 = std::min(w0, s.front().first);
    w1 = std::max(w1, s.back().first);
  }
  const std::size_t k = std::max<std::size_t>(1, window_count);
  for (std::size_t w = 0; w < k; ++w) {
    const double lo = w0 + (w1 - w0) * static_cast<double>(w) / static_cast<double>(k);
    const double hi = w0 + (w1 - w0) * static_cast<double>(w + 1) / static_cast<double>(k);
    ConvergenceWindow win;
    win.t_end_us = hi;
    auto mean_in = [&](const Series& s, std::uint64_t* count = nullptr) {
      double sum = 0.0;
      std::uint64_t n = 0;
      for (const auto& [ts, value] : s) {
        // Half-open [lo, hi), closed at the final window so the last
        // sample lands somewhere.
        if (ts < lo || (ts >= hi && w + 1 != k) || ts > hi) continue;
        sum += value;
        ++n;
      }
      if (count) *count = n;
      return n ? sum / static_cast<double>(n) : 0.0;
    };
    mean_in(best, &win.samples);
    win.acceptance = mean_in(run[kAcceptance]);
    win.temperature = mean_in(run[kTemperature]);
    win.best_haspl = value_at(best, hi);
    conv.windows.push_back(win);
  }
  return conv;
}

/// One Convergence per anneal run, in trace order. A run starts at each
/// annealer.iteration sample of 0 (each chain's first window) and holds
/// every annealer sample from that timestamp up to the next run's start;
/// samples before the first start form a run of their own. Runs without
/// a best_haspl sample are dropped.
std::vector<Convergence> analyze_convergence(const std::map<Key, CounterAccum>& counters,
                                             std::size_t window_count) {
  auto series = [&](const char* name) -> const Series* {
    auto it = counters.find(Key{"search", name});
    return it == counters.end() ? nullptr : &it->second.samples;
  };
  std::vector<double> starts;  // ascending: the samples are sorted by ts
  if (const Series* iteration = series(kRunSeriesNames[kIteration])) {
    for (const auto& [ts, value] : *iteration) {
      if (value == 0.0) starts.push_back(ts);
    }
  }
  std::vector<RunSeries> runs(starts.size() + 1);
  for (std::size_t i = 0; i < runs.front().size(); ++i) {
    const Series* s = series(kRunSeriesNames[i]);
    if (!s) continue;
    for (const auto& sample : *s) {
      const auto run = std::upper_bound(starts.begin(), starts.end(), sample.first) -
                       starts.begin();
      runs[static_cast<std::size_t>(run)][i].push_back(sample);
    }
  }
  std::vector<Convergence> out;
  for (const RunSeries& run : runs) {
    if (!run[kBest].empty()) out.push_back(analyze_run(run, window_count));
  }
  return out;
}

/// Sorts, aggregates, and derives the per-phase bottleneck sets once every
/// net.* record has been collected. Pure and deterministic: full-tiebreak
/// sorts, no dependence on record arrival order.
void finalize_network(NetworkAnalysis& net) {
  if (!net.present) return;
  std::sort(net.flows.begin(), net.flows.end(),
            [](const NetFlow& a, const NetFlow& b) {
              if (a.phase != b.phase) return a.phase < b.phase;
              if (a.src != b.src) return a.src < b.src;
              return a.dst < b.dst;
            });
  std::sort(net.link_samples.begin(), net.link_samples.end(),
            [](const NetLink& a, const NetLink& b) {
              if (a.phase != b.phase) return a.phase < b.phase;
              if (a.step != b.step) return a.step < b.step;
              return a.link < b.link;
            });
  std::sort(net.phases.begin(), net.phases.end(),
            [](const NetPhase& a, const NetPhase& b) { return a.phase < b.phase; });

  for (const NetFlow& f : net.flows) {
    if (f.failed) ++net.failed;
    else ++net.completed;
    if (f.retries > 0) ++net.retried;
    net.sum_total_s += f.total_s;
    net.sum_ser_s += f.ser_s;
    net.sum_queue_s += f.queue_s;
    net.sum_hop_s += f.hop_s;
    net.sum_retry_s += f.retry_s;
    net.sum_overhead_s += f.overhead_s;
    net.max_total_s = std::max(net.max_total_s, f.total_s);
    const double residual =
        std::abs(f.ser_s + f.queue_s + f.hop_s + f.retry_s + f.overhead_s -
                 f.total_s);
    net.max_residual_s = std::max(net.max_residual_s, residual);
  }

  // Per-link aggregates over every sample mentioning the link.
  std::map<std::uint32_t, NetLinkStat> by_link;
  for (const NetLink& l : net.link_samples) {
    NetLinkStat& s = by_link[l.link];
    s.link = l.link;
    if (s.samples == 0) s.fair_min_bps = l.fair_bps;
    ++s.samples;
    s.util_mean += l.utilization;  // sum for now; divided below
    s.util_max = std::max(s.util_max, l.utilization);
    s.flows_max = std::max(s.flows_max, l.flows);
    s.fair_min_bps = std::min(s.fair_min_bps, l.fair_bps);
  }
  for (auto& [link, s] : by_link) {
    s.util_mean /= static_cast<double>(s.samples);
    net.links.push_back(s);
  }
  std::sort(net.links.begin(), net.links.end(),
            [](const NetLinkStat& a, const NetLinkStat& b) {
              if (a.util_mean != b.util_mean) return a.util_mean > b.util_mean;
              return a.link < b.link;
            });

  // Bottleneck set per phase: phase-bucket samples (step -1) within 5% of
  // the phase's peak, most utilized first, capped at 6.
  for (NetPhase& p : net.phases) {
    std::vector<const NetLink*> buckets;
    for (const NetLink& l : net.link_samples) {
      if (l.phase == p.phase && l.step == -1) buckets.push_back(&l);
    }
    if (buckets.empty()) continue;
    double peak = 0.0;
    for (const NetLink* l : buckets) peak = std::max(peak, l->utilization);
    p.max_utilization = std::max(p.max_utilization, peak);
    std::sort(buckets.begin(), buckets.end(),
              [](const NetLink* a, const NetLink* b) {
                if (a->utilization != b->utilization) {
                  return a->utilization > b->utilization;
                }
                return a->link < b->link;
              });
    for (const NetLink* l : buckets) {
      if (l->utilization < 0.95 * peak) break;
      p.bottleneck_links.push_back(l->link);
      if (p.bottleneck_links.size() >= 6) break;
    }
  }
}

}  // namespace

TraceAnalysis analyze_trace(const std::vector<std::string>& lines,
                            const ReportOptions& options) {
  TraceAnalysis result;
  std::vector<Event> events;
  events.reserve(lines.size());
  std::map<std::string, std::uint64_t> totals;
  for (const std::string& line : lines) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    ++result.total_lines;
    Event e;
    bool is_metric = false;
    if (!parse_line(line, e, &is_metric, totals, result.network)) {
      ++result.malformed_lines;
      continue;
    }
    if (is_metric) {
      ++result.metric_lines;
      continue;
    }
    ++result.event_lines;
    events.push_back(std::move(e));
  }
  for (const auto& [name, value] : totals) result.counter_totals.push_back({name, value});
  if (const auto it = totals.find("sim.rounds.replayed"); it != totals.end()) {
    result.network.rounds_replayed = it->second;
  }
  finalize_network(result.network);
  if (events.empty()) return result;

  // The tracer's writer thread drains per-batch, so events from different
  // threads can interleave out of order; stable sort restores the timeline
  // while keeping same-ts emission order (B before its own E).
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.ts < b.ts; });
  const double t_first = events.front().ts;
  const double t_last = events.back().ts;
  result.duration_us = t_last - t_first;

  std::map<std::int64_t, std::vector<OpenSpan>> stacks;
  std::map<Key, SpanAccum> span_accum;
  std::map<Key, CounterAccum> counter_accum;
  std::map<std::uint64_t, unsigned> flow_seen;  // bit 0: s, bit 1: f

  for (const Event& e : events) {
    switch (e.phase) {
      case 'B':
        stacks[e.tid].push_back(OpenSpan{e.category, e.name, e.ts, 0.0});
        break;
      case 'E': {
        auto& stack = stacks[e.tid];
        if (stack.empty()) {
          ++result.stray_ends;
        } else {
          close_span(span_accum, stack, e.ts);
        }
        break;
      }
      case 'C':
        counter_accum[Key{e.category, e.name}].samples.emplace_back(e.ts, e.value);
        break;
      case 's':
        ++result.flow_starts;
        flow_seen[e.flow] |= 1u;
        break;
      case 'f':
        ++result.flow_finishes;
        flow_seen[e.flow] |= 2u;
        break;
      default:
        break;  // X/M/i events are legal Chrome trace, just not analyzed
    }
  }
  for (auto& [tid, stack] : stacks) {
    result.threads += 1;
    // Close leftovers at trace end (crash / missing Tracer::stop); innermost
    // first so parents still subtract child time.
    while (!stack.empty()) {
      ++result.unclosed_spans;
      close_span(span_accum, stack, t_last);
    }
  }
  for (const auto& [id, bits] : flow_seen) {
    if (bits == 3u) ++result.flow_matched;
  }

  for (const auto& [key, a] : span_accum) {
    SpanStat s;
    s.category = key.first;
    s.name = key.second;
    s.count = a.count;
    s.total_us = a.total_us;
    s.self_us = a.self_us;
    s.max_us = a.max_us;
    result.spans.push_back(std::move(s));
  }
  std::stable_sort(result.spans.begin(), result.spans.end(),
                   [](const SpanStat& a, const SpanStat& b) {
                     if (a.category != b.category) return a.category < b.category;
                     if (a.self_us != b.self_us) return a.self_us > b.self_us;
                     return a.name < b.name;
                   });

  for (const auto& [key, a] : counter_accum) {
    CounterStat c;
    c.category = key.first;
    c.name = key.second;
    c.samples = a.samples.size();
    c.first = a.samples.front().second;
    c.last = a.samples.back().second;
    c.min = c.max = a.samples.front().second;
    for (const auto& [ts, value] : a.samples) {
      c.min = std::min(c.min, value);
      c.max = std::max(c.max, value);
    }
    result.counters.push_back(std::move(c));
  }

  result.convergence = analyze_convergence(counter_accum, options.windows);
  return result;
}

TraceAnalysis analyze_trace_file(const std::string& path,
                                 const ReportOptions& options) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("orp_report: cannot open trace: " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(file, line)) lines.push_back(line);
  return analyze_trace(lines, options);
}

std::vector<LedgerEntry> read_ledger_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("orp_report: cannot open ledger: " + path);
  std::vector<LedgerEntry> entries;
  std::string line;
  while (std::getline(file, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    JsonValue doc;
    try {
      doc = JsonValue::parse(line);
    } catch (const std::exception&) {
      continue;  // a torn tail line must not sink the whole report
    }
    if (!doc.is_object()) continue;
    if (string_or(doc.find("schema"), "") != "orp-run/1") continue;
    LedgerEntry e;
    e.ts = string_or(doc.find("ts"), "");
    e.tool = string_or(doc.find("tool"), "");
    e.git_sha = string_or(doc.find("git_sha"), "");
    e.compiler = string_or(doc.find("compiler"), "");
    e.wall_s = number_or(doc.find("wall_s"), 0.0);
    e.peak_rss_kb = to_int<std::int64_t>(number_or(doc.find("peak_rss_kb"), 0.0));
    if (const JsonValue* notes = doc.find("notes"); notes && notes->is_object()) {
      for (const auto& [key, value] : notes->members()) {
        std::string rendered;
        if (value.is_string()) rendered = value.as_string();
        else if (value.is_number()) rendered = format_double(value.as_number(), 6);
        else if (value.is_bool()) rendered = value.as_bool() ? "true" : "false";
        e.notes.emplace_back(key, std::move(rendered));
      }
    }
    entries.push_back(std::move(e));
  }
  return entries;
}

std::string render_markdown(const TraceAnalysis& a,
                            const std::vector<LedgerEntry>& ledger,
                            const ReportOptions& options) {
  std::ostringstream os;
  os << "# orp_report\n\n";

  os << "## Trace summary\n\n";
  {
    Table t({"metric", "value"});
    t.row().add("lines").add(a.total_lines);
    t.row().add("events").add(a.event_lines);
    t.row().add("metric records").add(a.metric_lines);
    t.row().add("malformed lines").add(a.malformed_lines);
    t.row().add("threads").add(static_cast<std::size_t>(a.threads));
    t.row().add("duration (ms)").add(a.duration_us / 1000.0, 3);
    t.row().add("unclosed spans").add(a.unclosed_spans);
    t.row().add("stray span ends").add(a.stray_ends);
    t.row().add("flow events (s/f/matched)").add(
        std::to_string(a.flow_starts) + "/" + std::to_string(a.flow_finishes) +
        "/" + std::to_string(a.flow_matched));
    t.print_markdown(os);
  }

  double total_self_us = 0.0;
  for (const SpanStat& s : a.spans) total_self_us += s.self_us;
  os << "\n## Span profile\n\n";
  if (a.spans.empty()) {
    os << "No spans recorded.\n";
  } else {
    os << "Self time sums to " << format_double(total_self_us / 1000.0, 3)
       << " ms across " << a.spans.size() << " span kinds (top "
       << options.top_k << " per category by self time).\n\n";
    Table t({"category", "name", "count", "total ms", "self ms", "self %",
             "mean us", "max us"});
    std::string current_cat;
    std::size_t shown_in_cat = 0;
    for (const SpanStat& s : a.spans) {
      if (s.category != current_cat) {
        current_cat = s.category;
        shown_in_cat = 0;
      }
      if (++shown_in_cat > options.top_k) continue;
      t.row()
          .add(s.category)
          .add(s.name)
          .add(static_cast<std::size_t>(s.count))
          .add(s.total_us / 1000.0, 3)
          .add(s.self_us / 1000.0, 3)
          .add(total_self_us > 0 ? 100.0 * s.self_us / total_self_us : 0.0, 1)
          .add(s.count ? s.total_us / static_cast<double>(s.count) : 0.0, 1)
          .add(s.max_us, 1);
    }
    t.print_markdown(os);
  }

  os << "\n## Counters\n\n";
  if (a.counter_totals.empty() && a.counters.empty()) {
    os << "No counter series recorded.\n";
  }
  if (!a.counter_totals.empty()) {
    os << "### Totals (end-of-run counters)\n\n";
    Table t({"name", "total", "rate /s"});
    const double dur_s = a.duration_us / 1e6;
    for (const CounterTotal& c : a.counter_totals) {
      t.row()
          .add(c.name)
          .add(static_cast<std::size_t>(c.value))
          .add(dur_s > 0 ? static_cast<double>(c.value) / dur_s : 0.0, 1);
    }
    t.print_markdown(os);
    os << '\n';
  }
  if (!a.counters.empty()) {
    os << "### Sampled levels\n\n";
    Table t({"category", "name", "samples", "first", "last", "min", "max"});
    for (const CounterStat& c : a.counters) {
      t.row()
          .add(c.category)
          .add(c.name)
          .add(static_cast<std::size_t>(c.samples))
          .add(c.first, 4)
          .add(c.last, 4)
          .add(c.min, 4)
          .add(c.max, 4);
    }
    t.print_markdown(os);
  }

  os << "\n## Network\n\n";
  const NetworkAnalysis& net = a.network;
  if (!net.present) {
    os << "No network telemetry in this trace.\n";
  } else {
    os << "- flow records: " << net.flows.size() << " (" << net.completed
       << " ok, " << net.failed << " failed, " << net.retried << " retried)\n";
    os << "- link samples: " << net.link_samples.size() << " across "
       << net.links.size() << " links; phases: " << net.phases.size() << "\n";
    os << "- attribution residual (max |term sum - total|): "
       << format_double(net.max_residual_s * 1e9, 6) << " ns\n";
    const bool dropped = net.flows_seen > net.flows_kept ||
                         net.links_seen > net.links_kept ||
                         net.phases_seen > net.phases_kept;
    if (dropped) {
      os << "- coverage: SAMPLED — reservoirs kept " << net.flows_kept << "/"
         << net.flows_seen << " flows, " << net.links_kept << "/"
         << net.links_seen << " link samples, " << net.phases_kept << "/"
         << net.phases_seen << " phases\n";
    } else {
      os << "- coverage: complete (no reservoir drops)\n";
    }
    if (net.rounds_replayed > 0) {
      os << "- replayed rounds: " << net.rounds_replayed
         << " repeated earlier calls and were not simulated again, so they "
            "carry no net records (sim.rounds.replayed)\n";
    }

    os << "\n### Latency attribution\n\n";
    {
      Table t({"term", "seconds", "share %"});
      const double total = net.sum_total_s;
      auto term = [&](const char* name, double seconds) {
        t.row().add(name).add(seconds, 9).add(
            total > 0 ? 100.0 * seconds / total : 0.0, 2);
      };
      term("serialization", net.sum_ser_s);
      term("queueing", net.sum_queue_s);
      term("hop / propagation", net.sum_hop_s);
      term("retry backoff", net.sum_retry_s);
      term("software overhead", net.sum_overhead_s);
      term("total", total);
      t.print_markdown(os);
    }

    if (!net.flows.empty()) {
      os << "\n### Slowest flows (top " << options.net_top
         << " by completion time)\n\n";
      std::vector<const NetFlow*> slowest;
      for (const NetFlow& f : net.flows) slowest.push_back(&f);
      std::stable_sort(slowest.begin(), slowest.end(),
                       [](const NetFlow* x, const NetFlow* y) {
                         return x->total_s > y->total_s;
                       });
      if (slowest.size() > options.net_top) slowest.resize(options.net_top);
      Table t({"phase", "src->dst", "bytes", "hops", "status", "total ms",
               "ser ms", "queue ms", "hop us", "retry ms", "mean MB/s"});
      for (const NetFlow* f : slowest) {
        t.row()
            .add(static_cast<std::size_t>(f->phase))
            .add(std::to_string(f->src) + "->" + std::to_string(f->dst))
            .add(static_cast<long long>(f->bytes))
            .add(static_cast<std::size_t>(f->hops))
            .add(f->failed ? "FAILED" : (f->retries ? "retried" : "ok"))
            .add(f->total_s * 1e3, 6)
            .add(f->ser_s * 1e3, 6)
            .add(f->queue_s * 1e3, 6)
            .add(f->hop_s * 1e6, 3)
            .add(f->retry_s * 1e3, 6)
            .add(f->rate_mean_bps / 1e6, 1);
      }
      t.print_markdown(os);
    }

    if (!net.links.empty()) {
      os << "\n### Link heatmap (top " << options.net_top
         << " by mean utilization)\n\n";
      Table t({"link", "samples", "mean util", "max util", "peak flows",
               "min fair MB/s", "heat"});
      std::size_t shown = 0;
      for (const NetLinkStat& s : net.links) {
        if (++shown > options.net_top) break;
        const int blocks =
            std::clamp(to_int<int>(std::ceil(s.util_max * 8.0 - 1e-12)), 0, 8);
        t.row()
            .add(static_cast<std::size_t>(s.link))
            .add(static_cast<std::size_t>(s.samples))
            .add(s.util_mean, 4)
            .add(s.util_max, 4)
            .add(static_cast<std::size_t>(s.flows_max))
            .add(s.fair_min_bps / 1e6, 1)
            .add(std::string(static_cast<std::size_t>(blocks), '#'));
      }
      t.print_markdown(os);
    }

    if (!net.phases.empty()) {
      os << "\n### Phase bottlenecks (top " << options.net_top
         << " by max utilization)\n\n";
      std::vector<const NetPhase*> hot;
      for (const NetPhase& p : net.phases) hot.push_back(&p);
      std::stable_sort(hot.begin(), hot.end(),
                       [](const NetPhase* x, const NetPhase* y) {
                         return x->max_utilization > y->max_utilization;
                       });
      if (hot.size() > options.net_top) hot.resize(options.net_top);
      Table t({"phase", "flows", "ok/retry/fail", "steps", "start ms",
               "elapsed ms", "max util", "bottleneck links"});
      for (const NetPhase* p : hot) {
        std::string bset;
        for (std::size_t i = 0; i < p->bottleneck_links.size(); ++i) {
          if (i) bset += ',';
          bset += std::to_string(p->bottleneck_links[i]);
        }
        t.row()
            .add(static_cast<std::size_t>(p->phase))
            .add(static_cast<std::size_t>(p->flows))
            .add(std::to_string(p->completed) + "/" +
                 std::to_string(p->retried) + "/" + std::to_string(p->failed))
            .add(static_cast<std::size_t>(p->steps))
            .add(p->start_s * 1e3, 6)
            .add(p->elapsed_s * 1e3, 6)
            .add(p->max_utilization, 4)
            .add(bset.empty() ? "-" : bset);
      }
      t.print_markdown(os);
    }
  }

  os << "\n## Annealer convergence\n\n";
  if (a.convergence.empty()) os << "No annealer telemetry in this trace.\n";
  for (std::size_t run = 0; run < a.convergence.size(); ++run) {
    const Convergence& conv = a.convergence[run];
    os << (run ? "\n" : "") << "### Run " << run + 1 << "\n\n";
    os << "- samples: " << conv.samples << "\n";
    os << "- h-ASPL: " << format_double(conv.initial_best, 6) << " -> "
       << format_double(conv.final_best, 6) << " (improvement "
       << format_double(conv.initial_best - conv.final_best, 6) << ", "
       << format_double(conv.improvement_per_s, 6) << "/s)\n";
    os << "- last improvement at " << format_double(conv.last_improvement_us / 1000.0, 3)
       << " ms";
    if (conv.last_improvement_iter >= 0) {
      os << " (iteration " << conv.last_improvement_iter << ")";
    }
    os << "\n";
    os << "- verdict: "
       << (conv.stalled ? "STALLED" : "progressing")
       << " (trailing " << format_double(100.0 * conv.stall_fraction, 1)
       << "% of the run without improvement)\n\n";
    Table t({"window", "t_end ms", "samples", "acceptance", "temperature",
             "best h-ASPL"});
    for (std::size_t w = 0; w < conv.windows.size(); ++w) {
      const ConvergenceWindow& win = conv.windows[w];
      t.row()
          .add(w + 1)
          .add(win.t_end_us / 1000.0, 3)
          .add(static_cast<std::size_t>(win.samples))
          .add(win.acceptance, 4)
          .add(win.temperature, 4)
          .add(win.best_haspl, 6);
    }
    t.print_markdown(os);
  }

  if (!ledger.empty()) {
    os << "\n## Run ledger\n\n";
    Table t({"ts", "tool", "git sha", "compiler", "wall s", "peak RSS kB"});
    // Most recent last — matches the append order of .orp/runs.jsonl.
    for (const LedgerEntry& e : ledger) {
      t.row()
          .add(e.ts)
          .add(e.tool)
          .add(e.git_sha)
          .add(e.compiler)
          .add(e.wall_s, 3)
          .add(static_cast<long long>(e.peak_rss_kb));
    }
    t.print_markdown(os);
  }
  return os.str();
}

}  // namespace orp::obs::report
