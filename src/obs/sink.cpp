#include "obs/sink.hpp"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"

namespace orp::obs {
namespace {

struct SinkState {
  std::mutex mutex;
  SinkConfig config;
  bool atexit_registered = false;
  std::vector<std::function<void()>> flush_hooks;
};

SinkState& state() {
  static SinkState* instance = new SinkState();  // leaked: used from atexit
  return *instance;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string format_json_number(double value) {
  if (value != value) return "\"nan\"";
  std::ostringstream os;
  os.precision(9);
  os << value;
  return os.str();
}

void write_summary(std::ostream& os, const MetricsSnapshot& snapshot) {
#ifdef ORP_OBS_DISABLED
  (void)snapshot;
  os << "[obs] telemetry compiled out (ORP_OBS_DISABLED)\n";
#else
  if (snapshot.empty()) {
    os << "[obs] no metrics recorded\n";
    return;
  }
  os << "[obs] run metrics\n";
  metrics_table(snapshot).print(os);
#endif
}

bool write_metrics_csv(const std::string& path, const MetricsSnapshot& snapshot) {
  return metrics_table(snapshot).write_csv_file(path);
}

void flush_locked(SinkState& s) {
  // Flush hooks first: buffered producers (sim telemetry reservoirs) get
  // to emit into the still-running tracer before it stops below.
  for (const std::function<void()>& hook : s.flush_hooks) hook();
  const MetricsSnapshot snapshot = Registry::global().snapshot();
  switch (s.config.kind) {
    case SinkKind::kNone:
      break;
    case SinkKind::kStderrSummary:
      write_summary(std::cerr, snapshot);
      break;
    case SinkKind::kCsv:
      if (!write_metrics_csv(s.config.path, snapshot)) {
        std::cerr << "[obs] warning: could not write " << s.config.path << "\n";
      }
      break;
    case SinkKind::kJsonl:
      // Stop and drain the snapshot sampler FIRST: its final tail sample
      // must be in the tracer's buffer before the trailer is appended, so
      // the end-of-run metric records are never interleaved with a partial
      // snapshot. Then stop the trace writer and append the records; if
      // the tracer was already stopped (repeated flush) write nothing more.
      stop_snapshot_sampler();
      Tracer::global().stop(snapshot_jsonl(Registry::global().snapshot()));
      break;
  }
}

void flush_at_exit() { flush(); }

}  // namespace

SinkConfig parse_sink(std::string_view spec) {
  SinkConfig config;
  if (spec.empty()) return config;
  if (spec == "stderr" || spec == "summary") {
    config.kind = SinkKind::kStderrSummary;
    return config;
  }
  config.path = std::string(spec);
  config.kind = ends_with(spec, ".csv") ? SinkKind::kCsv : SinkKind::kJsonl;
  return config;
}

SinkConfig sink_from_env() {
  const char* raw = std::getenv("ORP_OBS_OUT");
  SinkConfig config = parse_sink(raw ? std::string_view(raw) : std::string_view());
  config.snapshot_ms = snapshot_interval_from_env();
  return config;
}

bool install_env_sink() {
  const SinkConfig config = sink_from_env();
  if (config.kind == SinkKind::kNone) return false;
  return configure(config);
}

bool configure(const SinkConfig& config) {
  SinkState& s = state();
  std::lock_guard lock(s.mutex);
  if (s.config.kind != SinkKind::kNone) flush_locked(s);
  s.config = config;
  if (!s.atexit_registered && config.kind != SinkKind::kNone) {
    s.atexit_registered = true;
    std::atexit(flush_at_exit);
  }
#ifndef ORP_OBS_DISABLED
  if (config.kind == SinkKind::kJsonl) {
    if (!Tracer::global().start(config.path)) {
      std::cerr << "[obs] warning: could not open " << config.path << "\n";
      s.config = SinkConfig{};
      return false;
    }
    if (config.snapshot_ms > 0) start_snapshot_sampler(config.snapshot_ms);
  }
#endif
  return true;
}

void flush() {
  SinkState& s = state();
  std::lock_guard lock(s.mutex);
  flush_locked(s);
  if (s.config.kind == SinkKind::kJsonl) {
    // The trace file is closed now; later flushes must not reopen it.
    s.config = SinkConfig{};
  }
}

void register_flush_hook(std::function<void()> hook) {
  SinkState& s = state();
  std::lock_guard lock(s.mutex);
  s.flush_hooks.push_back(std::move(hook));
}

const SinkConfig& active_sink() {
  return state().config;
}

Table metrics_table(const MetricsSnapshot& snapshot) {
  Table table(
      {"kind", "name", "value", "count", "mean", "p50", "p90", "p99", "max"});
  for (const CounterSample& c : snapshot.counters) {
    table.row().add("counter").add(c.name).add(static_cast<long long>(c.value))
        .add("").add("").add("").add("").add("").add("");
  }
  for (const GaugeSample& g : snapshot.gauges) {
    table.row().add("gauge").add(g.name).add(static_cast<long long>(g.value))
        .add("").add("").add("").add("").add("")
        .add(static_cast<long long>(g.max));
  }
  for (const HistogramSample& h : snapshot.histograms) {
    table.row().add("histogram").add(h.name)
        .add(static_cast<long long>(h.sum))
        .add(static_cast<long long>(h.count))
        .add(h.mean(), 1)
        .add(h.quantile_interp(0.5), 1)
        .add(h.quantile_interp(0.9), 1)
        .add(h.quantile_interp(0.99), 1)
        .add(static_cast<long long>(h.max));
  }
  return table;
}

void print_summary(std::ostream& os) {
  write_summary(os, Registry::global().snapshot());
}

std::vector<std::string> snapshot_jsonl(const MetricsSnapshot& snapshot) {
  std::vector<std::string> lines;
  lines.reserve(snapshot.counters.size() + snapshot.gauges.size() +
                snapshot.histograms.size());
  for (const CounterSample& c : snapshot.counters) {
    lines.push_back("{\"kind\":\"counter\",\"name\":\"" + json_escape(c.name) +
                    "\",\"value\":" + std::to_string(c.value) + "}");
  }
  for (const GaugeSample& g : snapshot.gauges) {
    lines.push_back("{\"kind\":\"gauge\",\"name\":\"" + json_escape(g.name) +
                    "\",\"value\":" + std::to_string(g.value) +
                    ",\"max\":" + std::to_string(g.max) + "}");
  }
  for (const HistogramSample& h : snapshot.histograms) {
    std::string line = "{\"kind\":\"histogram\",\"name\":\"" + json_escape(h.name) +
                       "\",\"count\":" + std::to_string(h.count) +
                       ",\"sum\":" + std::to_string(h.sum) +
                       ",\"min\":" + std::to_string(h.min) +
                       ",\"max\":" + std::to_string(h.max) +
                       ",\"mean\":" + format_json_number(h.mean()) +
                       ",\"p50\":" + format_json_number(h.quantile_interp(0.5)) +
                       ",\"p90\":" + format_json_number(h.quantile_interp(0.9)) +
                       ",\"p99\":" + format_json_number(h.quantile_interp(0.99)) +
                       ",\"buckets\":[";
    // Trailing zero buckets are trimmed to keep lines short; bucket i
    // counts values in [2^(i-1), 2^i).
    std::size_t last = 0;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      if (h.buckets[b] != 0) last = b + 1;
    }
    for (std::size_t b = 0; b < last; ++b) {
      if (b) line += ',';
      line += std::to_string(h.buckets[b]);
    }
    line += "]}";
    lines.push_back(std::move(line));
  }
  return lines;
}

bool write_csv(const Table& table, const std::string& path) {
  if (!table.write_csv_file(path)) {
    std::cerr << "[obs] warning: could not write " << path << "\n";
    return false;
  }
  return true;
}

void add_cli_options(CliParser& cli) {
  cli.option("obs-out", "",
             "telemetry sink: 'stderr', a .csv path, or a .jsonl trace path "
             "(default: $ORP_OBS_OUT)");
  cli.flag("obs-summary", "print the end-of-run metrics table on stdout");
  cli.option("obs-snapshot-ms", "",
             "metric snapshot interval for JSONL traces in ms, 0 disables "
             "(default: $ORP_OBS_SNAPSHOT_MS or 250)");
}

bool apply_cli(const CliParser& cli) {
  const std::string spec = cli.get("obs-out");
  SinkConfig config = spec.empty() ? sink_from_env() : parse_sink(spec);
  const std::string interval = cli.get("obs-snapshot-ms");
  config.snapshot_ms = interval.empty()
                           ? snapshot_interval_from_env()
                           : cli.get_uint<std::uint32_t>("obs-snapshot-ms");
  return configure(config);
}

bool cli_wants_summary(const CliParser& cli) {
  return cli.has("obs-summary");
}

}  // namespace orp::obs
