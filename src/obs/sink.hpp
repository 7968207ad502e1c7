#pragma once
// Output selection for the observability layer.
//
// A sink is chosen from the ORP_OBS_OUT environment variable or the
// --obs-out CLI option (CLI wins):
//   "stderr"     — human-readable metrics summary table on stderr at flush
//   "<path>.csv" — metrics snapshot as CSV (one row per instrument)
//   "<path>"     — JSONL: streamed trace events + trailing metric records
//   "" / unset   — no sink (instruments still count; summary on demand)
//
// configure() installs the sink (starting the trace writer for JSONL) and
// registers an atexit flush so a crash-free run always lands its data.

#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace orp {

class CliParser;
class Table;

namespace obs {

enum class SinkKind { kNone, kStderrSummary, kCsv, kJsonl };

struct SinkConfig {
  SinkKind kind = SinkKind::kNone;
  std::string path;  ///< output file for kCsv / kJsonl
};

/// Maps a spec string to a config: "" → none, "stderr" → summary,
/// "*.csv" → CSV, anything else → JSONL at that path.
SinkConfig parse_sink(std::string_view spec);

/// Reads ORP_OBS_OUT (empty config when unset).
SinkConfig sink_from_env();

/// configure(sink_from_env()) when the variable is set; no-op otherwise.
/// Invoked from a static initializer in metrics.cpp so every instrumented
/// binary honors ORP_OBS_OUT without explicit wiring; apply_cli() may
/// still reconfigure after argument parsing (CLI wins).
bool install_env_sink();

/// Installs `config` as the process sink. For JSONL this starts the
/// background trace writer. Returns false if an output file could not be
/// opened. Reconfiguring flushes the previous sink first.
bool configure(const SinkConfig& config);

/// Writes the metrics snapshot through the active sink (and, for JSONL,
/// drains + closes the trace stream). Safe to call repeatedly; called
/// automatically at exit once configure() has run. Returns false, after
/// printing "[obs] error: <path>: write failed" on stderr, when the sink's
/// file could not be written in full.
bool flush();

/// Registers a callback invoked at the start of every flush, before the
/// trace writer drains — the hook's last chance to emit buffered trace
/// events (the sim telemetry reservoirs use this). Hooks run in
/// registration order, live for the process, and must not call
/// flush()/configure() themselves (the sink lock is held).
void register_flush_hook(std::function<void()> hook);

/// The currently active sink.
const SinkConfig& active_sink();

/// Renders a snapshot as a table (kind/name/value/count/mean/p50/p90/p99/
/// max; percentiles interpolated within log2 buckets) using the shared
/// Table so the summary matches the bench output style.
Table metrics_table(const MetricsSnapshot& snapshot);

/// Prints the current registry contents as an aligned table.
void print_summary(std::ostream& os);

/// Serializes one snapshot record per line ({"kind":"counter",...});
/// appended to JSONL traces and reused by tests.
std::vector<std::string> snapshot_jsonl(const MetricsSnapshot& snapshot);

/// Registers --obs-out and --obs-summary on a parser.
void add_cli_options(CliParser& cli);

/// Applies --obs-out (falling back to ORP_OBS_OUT) after parse(). Returns
/// false when the requested sink could not be opened.
bool apply_cli(const CliParser& cli);

/// True when --obs-summary was passed.
bool cli_wants_summary(const CliParser& cli);

}  // namespace obs
}  // namespace orp
