#pragma once
// Offline analysis of the JSONL traces this repo records (docs/obs.md):
// the engine behind tools/orp_report. Reads a trace (plus optionally the
// run ledger) and produces
//
//   * a flamegraph-style span profile: per (category, name) count, total
//     time, and SELF time (total minus enclosed children), from the B/E
//     pairing per tid,
//   * counter totals: the trailer's {"kind":"counter"} records give each
//     counter's end-of-run total and its rate over the trace; sampled
//     level series ("C" events, e.g. annealer temperature) report
//     first/last/min/max,
//   * flow-event accounting: s/f id pairing across threads,
//   * annealer convergence diagnostics per anneal run: windowed acceptance
//     rate vs temperature, h-ASPL improvement per second, and stall
//     detection,
//   * network telemetry (the sim's "cat":"net" instants, docs/telemetry.md):
//     per-flow latency attribution with a term-sum residual check, per-link
//     utilization aggregates, and the bottleneck link set per phase.
//
// Analysis is pure and deterministic: the same trace bytes produce the
// same analysis and byte-identical rendered reports. This code does not
// depend on the instrumentation layer.

#include <cstdint>
#include <string>
#include <vector>

namespace orp::obs::report {

struct SpanStat {
  std::string category;
  std::string name;
  std::uint64_t count = 0;
  double total_us = 0.0;  ///< sum over instances, children included
  double self_us = 0.0;   ///< sum over instances, children excluded
  double max_us = 0.0;    ///< longest single instance (total time)
};

/// One "C" event series (a sampled level).
struct CounterStat {
  std::string category;
  std::string name;
  std::uint64_t samples = 0;
  double first = 0.0, last = 0.0;
  double min = 0.0, max = 0.0;
};

/// One trailer counter record ({"kind":"counter"}): the run's final total.
struct CounterTotal {
  std::string name;
  std::uint64_t value = 0;
};

struct ConvergenceWindow {
  double t_end_us = 0.0;       ///< window upper edge
  std::uint64_t samples = 0;   ///< annealer samples inside the window
  double acceptance = 0.0;     ///< mean windowed acceptance rate
  double temperature = 0.0;    ///< mean temperature
  double best_haspl = 0.0;     ///< best-so-far h-ASPL at window end
};

/// One anneal run's convergence, from its annealer.* series.
struct Convergence {
  std::uint64_t samples = 0;
  double initial_best = 0.0, final_best = 0.0;
  double improvement_per_s = 0.0;  ///< h-ASPL drop per wall second (>0 improving)
  double last_improvement_us = 0.0;
  std::int64_t last_improvement_iter = -1;  ///< -1 when no iteration series
  double stall_fraction = 0.0;  ///< trailing fraction of the run w/o improvement
  bool stalled = false;         ///< no progress through the trailing half
  std::vector<ConvergenceWindow> windows;
};

// ---- network telemetry (sim/telemetry "net.*" instant events) ------------

/// One flow lifecycle ("net.flow"). The attribution terms are defined so
/// ser + queue + hop + retry + overhead == total (docs/telemetry.md);
/// NetworkAnalysis::max_residual_s reports the worst observed deviation.
struct NetFlow {
  std::uint64_t phase = 0;
  std::uint32_t src = 0, dst = 0;
  std::uint64_t bytes = 0;
  std::uint32_t hops = 0, retries = 0;
  bool failed = false;
  double start_s = 0.0, total_s = 0.0;
  double ser_s = 0.0, queue_s = 0.0, hop_s = 0.0, retry_s = 0.0,
         overhead_s = 0.0;
  double rate_first_bps = 0.0, rate_last_bps = 0.0, rate_mean_bps = 0.0;
};

/// One link in one time bucket ("net.link"); step -1 = whole-phase bucket.
struct NetLink {
  std::uint64_t phase = 0;
  std::int64_t step = -1;
  std::uint32_t link = 0;
  double t0_s = 0.0, t1_s = 0.0;
  double utilization = 0.0;
  std::uint32_t flows = 0;
  double fair_bps = 0.0;
};

/// One communication phase ("net.phase") plus its derived bottleneck set.
struct NetPhase {
  std::uint64_t phase = 0;
  std::uint32_t flows = 0, completed = 0, failed = 0, retried = 0, steps = 0;
  double start_s = 0.0, elapsed_s = 0.0, transfer_s = 0.0;
  double max_utilization = 0.0;
  /// Links within 5% of the phase's peak utilization (at most 6, most
  /// utilized first), from the phase-bucket link samples.
  std::vector<std::uint32_t> bottleneck_links;
};

/// Per-link aggregate over every sample that mentions the link.
struct NetLinkStat {
  std::uint32_t link = 0;
  std::uint64_t samples = 0;
  double util_mean = 0.0, util_max = 0.0;
  std::uint32_t flows_max = 0;
  double fair_min_bps = 0.0;
};

struct NetworkAnalysis {
  bool present = false;  ///< any net.* record was found in the trace
  std::vector<NetFlow> flows;        ///< sorted (phase, src, dst)
  std::vector<NetLink> link_samples; ///< sorted (phase, step, link)
  std::vector<NetPhase> phases;      ///< sorted by phase
  std::vector<NetLinkStat> links;    ///< sorted by mean utilization desc
  std::uint64_t completed = 0, failed = 0, retried = 0;
  double sum_total_s = 0.0, sum_ser_s = 0.0, sum_queue_s = 0.0,
         sum_hop_s = 0.0, sum_retry_s = 0.0, sum_overhead_s = 0.0;
  double max_total_s = 0.0;
  /// max |(ser+queue+hop+retry+overhead) - total| over the flow records;
  /// the acceptance bound is 1e-6 s.
  double max_residual_s = 0.0;
  /// Reservoir coverage from "net.meta": seen == kept means the trace
  /// holds every record the run produced (nothing was sampled away).
  std::uint64_t flows_seen = 0, flows_kept = 0;
  std::uint64_t links_seen = 0, links_kept = 0;
  std::uint64_t phases_seen = 0, phases_kept = 0;
  /// Rounds the simulator replayed instead of simulating (the trailer's
  /// sim.rounds.replayed total): the records above omit them.
  std::uint64_t rounds_replayed = 0;
};

/// One parsed run-ledger record (src/obs/ledger.hpp schema).
struct LedgerEntry {
  std::string ts, tool, git_sha, compiler;
  double wall_s = 0.0;
  std::int64_t peak_rss_kb = 0;
  std::vector<std::pair<std::string, std::string>> notes;
};

struct TraceAnalysis {
  std::size_t total_lines = 0;
  std::size_t event_lines = 0;      ///< Chrome-trace events (ph present)
  std::size_t metric_lines = 0;     ///< trailer metric records (kind present)
  std::size_t malformed_lines = 0;  ///< rejected lines (bad JSON / no schema)
  std::size_t unclosed_spans = 0;   ///< B without E (closed at trace end)
  std::size_t stray_ends = 0;       ///< E without a matching open B
  double duration_us = 0.0;         ///< last event ts minus first event ts
  std::uint32_t threads = 0;        ///< distinct tids seen
  std::uint64_t flow_starts = 0, flow_finishes = 0, flow_matched = 0;
  std::vector<SpanStat> spans;        ///< sorted: category, self time desc
  std::vector<CounterStat> counters;  ///< sorted: category, name
  /// Trailer counters, sorted by name (a repeated name keeps its last value).
  std::vector<CounterTotal> counter_totals;
  /// One entry per anneal run, in trace order. A run starts at each
  /// annealer.iteration sample of 0; a trace without that series is one
  /// run. Empty when the trace has no annealer.best_haspl series.
  std::vector<Convergence> convergence;
  NetworkAnalysis network;
};

struct ReportOptions {
  std::size_t top_k = 20;    ///< spans listed per category
  std::size_t windows = 8;   ///< convergence windows
  std::size_t net_top = 12;  ///< rows in each network section table
};

/// Analyzes in-memory JSONL lines (exposed for tests).
TraceAnalysis analyze_trace(const std::vector<std::string>& lines,
                            const ReportOptions& options = {});

/// Reads and analyzes a trace file. Throws std::runtime_error when the
/// file cannot be opened.
TraceAnalysis analyze_trace_file(const std::string& path,
                                 const ReportOptions& options = {});

/// Parses a run-ledger JSONL file; malformed lines are skipped. Throws
/// std::runtime_error when the file cannot be opened.
std::vector<LedgerEntry> read_ledger_file(const std::string& path);

/// Renders the analysis as markdown (byte-deterministic). `ledger` may be
/// empty; when non-empty the most recent entries are appended.
std::string render_markdown(const TraceAnalysis& analysis,
                            const std::vector<LedgerEntry>& ledger = {},
                            const ReportOptions& options = {});

}  // namespace orp::obs::report
