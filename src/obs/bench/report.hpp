#pragma once
// The canonical BENCH_*.json report: the machine-readable perf trajectory
// of this repo. Written by the microbench harness, read back by
// tools/bench_diff (the CI regression gate). Schema documented in
// docs/bench.md; the version tag below bumps on breaking changes.
//
// Robust statistics: per-benchmark wall time is summarized as min / median
// / MAD (median absolute deviation, scaled by 1.4826 to estimate sigma for
// normal noise) across repetitions — mean/stddev would let one preempted
// repetition poison the series, and CI runners preempt constantly.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/bench/provenance.hpp"

namespace orp {
class Table;
}

namespace orp::obs::bench {

inline constexpr const char* kBenchSchema = "orp-bench/1";

/// Per-op wall-clock summary across repetitions.
struct WallStats {
  double min_ns = 0.0;
  double median_ns = 0.0;
  double mad_ns = 0.0;  ///< scaled MAD (sigma estimate), see file comment
  double ops_per_sec = 0.0;
};

struct BenchEntry {
  std::string name;    ///< e.g. "aspl.bit_parallel.n256_r12"
  std::string family;  ///< e.g. "aspl"
  int repetitions = 0;
  std::uint64_t iters_per_rep = 0;
  WallStats wall;
  double cpu_user_ns = 0.0;  ///< getrusage user time per op (median)
  double cpu_sys_ns = 0.0;   ///< getrusage system time per op (median)
};

struct BenchReport {
  std::string schema = kBenchSchema;
  Provenance provenance;
  bool quick = false;
  std::int64_t peak_rss_kb = 0;
  std::vector<BenchEntry> entries;

  const BenchEntry* find(const std::string& name) const noexcept;
};

/// Serializes the report (stable field order, 2-space indent).
std::string report_to_json(const BenchReport& report);

/// Parses and validates a BENCH_*.json document. Throws std::runtime_error
/// on malformed JSON, a wrong schema tag, or missing required fields.
/// Unknown fields, such as the hardware-counter fields older builds wrote,
/// are ignored, so older reports still parse.
BenchReport report_from_json(const std::string& text);

/// Convenience: report_from_json over a file. Throws on unreadable paths.
BenchReport report_from_file(const std::string& path);

// ---- robust statistics helpers (exposed for tests) ----------------------

/// Median of `values` (copies; empty input returns 0).
double median(std::vector<double> values);

/// Scaled median absolute deviation around `center`: 1.4826 * median(|x-c|).
double scaled_mad(const std::vector<double>& values, double center);

// ---- regression comparison ----------------------------------------------

struct DiffOptions {
  /// Relative slowdown tolerated before a series counts as regressed:
  /// new_median > old_median * (1 + tolerance).
  double tolerance = 0.25;
  /// Noise guard: the absolute slowdown must also exceed `mad_sigma` times
  /// the larger MAD of the two runs, so jittery series need a bigger jump.
  double mad_sigma = 4.0;
  /// And exceed this absolute floor (ns/op) — sub-floor deltas are timer
  /// granularity, not regressions.
  double abs_floor_ns = 10.0;
};

struct DiffRow {
  std::string name;
  double old_median_ns = 0.0;
  double new_median_ns = 0.0;
  double ratio = 1.0;  ///< new / old
  bool regressed = false;
  bool improved = false;
};

struct DiffResult {
  std::vector<DiffRow> rows;               ///< benchmarks present in both
  std::vector<std::string> only_baseline;  ///< disappeared series (warned)
  std::vector<std::string> only_current;   ///< new series (informational)
  bool mode_mismatch = false;              ///< quick vs full comparison
  bool any_regression = false;
};

DiffResult diff_reports(const BenchReport& baseline, const BenchReport& current,
                        const DiffOptions& options = {});

/// Renders the diff as an aligned table (name, old, new, ratio, verdict).
Table diff_table(const DiffResult& diff);

}  // namespace orp::obs::bench
