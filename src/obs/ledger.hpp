#pragma once
// Cross-run ledger: every obs-wired binary appends one JSON record per run
// to $ORP_RUN_LEDGER (default ".orp/runs.jsonl"), so runs stay queryable
// across invocations — which binary, which argv, which build (git SHA,
// compiler, CPU), how long, how much memory, and where the artifacts went.
//
// Record schema ("orp-run/1"), one object per line:
//   {"schema":"orp-run/1","ts":"2026-08-08T12:34:56Z","tool":"abl_random_vs_sa",
//    "argv":["abl_random_vs_sa","--obs-out","trace.jsonl"],
//    "git_sha":"8f151e1","compiler":"gcc 12.2.0","build_type":"Release",
//    "cpu":"...","threads":16,"wall_s":12.345,"peak_rss_kb":68112,
//    "notes":{"n":"256","best_haspl":"4.31"},"artifacts":["trace.jsonl"]}
//
// Appends are one O_APPEND write() of the whole line, so concurrent
// writers (parallel CI jobs, a sweep script) never interleave partial
// records. Set ORP_RUN_LEDGER to "none", "off", or an empty string to
// disable; relative default paths resolve against the working directory.

#include <cstdint>
#include <string>
#include <string_view>

namespace orp::obs {

inline constexpr const char* kLedgerSchema = "orp-run/1";
inline constexpr const char* kDefaultLedgerPath = ".orp/runs.jsonl";

/// Resolved ledger path: $ORP_RUN_LEDGER, or kDefaultLedgerPath when unset.
/// Empty when the ledger is disabled ("", "none", "off").
std::string ledger_path();

/// Captures argv and the run start time. Call once, right after argument
/// parsing; append_run_ledger() measures wall time from here.
void ledger_capture_argv(int argc, const char* const* argv);

/// Attaches a key/value to this run's record (last write per key wins).
void ledger_note(std::string_view key, std::string_view value);
void ledger_note(std::string_view key, double value);
void ledger_note(std::string_view key, std::int64_t value);

/// Registers an output file produced by this run (trace path, BENCH json).
void ledger_artifact(std::string_view path);

/// Builds the record and appends it to the ledger. Returns false when the
/// ledger is disabled or the write failed. Appends at most once per
/// process (later calls are no-ops returning true), so an explicit call
/// and an exit hook cannot double-record a run.
bool append_run_ledger();

/// Resident-set high-watermark of this process in kilobytes (ru_maxrss):
/// the record's peak_rss_kb, and the one BENCH reports carry.
std::int64_t peak_rss_kb() noexcept;

/// Appends `line` + '\n' to `path` with a single O_APPEND write, creating
/// parent directories as needed. Exposed for tests and external tooling.
bool ledger_append_line(const std::string& path, const std::string& line);

}  // namespace orp::obs
