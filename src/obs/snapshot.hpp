#pragma once
// Continuous profiling: a background sampler that periodically snapshots
// the metrics registry and emits the *deltas* since the previous tick as
// Chrome-trace "C" (counter time-series) events into the active JSONL
// trace. A 30-minute anneal then yields rate curves (moves/s, evals/s,
// task latency mass per interval) instead of one terminal total.
//
// Emitted series (category distinguishes semantics for tools/orp_report):
//   counters    — per-interval delta, category "snapshot" (skipped when 0)
//   gauges      — current level, category "snapshot.level" (on change)
//   histograms  — "<name>.count" and "<name>.sum" per-interval deltas,
//                 category "snapshot"
//
// The sampler is started by the JSONL sink (src/obs/sink.cpp) using the
// interval from --obs-snapshot-ms / ORP_OBS_SNAPSHOT_MS (default 250 ms,
// 0 disables) and is stopped — and its final tail sample drained — before
// the sink appends the end-of-run metric records, so trailer lines are
// never interleaved with a partial snapshot.

#include <cstdint>

namespace orp::obs {

/// Default sampling interval when neither the CLI nor the environment says
/// otherwise.
inline constexpr std::uint32_t kDefaultSnapshotMs = 250;

/// Reads ORP_OBS_SNAPSHOT_MS as parse_uint's digits up to UINT32_MAX;
/// returns kDefaultSnapshotMs when it is unset or anything else. 0 means
/// "sampling off".
std::uint32_t snapshot_interval_from_env() noexcept;

/// Launches the sampler thread at `interval_ms`. Returns false (and does
/// nothing) when `interval_ms` is 0 or a sampler is already running.
bool start_snapshot_sampler(std::uint32_t interval_ms);

/// Stops the sampler: emits one final delta sample covering the tail
/// interval, then joins the thread. Safe to call when not running.
void stop_snapshot_sampler();

/// True while the sampler thread is alive.
bool snapshot_sampler_running() noexcept;

}  // namespace orp::obs
