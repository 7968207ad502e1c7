#pragma once
// Scoped tracing: RAII Span objects emit begin/end events; a background
// writer thread drains them to a JSONL file whose objects use Chrome
// trace_event fields ("name", "cat", "ph", "ts" in microseconds, "pid",
// "tid", "args"), so a run trace loads directly into chrome://tracing or
// Perfetto. One JSON object per line; see docs/obs.md for the schema.
//
// When no sink is started, Span construction is one relaxed atomic load —
// cheap enough to leave in simulator phase loops (docs/obs.md, "Idle cost").

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.hpp"

namespace orp::obs {

struct TraceEvent {
  enum class Phase : char {
    kBegin = 'B',      ///< span opened
    kEnd = 'E',        ///< span closed (carries the span's args)
    kCounter = 'C',    ///< time-series sample
    kInstant = 'i',    ///< point event
    kFlowStart = 's',  ///< flow arrow tail (producer side, inside a span)
    kFlowEnd = 'f',    ///< flow arrow head (consumer side, bp:"e" binding)
  };
  std::string name;
  std::string category;
  Phase phase = Phase::kInstant;
  std::uint64_t ts_ns = 0;  ///< nanoseconds since tracer start
  std::uint32_t tid = 0;
  /// Flow-event correlation id ("id" field); 0 means not a flow event.
  /// Chrome/Perfetto bind s/f pairs on (cat, name, id).
  std::uint64_t flow_id = 0;
  /// Key → pre-encoded JSON value ("3", "0.5", "\"text\"", "[1,2]").
  std::vector<std::pair<std::string, std::string>> args;
};

/// Global event collector. start() opens the output file and launches the
/// writer thread; stop() drains, joins, and closes. Emission between
/// start/stop appends to a double-buffered queue under a short lock.
class Tracer {
 public:
  static Tracer& global();

  bool enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }

  /// Begins writing JSONL to `path`. Returns false if the file cannot be
  /// opened (tracing stays disabled). Restartable after stop().
  bool start(const std::string& path);
  /// Flushes pending events, writes `trailer_lines` (already-serialized
  /// JSON objects, e.g. the metrics snapshot), and closes the file.
  /// Returns false when a write to the file failed since start() (the
  /// trace is then incomplete); true otherwise, also when not started.
  bool stop(const std::vector<std::string>& trailer_lines = {});

  void emit(TraceEvent event);
  /// Convenience "C" event: one sample of a named time series.
  void counter(std::string_view name, double value, std::string_view category = "");

  /// Nanoseconds since start() (0 when disabled); spans timestamp with this.
  std::uint64_t now_ns() const noexcept;
  /// Small dense id for the calling thread (stable per thread).
  static std::uint32_t thread_id() noexcept;

  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

 private:
  Tracer() = default;
  void writer_main();
  void write_events(const std::vector<TraceEvent>& events);

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_{};

  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<TraceEvent> buffer_;
  bool stopping_ = false;
  std::thread writer_;
  void* file_ = nullptr;  // std::ofstream*, kept out of the header
  /// A write to file_ failed; set by the writer, read by stop() after it
  /// joined the writer.
  bool write_failed_ = false;
};

/// RAII span: emits a begin event at construction and an end event (with
/// any attached args) at destruction. Nesting is expressed by the B/E
/// pairing per thread, exactly as Chrome's trace viewer expects.
class Span {
 public:
  /// `name` and `category` must outlive the span (string literals).
  explicit Span(const char* name, const char* category = "") noexcept
      : name_(name), category_(category), active_(Tracer::global().enabled()) {
    if (active_) emit_begin();
  }
  ~Span() {
    if (active_) emit_end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a key/value to the span's end event. No-ops when inactive.
  void arg(std::string_view key, double value);
  void arg(std::string_view key, std::int64_t value);
  void arg(std::string_view key, std::uint64_t value);
  void arg(std::string_view key, std::string_view value);
  /// Pre-encoded JSON value (arrays/objects), appended verbatim.
  void arg_json(std::string_view key, std::string value);

  bool active() const noexcept { return active_; }

 private:
  void emit_begin();
  void emit_end();

  const char* name_;
  const char* category_;
  bool active_;
  std::vector<std::pair<std::string, std::string>> args_;
};

/// Forwards to orp::json_escape_string, the one JSON string escaper. Kept
/// only because perfbench/orp_perfbench.cpp calls it under this name.
inline std::string json_escape(std::string_view text) { return json_escape_string(text); }

// ---- trace-context propagation (flow events) ----------------------------
//
// Work handed to another thread (the thread pool) keeps its attribution by
// carrying a flow id: the producer calls flow_begin() while inside a span
// (emitting an 's' event under that span), passes the returned id along
// with the task, and the consumer calls flow_end(id, ...) inside the span
// that executes the task (emitting the 'f' head). Perfetto then draws the
// arrow from the enqueuing span to the task span.

/// True when the calling thread currently has at least one active Span.
bool in_span() noexcept;

/// Emits a flow-start ('s') event and returns its correlation id. Returns 0
/// (and emits nothing) when tracing is off or the caller is not inside a
/// span — there is nothing to attribute the flow to.
std::uint64_t flow_begin(const char* name, const char* category = "");

/// Emits the matching flow-end ('f') head. No-op when `id` is 0. Call this
/// inside the span that executes the handed-off work so the arrow has a
/// slice to land on.
void flow_end(std::uint64_t id, const char* name, const char* category = "");

}  // namespace orp::obs
