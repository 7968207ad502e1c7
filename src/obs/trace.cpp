#include "obs/trace.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json.hpp"

namespace orp::obs {
namespace {

// Formats nanoseconds as microseconds with 3 decimals ("12.345"), the unit
// Chrome's trace viewer expects in "ts".
void append_ts_us(std::string& out, std::uint64_t ts_ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ts_ns / 1000),
                static_cast<unsigned long long>(ts_ns % 1000));
  out += buf;
}

void append_event_json(std::string& out, const TraceEvent& e) {
  out += "{\"name\":\"";
  out += json_escape_string(e.name);
  out += "\",\"cat\":\"";
  out += e.category.empty() ? "orp" : json_escape_string(e.category);
  out += "\",\"ph\":\"";
  out += static_cast<char>(e.phase);
  out += "\",\"ts\":";
  append_ts_us(out, e.ts_ns);
  out += ",\"pid\":1,\"tid\":";
  out += std::to_string(e.tid);
  if (e.flow_id != 0) {
    out += ",\"id\":";
    out += std::to_string(e.flow_id);
    // Flow heads bind to the enclosing slice ("bp":"e"), the modern binding
    // Perfetto expects for same-process flows.
    if (e.phase == TraceEvent::Phase::kFlowEnd) out += ",\"bp\":\"e\"";
  }
  if (!e.args.empty()) {
    out += ",\"args\":{";
    bool first = true;
    for (const auto& [key, value] : e.args) {
      if (!first) out += ',';
      first = false;
      out += '"';
      out += json_escape_string(key);
      out += "\":";
      out += value;
    }
    out += '}';
  }
  out += "}\n";
}

// Per-thread count of live active Spans; flows are only attributable when
// the producer sits inside one.
thread_local int t_span_depth = 0;

std::string format_double_json(double value) {
  // JSON has no inf/nan; clamp to a string so the line stays parseable.
  if (value != value) return "\"nan\"";
  if (value > 1e308) return "\"inf\"";
  if (value < -1e308) return "\"-inf\"";
  std::ostringstream os;
  os.precision(9);
  os << value;
  return os.str();
}

}  // namespace

Tracer& Tracer::global() {
  static Tracer* instance = new Tracer();  // leaked: outlives static spans
  return *instance;
}

Tracer::~Tracer() { stop(); }

std::uint32_t Tracer::thread_id() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

std::uint64_t Tracer::now_ns() const noexcept {
  if (!enabled()) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

bool Tracer::start(const std::string& path) {
  std::lock_guard lock(mutex_);
  if (enabled_.load(std::memory_order_relaxed)) return true;  // already running
  auto* file = new std::ofstream(path, std::ios::out | std::ios::trunc);
  if (!*file) {
    delete file;
    return false;
  }
  file_ = file;
  write_failed_ = false;
  buffer_.clear();
  stopping_ = false;
  epoch_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_release);
  writer_ = std::thread([this] { writer_main(); });
  return true;
}

bool Tracer::stop(const std::vector<std::string>& trailer_lines) {
  std::thread writer;
  {
    std::lock_guard lock(mutex_);
    if (!enabled_.load(std::memory_order_relaxed)) return true;
    enabled_.store(false, std::memory_order_release);
    stopping_ = true;
    writer = std::move(writer_);
  }
  cv_.notify_all();
  if (writer.joinable()) writer.join();

  // The writer has exited; whatever it left behind plus the trailer is ours.
  std::lock_guard lock(mutex_);
  auto* file = static_cast<std::ofstream*>(file_);
  if (file) {
    write_events(buffer_);
    buffer_.clear();
    for (const std::string& line : trailer_lines) *file << line << '\n';
    file->flush();
    write_failed_ = write_failed_ || !*file;
    delete file;
    file_ = nullptr;
  }
  return !write_failed_;
}

void Tracer::emit(TraceEvent event) {
  std::lock_guard lock(mutex_);
  if (!enabled_.load(std::memory_order_relaxed)) return;
  buffer_.push_back(std::move(event));
  if (buffer_.size() == 1) cv_.notify_one();
}

void Tracer::counter(std::string_view name, double value, std::string_view category) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = std::string(name);
  e.category = std::string(category);
  e.phase = TraceEvent::Phase::kCounter;
  e.ts_ns = now_ns();
  e.tid = thread_id();
  e.args.emplace_back("value", format_double_json(value));
  emit(std::move(e));
}

void Tracer::writer_main() {
  std::vector<TraceEvent> draining;
  for (;;) {
    {
      std::unique_lock lock(mutex_);
      cv_.wait_for(lock, std::chrono::milliseconds(50),
                   [this] { return stopping_ || !buffer_.empty(); });
      if (stopping_) return;  // stop() drains the remainder
      draining.swap(buffer_);
    }
    // File IO happens outside the lock so emitters never wait on disk;
    // file_ is stable while the writer lives (stop() deletes it only
    // after joining this thread).
    if (!draining.empty()) {
      write_events(draining);
      draining.clear();
    }
  }
}

void Tracer::write_events(const std::vector<TraceEvent>& events) {
  auto* file = static_cast<std::ofstream*>(file_);
  if (!file) return;
  std::string out;
  out.reserve(events.size() * 96);
  for (const TraceEvent& e : events) append_event_json(out, e);
  *file << out;
  write_failed_ = write_failed_ || !*file;
}

void Span::emit_begin() {
  ++t_span_depth;
  Tracer& tracer = Tracer::global();
  TraceEvent e;
  e.name = name_;
  e.category = category_;
  e.phase = TraceEvent::Phase::kBegin;
  e.ts_ns = tracer.now_ns();
  e.tid = Tracer::thread_id();
  tracer.emit(std::move(e));
}

void Span::emit_end() {
  --t_span_depth;
  Tracer& tracer = Tracer::global();
  TraceEvent e;
  e.name = name_;
  e.category = category_;
  e.phase = TraceEvent::Phase::kEnd;
  e.ts_ns = tracer.now_ns();
  e.tid = Tracer::thread_id();
  e.args = std::move(args_);
  tracer.emit(std::move(e));
}

bool in_span() noexcept { return t_span_depth > 0; }

std::uint64_t flow_begin(const char* name, const char* category) {
  Tracer& tracer = Tracer::global();
  if (!tracer.enabled() || t_span_depth <= 0) return 0;
  static std::atomic<std::uint64_t> next_id{1};
  const std::uint64_t id = next_id.fetch_add(1, std::memory_order_relaxed);
  TraceEvent e;
  e.name = name;
  e.category = category;
  e.phase = TraceEvent::Phase::kFlowStart;
  e.ts_ns = tracer.now_ns();
  e.tid = Tracer::thread_id();
  e.flow_id = id;
  tracer.emit(std::move(e));
  return id;
}

void flow_end(std::uint64_t id, const char* name, const char* category) {
  if (id == 0) return;
  Tracer& tracer = Tracer::global();
  if (!tracer.enabled()) return;
  TraceEvent e;
  e.name = name;
  e.category = category;
  e.phase = TraceEvent::Phase::kFlowEnd;
  e.ts_ns = tracer.now_ns();
  e.tid = Tracer::thread_id();
  e.flow_id = id;
  tracer.emit(std::move(e));
}

void Span::arg(std::string_view key, double value) {
  if (active_) args_.emplace_back(std::string(key), format_double_json(value));
}

void Span::arg(std::string_view key, std::int64_t value) {
  if (active_) args_.emplace_back(std::string(key), std::to_string(value));
}

void Span::arg(std::string_view key, std::uint64_t value) {
  if (active_) args_.emplace_back(std::string(key), std::to_string(value));
}

void Span::arg(std::string_view key, std::string_view value) {
  if (active_) {
    args_.emplace_back(std::string(key), '"' + json_escape_string(value) + '"');
  }
}

void Span::arg_json(std::string_view key, std::string value) {
  if (active_) args_.emplace_back(std::string(key), std::move(value));
}

}  // namespace orp::obs
