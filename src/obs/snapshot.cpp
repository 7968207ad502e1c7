#include "obs/snapshot.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "common/cli.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace orp::obs {
namespace {

// Last-seen values per instrument, keyed by name. Owned by the sampler
// thread while it runs and by stop_snapshot_sampler() after the join, so it
// needs no locking of its own.
struct Baseline {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> histograms;
};

struct SamplerState {
  std::mutex mutex;
  std::condition_variable cv;
  std::thread thread;
  bool stopping = false;
  std::atomic<bool> running{false};
  Baseline baseline;
};

SamplerState& state() {
  static SamplerState* instance = new SamplerState();  // leaked: atexit-safe
  return *instance;
}

/// One tick: diff the registry against the baseline and emit the deltas.
void emit_sample(Baseline& prev) {
  Tracer& tracer = Tracer::global();
  if (!tracer.enabled()) return;
  const MetricsSnapshot snapshot = Registry::global().snapshot();
  for (const CounterSample& c : snapshot.counters) {
    std::uint64_t& seen = prev.counters[c.name];
    if (c.value != seen) {
      tracer.counter(c.name, static_cast<double>(c.value - seen), "snapshot");
      seen = c.value;
    }
  }
  for (const GaugeSample& g : snapshot.gauges) {
    auto it = prev.gauges.find(g.name);
    if (it == prev.gauges.end() || it->second != g.value) {
      tracer.counter(g.name, static_cast<double>(g.value), "snapshot.level");
      prev.gauges[g.name] = g.value;
    }
  }
  for (const HistogramSample& h : snapshot.histograms) {
    auto& seen = prev.histograms[h.name];
    if (h.count != seen.first) {
      tracer.counter(h.name + ".count", static_cast<double>(h.count - seen.first),
                     "snapshot");
      tracer.counter(h.name + ".sum", static_cast<double>(h.sum - seen.second),
                     "snapshot");
      seen = {h.count, h.sum};
    }
  }
}

void sampler_main(std::uint32_t interval_ms) {
  SamplerState& s = state();
  for (;;) {
    {
      std::unique_lock lock(s.mutex);
      s.cv.wait_for(lock, std::chrono::milliseconds(interval_ms),
                    [&s] { return s.stopping; });
      // stop_snapshot_sampler() emits the tail sample after joining, so a
      // stop request exits without sampling here.
      if (s.stopping) return;
    }
    emit_sample(s.baseline);
  }
}

}  // namespace

std::uint32_t snapshot_interval_from_env() noexcept {
  const char* raw = std::getenv("ORP_OBS_SNAPSHOT_MS");
  if (!raw) return kDefaultSnapshotMs;
  return static_cast<std::uint32_t>(
      parse_uint(raw, std::numeric_limits<std::uint32_t>::max())
          .value_or(kDefaultSnapshotMs));
}

bool start_snapshot_sampler(std::uint32_t interval_ms) {
  if (interval_ms == 0) return false;
  SamplerState& s = state();
  std::lock_guard lock(s.mutex);
  if (s.running.load(std::memory_order_relaxed)) return false;
  s.stopping = false;
  // Seed the baseline from the current registry so the first tick reports
  // only its own interval, not everything since process start.
  s.baseline = Baseline{};
  const MetricsSnapshot now = Registry::global().snapshot();
  for (const CounterSample& c : now.counters) s.baseline.counters[c.name] = c.value;
  for (const GaugeSample& g : now.gauges) s.baseline.gauges[g.name] = g.value;
  for (const HistogramSample& h : now.histograms) {
    s.baseline.histograms[h.name] = {h.count, h.sum};
  }
  s.running.store(true, std::memory_order_relaxed);
  s.thread = std::thread([interval_ms] { sampler_main(interval_ms); });
  return true;
}

void stop_snapshot_sampler() {
  SamplerState& s = state();
  std::thread worker;
  {
    std::lock_guard lock(s.mutex);
    if (!s.running.load(std::memory_order_relaxed)) return;
    s.stopping = true;
    worker = std::move(s.thread);
  }
  s.cv.notify_all();
  if (worker.joinable()) worker.join();
  // Tail sample: whatever accumulated between the last tick and the stop
  // still lands in the trace, before the caller flushes the trailer.
  emit_sample(s.baseline);
  s.running.store(false, std::memory_order_relaxed);
}

bool snapshot_sampler_running() noexcept {
  return state().running.load(std::memory_order_relaxed);
}

}  // namespace orp::obs
