#pragma once
// Process-wide metrics registry: named counters, gauges, and log2-bucketed
// latency histograms (see docs/obs.md for the exported schema).
//
// Hot-path writes go to per-thread shards (each thread gets a cache-line
// padded slot assigned from a thread-local ordinal) so concurrent
// increments never contend on one cache line; snapshot() merges the shards
// with relaxed loads. Instruments are created on first lookup and live for
// the process lifetime, so call sites can cache references:
//
//   static obs::Counter& accepted =
//       obs::Registry::global().counter("annealer.accepted");
//   accepted.add(1);

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace orp::obs {

inline constexpr std::size_t kShards = 16;  // power of two (masked below)
inline constexpr std::size_t kHistogramBuckets = 64;

namespace detail {

struct alignas(64) PaddedU64 {
  std::atomic<std::uint64_t> value{0};
};

/// Small per-thread ordinal; two threads may share a shard (striping), which
/// only costs an occasional contended fetch_add, never correctness.
std::size_t shard_index() noexcept;

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Bucket of a value: index i holds values v with bit_width(v) == i, i.e.
/// [2^(i-1), 2^i). Bucket 0 holds exactly v == 0. The last bucket is
/// open-ended: values with bit_width >= kHistogramBuckets (>= 2^63) fold
/// into it, keeping the index inside the bucket array.
inline std::size_t bucket_of(std::uint64_t value) noexcept {
  std::size_t width = 0;
  while (value) {
    ++width;
    value >>= 1;
  }
  return width < kHistogramBuckets ? width : kHistogramBuckets - 1;
}

/// Upper edge of bucket i (inclusive): 2^i - 1. The open-ended last bucket
/// reports the full uint64 range.
inline std::uint64_t bucket_upper(std::size_t bucket) noexcept {
  if (bucket >= kHistogramBuckets - 1) return ~0ULL;
  return (bucket == 0) ? 0 : ((1ULL << bucket) - 1);
}

/// Lower edge of bucket i (inclusive): 2^(i-1); bucket 0 holds exactly 0.
inline std::uint64_t bucket_lower(std::size_t bucket) noexcept {
  if (bucket == 0) return 0;
  if (bucket >= kHistogramBuckets) bucket = kHistogramBuckets - 1;
  return 1ULL << (bucket - 1);
}

}  // namespace detail

/// Monotonic counter. add() is wait-free on the caller's shard.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    shards_[detail::shard_index() & (kShards - 1)].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void inc() noexcept { add(1); }
  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.value.load(std::memory_order_relaxed);
    return total;
  }
  void reset() noexcept {
    for (auto& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<detail::PaddedU64, kShards> shards_;
};

/// Instantaneous level (queue depths, active workers). Unlike counters a
/// gauge is one atomic: sets and deltas are rare relative to counter
/// bumps, and sharding would break high-watermark tracking.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
    raise_max(v);
  }
  void add(std::int64_t delta) noexcept {
    const std::int64_t now = value_.fetch_add(delta, std::memory_order_relaxed) + delta;
    if (delta > 0) raise_max(now);
  }
  void sub(std::int64_t delta) noexcept { add(-delta); }
  std::int64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }
  std::int64_t max() const noexcept { return max_.load(std::memory_order_relaxed); }
  void reset() noexcept {
    value_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  void raise_max(std::int64_t candidate) noexcept {
    std::int64_t seen = max_.load(std::memory_order_relaxed);
    while (candidate > seen &&
           !max_.compare_exchange_weak(seen, candidate, std::memory_order_relaxed)) {
    }
  }
  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Aggregated view of one histogram at snapshot time.
struct HistogramSample {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  double mean() const noexcept {
    return count ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
  }
  /// Upper edge of the bucket holding the q-quantile (q in [0, 1]).
  std::uint64_t quantile(double q) const noexcept;
  /// Quantile estimate interpolated linearly *within* the log2 bucket that
  /// holds the q-quantile's rank, clamped by the observed [min, max]. A
  /// much tighter estimate than the bucket edge (p50 of uniform 1..1000 is
  /// ~500, not 511); this is what the summary table and the JSONL metric
  /// records report as p50/p90/p99.
  double quantile_interp(double q) const noexcept;
};

/// Log2-bucketed histogram for latencies in nanoseconds (or any non-negative
/// integer quantity). 64 buckets cover the full uint64 range.
class Histogram {
 public:
  void record(std::uint64_t value) noexcept {
    Shard& shard = shards_[detail::shard_index() & (kHistShards - 1)];
    shard.buckets[detail::bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
    shard.count.fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(value, std::memory_order_relaxed);
    lower_min(value);
    raise_max(value);
  }
  HistogramSample sample() const noexcept;
  void reset() noexcept;

 private:
  // Fewer shards than counters: a histogram shard is 66 words, and the
  // recording sites (evaluation/task latencies) run at kHz, not MHz.
  static constexpr std::size_t kHistShards = 8;
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
  };
  void lower_min(std::uint64_t v) noexcept {
    std::uint64_t seen = min_.load(std::memory_order_relaxed);
    while (v < seen &&
           !min_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }
  void raise_max(std::uint64_t v) noexcept {
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }
  std::array<Shard, kHistShards> shards_;
  std::atomic<std::uint64_t> min_{~0ULL};
  std::atomic<std::uint64_t> max_{0};
};

/// RAII wall-clock timer recording elapsed nanoseconds into a histogram.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& histogram) noexcept
      : histogram_(&histogram), start_ns_(detail::now_ns()) {}
  ~ScopedTimer() { histogram_->record(detail::now_ns() - start_ns_); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_;
  std::uint64_t start_ns_;
};

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  std::int64_t value = 0;
  std::int64_t max = 0;
};

/// Point-in-time merge of every registered instrument, sorted by name.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
  bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// Name → instrument map. Lookups take a mutex; the returned references are
/// stable for the process lifetime, so hot paths look up once and cache.
class Registry {
 public:
  static Registry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  MetricsSnapshot snapshot() const;
  /// Zeroes every instrument (references stay valid). Test/bench helper.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace orp::obs
