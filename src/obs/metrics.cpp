#include "obs/metrics.hpp"

#include "obs/sink.hpp"

namespace orp::obs {

namespace {

// Every instrumented binary links this translation unit, so ORP_OBS_OUT
// takes effect process-wide with no per-binary wiring. apply_cli() can
// still override the sink after argument parsing.
[[maybe_unused]] const bool g_env_sink_installed = install_env_sink();

}  // namespace

namespace detail {

std::size_t shard_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

}  // namespace detail

std::uint64_t HistogramSample::quantile(double q) const noexcept {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-quantile among `count` ordered samples (1-based, ceil).
  std::uint64_t rank = static_cast<std::uint64_t>(q * static_cast<double>(count));
  if (rank == 0) rank = 1;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    seen += buckets[b];
    if (seen >= rank) {
      // Clamp the bucket edge by the observed extrema so tiny histograms
      // report exact values instead of power-of-two edges.
      const std::uint64_t edge = detail::bucket_upper(b);
      return edge > max ? max : (edge < min ? min : edge);
    }
  }
  return max;
}

double HistogramSample::quantile_interp(double q) const noexcept {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  std::uint64_t rank = static_cast<std::uint64_t>(q * static_cast<double>(count));
  if (rank == 0) rank = 1;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    if (buckets[b] == 0) continue;
    if (seen + buckets[b] < rank) {
      seen += buckets[b];
      continue;
    }
    // The rank lands in bucket b: spread its samples uniformly across
    // [lower, upper] and read off the centered position of this rank.
    const double lower = static_cast<double>(detail::bucket_lower(b));
    const double upper = static_cast<double>(detail::bucket_upper(b));
    const double position =
        (static_cast<double>(rank - seen) - 0.5) / static_cast<double>(buckets[b]);
    double estimate = lower + (upper - lower) * position;
    const double lo = static_cast<double>(min);
    const double hi = static_cast<double>(max);
    if (estimate < lo) estimate = lo;
    if (estimate > hi) estimate = hi;
    return estimate;
  }
  return static_cast<double>(max);
}

HistogramSample Histogram::sample() const noexcept {
  HistogramSample out;
  for (const Shard& shard : shards_) {
    out.count += shard.count.load(std::memory_order_relaxed);
    out.sum += shard.sum.load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      out.buckets[b] += shard.buckets[b].load(std::memory_order_relaxed);
    }
  }
  if (out.count > 0) {
    out.min = min_.load(std::memory_order_relaxed);
    out.max = max_.load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::reset() noexcept {
  for (Shard& shard : shards_) {
    for (auto& bucket : shard.buckets) bucket.store(0, std::memory_order_relaxed);
    shard.count.store(0, std::memory_order_relaxed);
    shard.sum.store(0, std::memory_order_relaxed);
  }
  min_.store(~0ULL, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

Registry& Registry::global() {
  // Intentionally leaked: the atexit flush (obs/sink.cpp) snapshots the
  // registry, and a Meyers static could be destroyed before that callback
  // runs when the sink was configured before the first instrument lookup.
  static Registry* instance = new Registry();
  return *instance;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>()).first;
  }
  return *it->second;
}

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard lock(mutex_);
  MetricsSnapshot out;
  out.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.counters.push_back({name, counter->value()});
  }
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.gauges.push_back({name, gauge->value(), gauge->max()});
  }
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    HistogramSample s = histogram->sample();
    s.name = name;
    out.histograms.push_back(std::move(s));
  }
  return out;
}

void Registry::reset() {
  std::lock_guard lock(mutex_);
  for (auto& entry : counters_) entry.second->reset();
  for (auto& entry : gauges_) entry.second->reset();
  for (auto& entry : histograms_) entry.second->reset();
}

}  // namespace orp::obs
