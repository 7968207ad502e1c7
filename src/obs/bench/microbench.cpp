#include "obs/bench/microbench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ostream>

#include "obs/ledger.hpp"

namespace orp::obs::bench {

namespace {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Times `iters` calls of `op`; returns elapsed wall nanoseconds.
std::uint64_t timed_loop(const BenchOp& op, std::uint64_t iters) {
  const std::uint64_t start = now_ns();
  for (std::uint64_t i = 0; i < iters; ++i) op();
  return now_ns() - start;
}

struct RepSample {
  double ns_per_op = 0.0;
  double cpu_user_ns = 0.0;  // per op
  double cpu_sys_ns = 0.0;   // per op
};

}  // namespace

CpuTimes process_cpu_times() noexcept {
  rusage usage{};
  CpuTimes out;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return out;
  const auto to_ns = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000ULL +
           static_cast<std::uint64_t>(tv.tv_usec) * 1'000ULL;
  };
  out.user_ns = to_ns(usage.ru_utime);
  out.system_ns = to_ns(usage.ru_stime);
  return out;
}

BenchRegistry& BenchRegistry::global() {
  static BenchRegistry instance;
  return instance;
}

void BenchRegistry::add(BenchmarkDef def) { defs_.push_back(std::move(def)); }

BenchReport BenchRegistry::run(const RunOptions& options) const {
  BenchReport report;
  report.provenance = collect_provenance();
  report.quick = options.quick;

  for (const BenchmarkDef& def : defs_) {
    if (options.quick && !def.quick) continue;
    if (!options.filter.empty() &&
        def.name.find(options.filter) == std::string::npos) {
      continue;
    }

    BenchOp op = def.setup();

    // Calibration: one untimed call absorbs first-touch effects, then a
    // timed call sizes the repetition batch. Ops below min_rep_seconds get
    // batched so each repetition is long enough for stable clock reads.
    op();
    std::uint64_t probe_ns = timed_loop(op, 1);
    if (probe_ns == 0) probe_ns = 1;
    const double target_ns = options.min_rep_seconds * 1e9;
    std::uint64_t iters = static_cast<std::uint64_t>(
        std::ceil(target_ns / static_cast<double>(probe_ns)));
    iters = std::clamp<std::uint64_t>(iters, 1, 1u << 20);

    for (int w = 0; w < options.warmup; ++w) timed_loop(op, iters);

    std::vector<RepSample> reps;
    reps.reserve(static_cast<std::size_t>(options.repetitions));
    for (int r = 0; r < options.repetitions; ++r) {
      const CpuTimes cpu_before = process_cpu_times();
      const std::uint64_t elapsed = timed_loop(op, iters);
      const CpuTimes cpu_after = process_cpu_times();

      RepSample sample;
      const double ops = static_cast<double>(iters);
      sample.ns_per_op = static_cast<double>(elapsed) / ops;
      sample.cpu_user_ns =
          static_cast<double>(cpu_after.user_ns - cpu_before.user_ns) / ops;
      sample.cpu_sys_ns =
          static_cast<double>(cpu_after.system_ns - cpu_before.system_ns) / ops;
      reps.push_back(sample);
    }

    BenchEntry entry;
    entry.name = def.name;
    entry.family = def.family;
    entry.repetitions = options.repetitions;
    entry.iters_per_rep = iters;

    std::vector<double> wall_ns;
    wall_ns.reserve(reps.size());
    for (const RepSample& s : reps) wall_ns.push_back(s.ns_per_op);
    entry.wall.min_ns = *std::min_element(wall_ns.begin(), wall_ns.end());
    entry.wall.median_ns = median(wall_ns);
    entry.wall.mad_ns = scaled_mad(wall_ns, entry.wall.median_ns);
    entry.wall.ops_per_sec =
        entry.wall.median_ns > 0.0 ? 1e9 / entry.wall.median_ns : 0.0;

    const auto median_of = [&](auto&& get) {
      std::vector<double> values;
      values.reserve(reps.size());
      for (const RepSample& s : reps) values.push_back(get(s));
      return median(std::move(values));
    };
    entry.cpu_user_ns = median_of([](const RepSample& s) { return s.cpu_user_ns; });
    entry.cpu_sys_ns = median_of([](const RepSample& s) { return s.cpu_sys_ns; });

    if (options.progress) {
      *options.progress << "  " << entry.name << ": median "
                        << entry.wall.median_ns << " ns/op (" << iters
                        << " op/rep x " << options.repetitions << " reps)\n";
    }
    report.entries.push_back(std::move(entry));
  }

  report.peak_rss_kb = peak_rss_kb();
  return report;
}

}  // namespace orp::obs::bench
