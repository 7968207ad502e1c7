#pragma once
// Microbenchmark harness over the repo's real hot paths (the tentpole of
// the perf-trajectory layer; see docs/bench.md).
//
// A benchmark is a named factory: setup runs once (outside timing) and
// returns the operation closure; the runner then
//   1. calibrates how many ops fill one repetition (>= min_rep_seconds),
//   2. runs discarded warmup repetitions,
//   3. runs measured repetitions, each also charged its process CPU time
//      (getrusage),
//   4. reduces repetitions to robust stats (min / median / scaled MAD).
// Results land in a BenchReport (report.hpp) for JSON emission and the
// bench_diff regression gate.
//
// Ops here are microseconds-to-milliseconds (graph evaluations, SA cycles,
// simulator phases), so the per-op std::function dispatch (~ns) is noise;
// do not register sub-100ns ops without batching them inside the closure.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/bench/report.hpp"

namespace orp::obs::bench {

/// One operation of the measured hot path. Must leave its captured state
/// ready for the next call (revert mutations or absorb them).
using BenchOp = std::function<void()>;

struct BenchmarkDef {
  std::string name;    ///< dot-separated: family.variant.size (stable across PRs)
  std::string family;  ///< series group: "aspl", "annealer", "sim", "partition"
  std::function<BenchOp()> setup;
  /// Included in --quick runs. Quick is the CI gate, so keep only
  /// laptop-second benchmarks in it; full-only entries may be heavier.
  bool quick = true;
};

struct RunOptions {
  int repetitions = 12;
  int warmup = 2;
  double min_rep_seconds = 0.05;
  bool quick = false;          ///< restrict to quick-eligible benchmarks
  std::string filter;          ///< substring match on benchmark name
  std::ostream* progress = nullptr;  ///< per-benchmark progress lines
};

/// Process-wide benchmark list. Registration order is run order.
class BenchRegistry {
 public:
  static BenchRegistry& global();

  void add(BenchmarkDef def);
  const std::vector<BenchmarkDef>& benchmarks() const noexcept { return defs_; }

  /// Runs every matching benchmark and returns the filled report
  /// (provenance and RSS high-watermark included).
  BenchReport run(const RunOptions& options) const;

 private:
  std::vector<BenchmarkDef> defs_;
};

/// CPU time consumed by this process so far (getrusage), nanoseconds.
struct CpuTimes {
  std::uint64_t user_ns = 0;
  std::uint64_t system_ns = 0;
};
CpuTimes process_cpu_times() noexcept;

/// Compiler barrier: keeps `value`'s computation observable so the
/// measured loop is not optimized away.
template <typename T>
inline void do_not_optimize(const T& value) {
#if defined(__GNUC__) || defined(__clang__)
  asm volatile("" : : "r,m"(value) : "memory");
#else
  volatile T sink = value;
  (void)sink;
#endif
}

}  // namespace orp::obs::bench
