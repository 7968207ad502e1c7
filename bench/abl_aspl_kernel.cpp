// Ablation (google-benchmark) — scalar BFS vs bit-parallel h-ASPL kernels.
//
// From-scratch h-ASPL evaluation drives the annealer's calibration and every
// fault-sweep trial. This microbenchmark measures the bit-parallel kernel
// (serial and thread-pooled) against the one-BFS-per-source test oracle
// across graph sizes; tests already assert they agree bit-for-bit.

#include <benchmark/benchmark.h>

#include "common/prng.hpp"
#include "common/thread_pool.hpp"
#include "hsg/metrics.hpp"
#include "oracle/metrics_scalar.hpp"
#include "search/random_init.hpp"

namespace {

using namespace orp;

HostSwitchGraph graph_for(std::int64_t m) {
  Xoshiro256 rng(42);
  const auto n = static_cast<std::uint32_t>(4 * m);
  return random_host_switch_graph(n, static_cast<std::uint32_t>(m), 12, rng);
}

void BM_ScalarBfs(benchmark::State& state) {
  const auto g = graph_for(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_host_metrics_scalar(g));
  }
}
BENCHMARK(BM_ScalarBfs)->Arg(64)->Arg(194)->Arg(512);

void BM_BitParallel(benchmark::State& state) {
  const auto g = graph_for(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_host_metrics(g));
  }
}
BENCHMARK(BM_BitParallel)->Arg(64)->Arg(194)->Arg(512);

void BM_BitParallelPooled(benchmark::State& state) {
  const auto g = graph_for(state.range(0));
  ThreadPool& pool = ThreadPool::global();
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_host_metrics(g, &pool));
  }
}
BENCHMARK(BM_BitParallelPooled)->Arg(194)->Arg(512);

void BM_SwitchMetrics(benchmark::State& state) {
  const auto g = graph_for(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_switch_metrics(g));
  }
}
BENCHMARK(BM_SwitchMetrics)->Arg(194);

}  // namespace

BENCHMARK_MAIN();
