// Tests for the benchmark harness: robust statistics, the registry runner,
// the canonical BENCH_*.json round trip, and the regression-diff rule that
// gates CI (tools/bench_diff).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/table.hpp"
#include "obs/bench/microbench.hpp"
#include "obs/bench/provenance.hpp"
#include "obs/bench/report.hpp"
#include "obs/ledger.hpp"

namespace orp::obs::bench {
namespace {

// ---- robust statistics ---------------------------------------------------

TEST(BenchStats, MedianOfOddAndEvenCounts) {
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(median({7.0}), 7.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(BenchStats, MedianIgnoresOneOutlier) {
  // The motivating property: one preempted repetition must not move the
  // summary, unlike a mean.
  EXPECT_EQ(median({10.0, 10.0, 10.0, 10.0, 1e9}), 10.0);
}

TEST(BenchStats, ScaledMadOfConstantSeriesIsZero) {
  EXPECT_EQ(scaled_mad({5.0, 5.0, 5.0}, 5.0), 0.0);
  EXPECT_EQ(scaled_mad({}, 0.0), 0.0);
}

TEST(BenchStats, ScaledMadEstimatesSigma) {
  // |x - 3| over {1..5} = {2,1,0,1,2}; median 1; scaled by 1.4826.
  EXPECT_NEAR(scaled_mad({1.0, 2.0, 3.0, 4.0, 5.0}, 3.0), 1.4826, 1e-9);
}

// ---- registry runner -----------------------------------------------------

TEST(BenchRunner, RunsRegisteredBenchmarkAndFillsStats) {
  BenchRegistry registry;
  int setups = 0;
  registry.add({"unit.spin.tiny", "unit",
                [&setups]() -> BenchOp {
                  ++setups;
                  return [] {
                    volatile std::uint64_t acc = 0;
                    for (std::uint64_t i = 0; i < 1000; ++i) acc = acc + i;
                    do_not_optimize(acc);
                  };
                },
                true});

  RunOptions options;
  options.repetitions = 3;
  options.warmup = 1;
  options.min_rep_seconds = 1e-4;
  const BenchReport report = registry.run(options);

  EXPECT_EQ(setups, 1);  // setup runs once, outside the timed region
  ASSERT_EQ(report.entries.size(), 1u);
  const BenchEntry& entry = report.entries[0];
  EXPECT_EQ(entry.name, "unit.spin.tiny");
  EXPECT_EQ(entry.family, "unit");
  EXPECT_EQ(entry.repetitions, 3);
  EXPECT_GE(entry.iters_per_rep, 1u);
  EXPECT_GT(entry.wall.median_ns, 0.0);
  EXPECT_GT(entry.wall.min_ns, 0.0);
  EXPECT_LE(entry.wall.min_ns, entry.wall.median_ns);
  EXPECT_NEAR(entry.wall.ops_per_sec, 1e9 / entry.wall.median_ns,
              entry.wall.ops_per_sec * 1e-9);
  EXPECT_GT(report.peak_rss_kb, 0);
  EXPECT_FALSE(report.provenance.compiler.empty());
  EXPECT_GE(report.provenance.hardware_threads, 1);
}

TEST(BenchRunner, QuickModeAndFilterSelectBenchmarks) {
  BenchRegistry registry;
  const auto noop_setup = []() -> BenchOp {
    return [] {
      volatile int x = 0;
      do_not_optimize(x);
    };
  };
  registry.add({"unit.a.one", "unit", noop_setup, true});
  registry.add({"unit.b.two", "unit", noop_setup, false});  // full-only

  RunOptions options;
  options.repetitions = 1;
  options.warmup = 0;
  options.min_rep_seconds = 1e-6;

  options.quick = true;
  EXPECT_EQ(registry.run(options).entries.size(), 1u);

  options.quick = false;
  EXPECT_EQ(registry.run(options).entries.size(), 2u);

  options.filter = "b.two";
  const BenchReport filtered = registry.run(options);
  ASSERT_EQ(filtered.entries.size(), 1u);
  EXPECT_EQ(filtered.entries[0].name, "unit.b.two");
}

// ---- BENCH_*.json round trip ---------------------------------------------

BenchReport sample_report() {
  BenchReport report;
  report.provenance.git_sha = "abc1234";
  report.provenance.compiler = "gcc 12.2.0";
  report.provenance.flags = "-O3 -DNDEBUG";
  report.provenance.build_type = "Release";
  report.provenance.cpu_model = "Test CPU \"quoted\"";
  report.provenance.hardware_threads = 4;
  report.provenance.obs_disabled = false;
  report.quick = true;
  report.peak_rss_kb = 12345;
  BenchEntry entry;
  entry.name = "aspl.scalar_bfs.n256_r12";
  entry.family = "aspl";
  entry.repetitions = 5;
  entry.iters_per_rep = 7;
  entry.wall = {100.0, 125.5, 3.25, 1e9 / 125.5};
  entry.cpu_user_ns = 120.0;
  entry.cpu_sys_ns = 1.0;
  report.entries.push_back(entry);
  return report;
}

// A document as the writer produced it before the hardware-counter fields
// were dropped (bench/baseline/BENCH_baseline.json is one): the reader
// ignores the counter source and the per-op counter block.
std::string legacy_json() {
  return R"({
  "schema": "orp-bench/1",
  "provenance": {
    "git_sha": "abc1234",
    "compiler": "gcc 12.2.0",
    "flags": "-O3 -DNDEBUG",
    "build_type": "Release",
    "cpu_model": "Test CPU \"quoted\"",
    "hardware_threads": 4,
    "obs_disabled": false
  },
  "counters_source": "perf_event",
  "quick": true,
  "peak_rss_kb": 12345,
  "benchmarks": [
    {
      "name": "aspl.scalar_bfs.n256_r12",
      "family": "aspl",
      "repetitions": 5,
      "iters_per_rep": 7,
      "ns_per_op": {"min": 100, "median": 125.5, "mad": 3.25},
      "ops_per_sec": 7968127.49004,
      "counters_per_op": {"cycles": 400, "instructions": 900, "ipc": 2.25,
                          "cache_misses": 10, "branch_misses": 2},
      "cpu_per_op": {"user_ns": 120, "sys_ns": 1}
    }
  ]
}
)";
}

TEST(BenchReport, JsonRoundTripPreservesEveryField) {
  const BenchReport original = sample_report();
  const std::string written = report_to_json(original);
  // Neither legacy hardware-counter field is written.
  EXPECT_EQ(written.find("\"counters_"), std::string::npos);
  // The writer's output and a legacy document parse to the same report.
  for (const std::string& json : {written, legacy_json()}) {
    const BenchReport parsed = report_from_json(json);
    EXPECT_EQ(parsed.schema, kBenchSchema);
    EXPECT_EQ(parsed.provenance.git_sha, original.provenance.git_sha);
    EXPECT_EQ(parsed.provenance.compiler, original.provenance.compiler);
    EXPECT_EQ(parsed.provenance.flags, original.provenance.flags);
    EXPECT_EQ(parsed.provenance.build_type, original.provenance.build_type);
    EXPECT_EQ(parsed.provenance.cpu_model, original.provenance.cpu_model);
    EXPECT_EQ(parsed.provenance.hardware_threads,
              original.provenance.hardware_threads);
    EXPECT_EQ(parsed.provenance.obs_disabled, original.provenance.obs_disabled);
    EXPECT_TRUE(parsed.quick);
    EXPECT_EQ(parsed.peak_rss_kb, 12345);
    ASSERT_EQ(parsed.entries.size(), 1u);
    const BenchEntry& entry = parsed.entries[0];
    EXPECT_EQ(entry.name, "aspl.scalar_bfs.n256_r12");
    EXPECT_EQ(entry.family, "aspl");
    EXPECT_EQ(entry.repetitions, 5);
    EXPECT_EQ(entry.iters_per_rep, 7u);
    EXPECT_DOUBLE_EQ(entry.wall.min_ns, 100.0);
    EXPECT_DOUBLE_EQ(entry.wall.median_ns, 125.5);
    EXPECT_DOUBLE_EQ(entry.wall.mad_ns, 3.25);
    EXPECT_DOUBLE_EQ(entry.cpu_user_ns, 120.0);
    EXPECT_DOUBLE_EQ(entry.cpu_sys_ns, 1.0);
  }
}

TEST(BenchReport, RejectsWrongSchemaTagAndMalformedInput) {
  EXPECT_THROW(report_from_json("{\"schema\": \"orp-bench/999\"}"),
               std::runtime_error);
  EXPECT_THROW(report_from_json("not json"), std::runtime_error);
  EXPECT_THROW(report_from_json("[]"), std::runtime_error);
  EXPECT_THROW(report_from_file("/nonexistent/BENCH_missing.json"),
               std::runtime_error);
}

TEST(BenchReport, FindLocatesEntriesByName) {
  const BenchReport report = sample_report();
  ASSERT_NE(report.find("aspl.scalar_bfs.n256_r12"), nullptr);
  EXPECT_EQ(report.find("no.such.series"), nullptr);
}

// ---- regression diff -----------------------------------------------------

BenchReport one_series(const std::string& name, double median_ns,
                       double mad_ns) {
  BenchReport report;
  BenchEntry entry;
  entry.name = name;
  entry.family = "unit";
  entry.repetitions = 5;
  entry.iters_per_rep = 1;
  entry.wall = {median_ns, median_ns, mad_ns, 1e9 / median_ns};
  report.entries.push_back(entry);
  return report;
}

TEST(BenchDiff, SelfDiffPasses) {
  const BenchReport report = one_series("unit.x", 1000.0, 5.0);
  const DiffResult diff = diff_reports(report, report);
  ASSERT_EQ(diff.rows.size(), 1u);
  EXPECT_FALSE(diff.any_regression);
  EXPECT_FALSE(diff.rows[0].regressed);
  EXPECT_DOUBLE_EQ(diff.rows[0].ratio, 1.0);
}

TEST(BenchDiff, TwoTimesSlowdownRegresses) {
  const DiffResult diff = diff_reports(one_series("unit.x", 1000.0, 5.0),
                                       one_series("unit.x", 2000.0, 5.0));
  ASSERT_EQ(diff.rows.size(), 1u);
  EXPECT_TRUE(diff.any_regression);
  EXPECT_TRUE(diff.rows[0].regressed);
  EXPECT_DOUBLE_EQ(diff.rows[0].ratio, 2.0);
}

TEST(BenchDiff, ImprovementIsNotARegression) {
  const DiffResult diff = diff_reports(one_series("unit.x", 2000.0, 5.0),
                                       one_series("unit.x", 1000.0, 5.0));
  EXPECT_FALSE(diff.any_regression);
  ASSERT_EQ(diff.rows.size(), 1u);
  EXPECT_TRUE(diff.rows[0].improved);
}

TEST(BenchDiff, NoisySeriesNeedsABiggerJump) {
  // +30% exceeds the 25% tolerance, but the delta (300 ns) is under
  // mad_sigma (4) * the larger MAD (100 ns => 400 ns): jitter, not a
  // regression. The same ratio with a tight MAD regresses.
  EXPECT_FALSE(diff_reports(one_series("unit.x", 1000.0, 100.0),
                            one_series("unit.x", 1300.0, 20.0))
                   .any_regression);
  EXPECT_TRUE(diff_reports(one_series("unit.x", 1000.0, 2.0),
                           one_series("unit.x", 1300.0, 2.0))
                  .any_regression);
}

TEST(BenchDiff, SubFloorDeltasAreIgnored) {
  // A 2x ratio on a 5 ns series is timer granularity (delta under the
  // 10 ns absolute floor), not a regression.
  EXPECT_FALSE(diff_reports(one_series("unit.x", 5.0, 0.0),
                            one_series("unit.x", 10.0, 0.0))
                   .any_regression);
}

TEST(BenchDiff, DisjointSeriesArePartitioned) {
  BenchReport baseline = one_series("unit.gone", 100.0, 1.0);
  BenchReport current = one_series("unit.fresh", 100.0, 1.0);
  baseline.quick = true;
  current.quick = false;
  const DiffResult diff = diff_reports(baseline, current);
  EXPECT_TRUE(diff.rows.empty());
  ASSERT_EQ(diff.only_baseline.size(), 1u);
  EXPECT_EQ(diff.only_baseline[0], "unit.gone");
  ASSERT_EQ(diff.only_current.size(), 1u);
  EXPECT_EQ(diff.only_current[0], "unit.fresh");
  EXPECT_TRUE(diff.mode_mismatch);
  EXPECT_FALSE(diff.any_regression);
}

TEST(BenchDiff, TableHasOneRowPerSharedSeries) {
  BenchReport baseline = one_series("unit.x", 1000.0, 5.0);
  BenchReport current = one_series("unit.x", 2000.0, 5.0);
  BenchEntry extra = baseline.entries[0];
  extra.name = "unit.y";
  baseline.entries.push_back(extra);
  current.entries.push_back(extra);
  const Table table = diff_table(diff_reports(baseline, current));
  EXPECT_EQ(table.rows(), 2u);
  std::ostringstream os;
  table.print(os);
  EXPECT_NE(os.str().find("REGRESSED"), std::string::npos);
}

// ---- process counters ----------------------------------------------------

TEST(BenchDiff, LegacyBaselineDiffsAgainstTheCurrentWriter) {
  // A baseline written with the old counter fields still gates a report
  // from today's writer: same series, no regression, wall-clock columns.
  const BenchReport baseline = report_from_json(legacy_json());
  const BenchReport current = report_from_json(report_to_json(sample_report()));
  const DiffResult diff = diff_reports(baseline, current);
  ASSERT_EQ(diff.rows.size(), 1u);
  EXPECT_EQ(diff.rows[0].name, "aspl.scalar_bfs.n256_r12");
  EXPECT_TRUE(diff.only_baseline.empty());
  EXPECT_TRUE(diff.only_current.empty());
  EXPECT_FALSE(diff.mode_mismatch);
  EXPECT_FALSE(diff.any_regression);
  const Table table = diff_table(diff);
  EXPECT_EQ(table.columns(), 5u);
  std::ostringstream os;
  table.print(os);
  EXPECT_EQ(os.str().find("cyc"), std::string::npos);
  EXPECT_EQ(os.str().find("IPC"), std::string::npos);
}

TEST(BenchReport, CommittedBaselineParsesUnedited) {
  const std::string path =
      std::string(ORP_SOURCE_DIR) + "/bench/baseline/BENCH_baseline.json";
  std::ifstream in(path);
  ASSERT_TRUE(in) << path;
  std::ostringstream text;
  text << in.rdbuf();
  const BenchReport baseline = report_from_json(text.str());
  EXPECT_EQ(baseline.schema, kBenchSchema);
  ASSERT_FALSE(baseline.entries.empty());
  for (const BenchEntry& entry : baseline.entries) {
    EXPECT_FALSE(entry.name.empty());
    EXPECT_GT(entry.wall.median_ns, 0.0) << entry.name;
  }
  // Written back, it parses to the same series and diffs clean against
  // itself.
  const BenchReport again = report_from_json(report_to_json(baseline));
  const DiffResult diff = diff_reports(baseline, again);
  EXPECT_EQ(diff.rows.size(), baseline.entries.size());
  EXPECT_FALSE(diff.any_regression);
}

TEST(BenchRunner, ReportPeakRssIsTheLedgerReading) {
  // One reader of the resident-set high-watermark serves the run ledger
  // and BENCH reports; a watermark never goes down.
  BenchRegistry registry;
  registry.add({"unit.touch", "unit",
                []() -> BenchOp {
                  return [] {
                    std::vector<char> block(1 << 16, 1);
                    do_not_optimize(block.data());
                  };
                },
                true});
  RunOptions options;
  options.repetitions = 1;
  options.warmup = 0;
  options.min_rep_seconds = 1e-4;
  const std::int64_t before = peak_rss_kb();
  const BenchReport report = registry.run(options);
  EXPECT_GT(before, 0);
  EXPECT_GE(report.peak_rss_kb, before);
  EXPECT_LE(report.peak_rss_kb, peak_rss_kb());
}

TEST(BenchCounters, RusageFallbackAdvances) {
  const CpuTimes before = process_cpu_times();
  volatile std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < 2000000; ++i) acc = acc + i;
  const CpuTimes after = process_cpu_times();
  EXPECT_GE(after.user_ns + after.system_ns, before.user_ns + before.system_ns);
  EXPECT_GT(peak_rss_kb(), 0);
}

}  // namespace
}  // namespace orp::obs::bench
