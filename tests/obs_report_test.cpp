// Tests for the orp_report analysis engine (src/obs/trace_analysis) on
// hand-written fixture traces: span self-time accounting, flow-event s/f
// pairing, malformed-line rejection, annealer convergence diagnostics, and
// byte-deterministic rendering. trace_analysis is a pure file reader; one
// test feeds it the trace of real solve_orp calls.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "obs/sink.hpp"
#include "obs/trace_analysis.hpp"
#include "search/solver.hpp"

namespace orp::obs::report {
namespace {

std::string event(const char* ph, const char* cat, const char* name,
                  long long ts, int tid = 1, std::uint64_t id = 0) {
  std::string line = "{\"name\":\"" + std::string(name) + "\",\"cat\":\"" +
                     cat + "\",\"ph\":\"" + ph +
                     "\",\"ts\":" + std::to_string(ts) +
                     ",\"pid\":1,\"tid\":" + std::to_string(tid);
  if (id != 0) line += ",\"id\":" + std::to_string(id);
  if (ph[0] == 'f') line += ",\"bp\":\"e\"";
  line += "}";
  return line;
}

std::string counter(const char* cat, const char* name, long long ts,
                    double value, int tid = 1) {
  return "{\"name\":\"" + std::string(name) + "\",\"cat\":\"" + cat +
         "\",\"ph\":\"C\",\"ts\":" + std::to_string(ts) +
         ",\"pid\":1,\"tid\":" + std::to_string(tid) +
         ",\"args\":{\"value\":" + std::to_string(value) + "}}";
}

const SpanStat* find_span(const TraceAnalysis& a, const std::string& name) {
  for (const SpanStat& s : a.spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

// A root span with two enclosed children: self time is total minus the
// children, and the per-kind aggregation sums both child instances.
std::vector<std::string> nested_span_fixture() {
  return {
      event("B", "search", "root", 0),
      event("B", "search", "child", 100),
      event("E", "search", "child", 300),
      event("B", "search", "child", 400),
      event("E", "search", "child", 600),
      event("E", "search", "root", 1000),
  };
}

// Ten best-h-ASPL samples that improve for the first 400us and then go
// flat: progress dies before the midpoint, so the run counts as stalled.
std::vector<std::string> stalled_fixture() {
  std::vector<std::string> lines;
  const double best[10] = {5.0, 4.9, 4.8, 4.7, 4.6, 4.6, 4.6, 4.6, 4.6, 4.6};
  for (int i = 0; i < 10; ++i) {
    const long long ts = 100LL * i;
    lines.push_back(counter("search", "annealer.best_haspl", ts, best[i]));
    lines.push_back(counter("search", "annealer.acceptance_rate", ts, 0.3));
    lines.push_back(counter("search", "annealer.temperature", ts, 1.0 - 0.1 * i));
    lines.push_back(counter("search", "annealer.iteration", ts, 1000.0 * i));
  }
  return lines;
}

TEST(ObsReportSpans, SelfTimeSubtractsChildren) {
  const TraceAnalysis a = analyze_trace(nested_span_fixture());
  EXPECT_EQ(a.event_lines, 6u);
  EXPECT_EQ(a.malformed_lines, 0u);
  EXPECT_EQ(a.threads, 1u);
  EXPECT_DOUBLE_EQ(a.duration_us, 1000.0);

  const SpanStat* root = find_span(a, "root");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->count, 1u);
  EXPECT_DOUBLE_EQ(root->total_us, 1000.0);
  EXPECT_DOUBLE_EQ(root->self_us, 600.0);  // 1000 - two 200us children
  EXPECT_DOUBLE_EQ(root->max_us, 1000.0);

  const SpanStat* child = find_span(a, "child");
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->count, 2u);
  EXPECT_DOUBLE_EQ(child->total_us, 400.0);
  EXPECT_DOUBLE_EQ(child->self_us, 400.0);

  // Leaves plus the root's own slice account for the whole wall clock.
  double total_self = 0.0;
  for (const SpanStat& s : a.spans) total_self += s.self_us;
  EXPECT_DOUBLE_EQ(total_self, 1000.0);
  EXPECT_LE(total_self, a.duration_us * a.threads);

  // Sorted by self time within the category: root (600) before child (400).
  ASSERT_EQ(a.spans.size(), 2u);
  EXPECT_EQ(a.spans[0].name, "root");
  EXPECT_EQ(a.spans[1].name, "child");
}

TEST(ObsReportSpans, UnclosedAndStrayEndsAreCountedNotFatal) {
  std::vector<std::string> lines = nested_span_fixture();
  lines.push_back(event("B", "search", "dangling", 500, 2));
  lines.push_back(event("E", "search", "orphan", 200, 9));
  const TraceAnalysis a = analyze_trace(lines);
  EXPECT_EQ(a.unclosed_spans, 1u);
  EXPECT_EQ(a.stray_ends, 1u);
  // The dangling span is closed at trace end (ts 1000): 500us of total.
  const SpanStat* dangling = find_span(a, "dangling");
  ASSERT_NE(dangling, nullptr);
  EXPECT_DOUBLE_EQ(dangling->total_us, 500.0);
}

TEST(ObsReportFlows, PairsStartAndFinishById) {
  std::vector<std::string> lines = nested_span_fixture();
  // Matched pair: the 's' tail under the submitter (tid 1), the 'f' head on
  // the worker (tid 2). Id 8 never finishes (task still queued at exit).
  lines.push_back(event("s", "pool", "threadpool.task", 150, 1, 7));
  lines.push_back(event("f", "pool", "threadpool.task", 200, 2, 7));
  lines.push_back(event("s", "pool", "threadpool.task", 160, 1, 8));
  const TraceAnalysis a = analyze_trace(lines);
  EXPECT_EQ(a.flow_starts, 2u);
  EXPECT_EQ(a.flow_finishes, 1u);
  EXPECT_EQ(a.flow_matched, 1u);
}

TEST(ObsReportParse, MalformedLinesAreCountedAndSkipped) {
  std::vector<std::string> lines = nested_span_fixture();
  lines.push_back("this is not json");
  lines.push_back("{\"ph\":\"B\"}");  // event without a timestamp
  lines.push_back("[1,2,3]");         // not an object
  lines.push_back("{\"kind\":\"counter\",\"name\":\"x\",\"value\":3}");
  lines.push_back("");  // blank lines are ignored entirely
  const TraceAnalysis a = analyze_trace(lines);
  EXPECT_EQ(a.total_lines, 10u);
  EXPECT_EQ(a.event_lines, 6u);
  EXPECT_EQ(a.malformed_lines, 3u);
  EXPECT_EQ(a.metric_lines, 1u);
}

TEST(ObsReportConvergence, DetectsStallAndLocatesLastImprovement) {
  ReportOptions options;
  options.windows = 2;
  const TraceAnalysis a = analyze_trace(stalled_fixture(), options);
  ASSERT_EQ(a.convergence.size(), 1u);
  const Convergence& conv = a.convergence[0];
  EXPECT_EQ(conv.samples, 10u);
  EXPECT_DOUBLE_EQ(conv.initial_best, 5.0);
  EXPECT_DOUBLE_EQ(conv.final_best, 4.6);
  // 0.4 h-ASPL over 900us of annealer span.
  EXPECT_NEAR(conv.improvement_per_s, 0.4 / (900.0 / 1e6), 1e-6);
  EXPECT_DOUBLE_EQ(conv.last_improvement_us, 400.0);
  EXPECT_EQ(conv.last_improvement_iter, 4000);
  EXPECT_NEAR(conv.stall_fraction, 500.0 / 900.0, 1e-9);
  EXPECT_TRUE(conv.stalled);

  ASSERT_EQ(conv.windows.size(), 2u);
  EXPECT_EQ(conv.windows[0].samples, 5u);
  EXPECT_EQ(conv.windows[1].samples, 5u);
  EXPECT_NEAR(conv.windows[0].acceptance, 0.3, 1e-9);
  EXPECT_DOUBLE_EQ(conv.windows[1].best_haspl, 4.6);
}

TEST(ObsReportConvergence, StrictImprovementIsNotAStall) {
  std::vector<std::string> lines;
  for (int i = 0; i < 10; ++i) {
    lines.push_back(
        counter("search", "annealer.best_haspl", 100LL * i, 5.0 - 0.1 * i));
  }
  const TraceAnalysis a = analyze_trace(lines);
  // No iteration series in this trace: it is one run, and the iter marker
  // stays unset.
  ASSERT_EQ(a.convergence.size(), 1u);
  EXPECT_DOUBLE_EQ(a.convergence[0].stall_fraction, 0.0);
  EXPECT_FALSE(a.convergence[0].stalled);
  EXPECT_EQ(a.convergence[0].last_improvement_iter, -1);
}

// Two anneal runs in one trace, the second at a larger (n, r) and so
// starting from a higher h-ASPL than the first one ends at. Each run starts
// at its annealer.iteration sample of 0 and gets its own diagnostics; no
// best-so-far column may rise inside a run.
std::vector<std::string> two_run_fixture() {
  std::vector<std::string> lines;
  const double first[5] = {4.2, 4.1, 4.0, 3.95, 3.9};
  const double second[5] = {4.9, 4.8, 4.8, 4.7, 4.6};
  for (int i = 0; i < 5; ++i) {
    const long long ts = 100LL * i;
    lines.push_back(counter("search", "annealer.iteration", ts, 250.0 * i));
    lines.push_back(counter("search", "annealer.temperature", ts, 0.5 - 0.1 * i));
    lines.push_back(counter("search", "annealer.best_haspl", ts, first[i]));
  }
  for (int i = 0; i < 5; ++i) {
    const long long ts = 1000 + 100LL * i;
    lines.push_back(counter("search", "annealer.iteration", ts, 500.0 * i));
    lines.push_back(counter("search", "annealer.temperature", ts, 0.9 - 0.2 * i));
    lines.push_back(counter("search", "annealer.best_haspl", ts, second[i]));
  }
  return lines;
}

TEST(ObsReportConvergence, EachRunHasItsOwnBlock) {
  ReportOptions options;
  options.windows = 4;
  const TraceAnalysis a = analyze_trace(two_run_fixture(), options);
  ASSERT_EQ(a.convergence.size(), 2u);
  const Convergence& first = a.convergence[0];
  const Convergence& second = a.convergence[1];
  EXPECT_EQ(first.samples, 5u);
  EXPECT_DOUBLE_EQ(first.initial_best, 4.2);
  EXPECT_DOUBLE_EQ(first.final_best, 3.9);
  EXPECT_EQ(first.last_improvement_iter, 1000);
  EXPECT_EQ(second.samples, 5u);
  EXPECT_DOUBLE_EQ(second.initial_best, 4.9);
  EXPECT_DOUBLE_EQ(second.final_best, 4.6);
  EXPECT_DOUBLE_EQ(second.last_improvement_us, 1400.0);
  EXPECT_EQ(second.last_improvement_iter, 2000);
  for (const Convergence& conv : a.convergence) {
    ASSERT_EQ(conv.windows.size(), 4u);
    for (std::size_t w = 1; w < conv.windows.size(); ++w) {
      EXPECT_LE(conv.windows[w].best_haspl, conv.windows[w - 1].best_haspl);
    }
    EXPECT_DOUBLE_EQ(conv.windows.back().best_haspl, conv.final_best);
  }
  const std::string md = render_markdown(a, {}, options);
  const std::size_t run1 = md.find("### Run 1\n");
  const std::size_t run2 = md.find("### Run 2\n");
  ASSERT_NE(run1, std::string::npos) << md;
  ASSERT_NE(run2, std::string::npos) << md;
  EXPECT_LT(run1, run2);
  EXPECT_EQ(md.find("### Run 3"), std::string::npos) << md;
  EXPECT_NE(md.find("- h-ASPL: 4.2 -> 3.9 "), std::string::npos) << md;
  EXPECT_NE(md.find("- h-ASPL: 4.9 -> 4.6 "), std::string::npos) << md;
}

TEST(ObsReportConvergence, SamplesBeforeTheFirstRunStartFormTheirOwnRun) {
  // A trace cut at its head: samples before the first iteration-0 sample
  // are a run of their own, and a run without best_haspl samples is
  // dropped.
  std::vector<std::string> lines = {
      counter("search", "annealer.best_haspl", 10, 5.0),
      counter("search", "annealer.iteration", 10, 640.0),
      counter("search", "annealer.iteration", 20, 0.0),
      counter("search", "annealer.iteration", 30, 0.0),
      counter("search", "annealer.best_haspl", 30, 4.0),
  };
  const TraceAnalysis a = analyze_trace(lines);
  ASSERT_EQ(a.convergence.size(), 2u);
  EXPECT_DOUBLE_EQ(a.convergence[0].final_best, 5.0);
  EXPECT_EQ(a.convergence[0].last_improvement_iter, 640);
  EXPECT_EQ(a.convergence[1].samples, 1u);
  EXPECT_DOUBLE_EQ(a.convergence[1].initial_best, 4.0);
  EXPECT_EQ(a.convergence[1].last_improvement_iter, 0);
}

// The committed fuzz seed anneal_runs.jsonl writes each window's iteration,
// acceptance and temperature samples 0.5-2 us before its best_haspl sample,
// as the annealer does. The windows start at a run's earliest sample, so
// Run 2's first window averages the samples written at its start
// (acceptance 0 and 0.7, temperature 0.003 and 0.0018); the h-ASPL rate
// still reads best_haspl's own span, 1003 to 1163 us.
TEST(ObsReportConvergence, WindowsCoverSamplesWrittenBeforeBestHaspl) {
  ReportOptions options;
  options.windows = 3;
  const TraceAnalysis a = analyze_trace_file(
      std::string(ORP_SOURCE_DIR) + "/tests/fuzz/corpus/trace_report/anneal_runs.jsonl",
      options);
  ASSERT_GE(a.convergence.size(), 2u);
  const Convergence& run2 = a.convergence[1];
  ASSERT_EQ(run2.windows.size(), 3u);
  EXPECT_NEAR(run2.windows[0].acceptance, 0.35, 1e-12);
  EXPECT_NEAR(run2.windows[0].temperature, 0.0024, 1e-12);
  EXPECT_DOUBLE_EQ(run2.windows[0].t_end_us, 1055.0);
  EXPECT_DOUBLE_EQ(run2.windows[2].t_end_us, 1163.0);
  EXPECT_NEAR(run2.improvement_per_s, (4.14258578 - 4.0966) / 160e-6, 1e-6);
}

// A real trace of two solve_orp calls at different (n, r): each anneal run
// is its own block, ending at the h-ASPL that call returned.
TEST(ObsReportConvergence, TwoSolvesGiveTwoRunsEndingAtTheirResults) {
  const std::string path = testing::TempDir() + "report_two_solves.jsonl";
  ASSERT_TRUE(obs::configure(obs::parse_sink(path)));
  SolveOptions options;
  options.iterations = 1500;
  options.seed = 3;
  const SolveResult small = solve_orp(64, 8, options);
  const SolveResult large = solve_orp(128, 10, options);
  obs::flush();
  obs::configure(obs::SinkConfig{});
  const TraceAnalysis a = analyze_trace_file(path);
  std::remove(path.c_str());
  ASSERT_FALSE(small.used_clique);
  ASSERT_FALSE(large.used_clique);
  ASSERT_EQ(a.convergence.size(), 2u);
  // The trace writes 9 significant digits.
  EXPECT_NEAR(a.convergence[0].final_best, small.metrics.h_aspl, 1e-8 * small.metrics.h_aspl);
  EXPECT_NEAR(a.convergence[1].final_best, large.metrics.h_aspl, 1e-8 * large.metrics.h_aspl);
  for (const Convergence& conv : a.convergence) {
    EXPECT_GE(conv.initial_best, conv.final_best);
    for (std::size_t w = 1; w < conv.windows.size(); ++w) {
      EXPECT_LE(conv.windows[w].best_haspl, conv.windows[w - 1].best_haspl);
    }
  }
}

std::string trailer_counter(const char* name, std::uint64_t value) {
  return "{\"kind\":\"counter\",\"name\":\"" + std::string(name) +
         "\",\"value\":" + std::to_string(value) + "}";
}

TEST(ObsReportCounters, TrailerCountersGiveTotalsAndRates) {
  // The nested-span fixture spans 1000us, so a total of 4000 is a rate of
  // 4e6 per second. A repeated record keeps its last value; gauges and
  // histograms are not counter totals.
  std::vector<std::string> lines = nested_span_fixture();
  lines.push_back(counter("search", "annealer.temperature", 100, 2.0));
  lines.push_back(counter("search", "annealer.temperature", 200, 1.0));
  lines.push_back(trailer_counter("sim.rounds.replayed", 12));
  lines.push_back(trailer_counter("annealer.moves", 10));
  lines.push_back(trailer_counter("annealer.moves", 4000));
  lines.push_back("{\"kind\":\"gauge\",\"name\":\"pool.depth\",\"value\":3,\"max\":5}");
  const TraceAnalysis a = analyze_trace(lines);
  EXPECT_EQ(a.metric_lines, 4u);

  ASSERT_EQ(a.counter_totals.size(), 2u);  // sorted by name
  EXPECT_EQ(a.counter_totals[0].name, "annealer.moves");
  EXPECT_EQ(a.counter_totals[0].value, 4000u);
  EXPECT_EQ(a.counter_totals[1].name, "sim.rounds.replayed");
  EXPECT_EQ(a.counter_totals[1].value, 12u);
  EXPECT_EQ(a.network.rounds_replayed, 12u);

  // "C" events stay sampled levels.
  ASSERT_EQ(a.counters.size(), 1u);
  EXPECT_EQ(a.counters[0].name, "annealer.temperature");
  EXPECT_DOUBLE_EQ(a.counters[0].first, 2.0);
  EXPECT_DOUBLE_EQ(a.counters[0].last, 1.0);

  const std::string md = render_markdown(a);
  EXPECT_NE(md.find("| name | total | rate /s |"), std::string::npos) << md;
  EXPECT_NE(md.find("| annealer.moves | 4000 | 4000000 |"), std::string::npos) << md;
  EXPECT_NE(md.find("| sim.rounds.replayed | 12 | 12000 |"), std::string::npos) << md;
  EXPECT_NE(md.find("### Sampled levels"), std::string::npos);
  EXPECT_EQ(md.find("pool.depth"), std::string::npos);
  EXPECT_EQ(md.find("Snapshot deltas"), std::string::npos);
}

TEST(ObsReportCounters, TraceWithoutCountersSaysSo) {
  const TraceAnalysis a = analyze_trace(nested_span_fixture());
  EXPECT_TRUE(a.counter_totals.empty());
  EXPECT_TRUE(a.counters.empty());
  const std::string md = render_markdown(a);
  EXPECT_NE(md.find("No counter series recorded."), std::string::npos) << md;
  EXPECT_EQ(md.find("### Totals"), std::string::npos);
  EXPECT_EQ(md.find("### Sampled levels"), std::string::npos);
}

TEST(ObsReportCounters, TotalsWithoutEventsHaveZeroRate) {
  // A trace holding only its trailer has no duration to divide by: the
  // totals are still listed, each at rate 0 rather than inf or NaN.
  const std::vector<std::string> lines = {trailer_counter("annealer.moves", 5),
                                          trailer_counter("annealer.evals", 7)};
  const TraceAnalysis a = analyze_trace(lines);
  EXPECT_EQ(a.event_lines, 0u);
  EXPECT_EQ(a.metric_lines, 2u);
  EXPECT_DOUBLE_EQ(a.duration_us, 0.0);
  ASSERT_EQ(a.counter_totals.size(), 2u);
  const std::string md = render_markdown(a);
  EXPECT_NE(md.find("| annealer.evals | 7 | 0 |"), std::string::npos) << md;
  EXPECT_NE(md.find("| annealer.moves | 5 | 0 |"), std::string::npos) << md;
  EXPECT_EQ(md.find("inf"), std::string::npos) << md;
  EXPECT_EQ(md.find("nan"), std::string::npos) << md;
}

TEST(ObsReportCounters, OnlyNamedCounterRecordsBecomeTotals) {
  // Every "kind" line is a metric record, but only a counter with a string
  // name yields a total. A missing value reads 0; values outside uint64
  // clamp to its range instead of wrapping.
  std::vector<std::string> lines = nested_span_fixture();
  lines.push_back("{\"kind\":\"counter\",\"value\":3}");
  lines.push_back("{\"kind\":\"counter\",\"name\":42,\"value\":3}");
  lines.push_back("{\"kind\":\"counter\",\"name\":\"no.value\"}");
  lines.push_back("{\"kind\":\"counter\",\"name\":\"negative\",\"value\":-5}");
  lines.push_back("{\"kind\":\"counter\",\"name\":\"huge\",\"value\":1e30}");
  lines.push_back("{\"kind\":\"histogram\",\"name\":\"h\",\"count\":2,\"sum\":9}");
  const TraceAnalysis a = analyze_trace(lines);
  EXPECT_EQ(a.metric_lines, 6u);
  EXPECT_EQ(a.malformed_lines, 0u);
  ASSERT_EQ(a.counter_totals.size(), 3u);
  EXPECT_EQ(a.counter_totals[0].name, "huge");
  EXPECT_EQ(a.counter_totals[0].value, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(a.counter_totals[1].name, "negative");
  EXPECT_EQ(a.counter_totals[1].value, 0u);
  EXPECT_EQ(a.counter_totals[2].name, "no.value");
  EXPECT_EQ(a.counter_totals[2].value, 0u);
}

TEST(ObsReportCounters, LegacySnapshotSeriesAreLevelsNotTotals) {
  // Traces written while a periodic sampler still ran carry "snapshot" C
  // events (per-interval deltas). They stay readable as sampled levels;
  // the counter's total comes from the trailer alone, not from their sum.
  std::vector<std::string> lines = nested_span_fixture();
  lines.push_back(counter("snapshot", "annealer.restored", 250, 15.0));
  lines.push_back(counter("snapshot", "annealer.restored", 500, 40.0));
  lines.push_back(trailer_counter("annealer.restored", 667));
  const TraceAnalysis a = analyze_trace(lines);
  ASSERT_EQ(a.counter_totals.size(), 1u);
  EXPECT_EQ(a.counter_totals[0].value, 667u);
  ASSERT_EQ(a.counters.size(), 1u);
  EXPECT_EQ(a.counters[0].category, "snapshot");
  EXPECT_EQ(a.counters[0].samples, 2u);
  EXPECT_DOUBLE_EQ(a.counters[0].last, 40.0);
  const std::string md = render_markdown(a);
  EXPECT_NE(md.find("| annealer.restored | 667 | 667000 |"), std::string::npos) << md;
  EXPECT_EQ(md.find("Snapshot deltas"), std::string::npos);
}

TEST(ObsReportRender, MarkdownIsByteDeterministic) {
  std::vector<std::string> lines = nested_span_fixture();
  for (const std::string& extra : stalled_fixture()) lines.push_back(extra);
  const TraceAnalysis a1 = analyze_trace(lines);
  const TraceAnalysis a2 = analyze_trace(lines);
  const std::string md1 = render_markdown(a1);
  const std::string md2 = render_markdown(a2);
  EXPECT_EQ(md1, md2);
  // The sections a reader greps for are present.
  EXPECT_NE(md1.find("## Span profile"), std::string::npos);
  EXPECT_NE(md1.find("## Annealer convergence"), std::string::npos);
  EXPECT_NE(md1.find("STALLED"), std::string::npos);
}

TEST(ObsReportFiles, TraceAndLedgerRoundTripThroughDisk) {
  const std::string trace_path = testing::TempDir() + "report_fixture.jsonl";
  {
    std::ofstream out(trace_path);
    for (const std::string& line : nested_span_fixture()) out << line << "\n";
  }
  const TraceAnalysis a = analyze_trace_file(trace_path);
  EXPECT_EQ(a.event_lines, 6u);

  const std::string ledger_path = testing::TempDir() + "report_ledger.jsonl";
  {
    std::ofstream out(ledger_path);
    out << "{\"schema\":\"orp-run/1\",\"ts\":\"2026-08-08T00:00:00Z\","
           "\"tool\":\"microbench\",\"git_sha\":\"abc1234\","
           "\"compiler\":\"gcc 12\",\"wall_s\":1.5,\"peak_rss_kb\":2048,"
           "\"notes\":{\"n\":\"256\",\"best\":4.5}}\n";
    out << "{\"schema\":\"other/1\",\"tool\":\"ignored\"}\n";
    out << "torn half-written tail line\n";
  }
  const std::vector<LedgerEntry> ledger = read_ledger_file(ledger_path);
  ASSERT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ledger[0].tool, "microbench");
  EXPECT_EQ(ledger[0].git_sha, "abc1234");
  EXPECT_DOUBLE_EQ(ledger[0].wall_s, 1.5);
  EXPECT_EQ(ledger[0].peak_rss_kb, 2048);
  EXPECT_EQ(ledger[0].notes.size(), 2u);

  const std::string md = render_markdown(a, ledger);
  EXPECT_NE(md.find("## Run ledger"), std::string::npos);
  EXPECT_NE(md.find("microbench"), std::string::npos);

  std::remove(trace_path.c_str());
  std::remove(ledger_path.c_str());
  EXPECT_THROW(analyze_trace_file(trace_path), std::runtime_error);
  EXPECT_THROW(read_ledger_file(ledger_path), std::runtime_error);
}

}  // namespace
}  // namespace orp::obs::report
