// Tests for the orp_report analysis engine (src/obs/trace_analysis) on
// hand-written fixture traces: span self-time accounting, flow-event s/f
// pairing, malformed-line rejection, annealer convergence diagnostics, and
// byte-deterministic rendering. trace_analysis is a pure file reader.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/trace_analysis.hpp"

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
  const Convergence& conv = a.convergence;
  ASSERT_TRUE(conv.present);
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
  ASSERT_TRUE(a.convergence.present);
  EXPECT_DOUBLE_EQ(a.convergence.stall_fraction, 0.0);
  EXPECT_FALSE(a.convergence.stalled);
  // No iteration series in this trace: the iter marker stays unset.
  EXPECT_EQ(a.convergence.last_improvement_iter, -1);
}

TEST(ObsReportCounters, SnapshotCategoryMeansDeltas) {
  std::vector<std::string> lines;
  lines.push_back(counter("snapshot", "annealer.moves", 100, 10.0));
  lines.push_back(counter("snapshot", "annealer.moves", 200, 30.0));
  lines.push_back(counter("search", "annealer.temperature", 100, 2.0));
  lines.push_back(counter("search", "annealer.temperature", 200, 1.0));
  const TraceAnalysis a = analyze_trace(lines);
  ASSERT_EQ(a.counters.size(), 2u);
  // Counters sort by (category, name): "search" precedes "snapshot".
  const CounterStat& deltas = a.counters[1];
  EXPECT_EQ(deltas.name, "annealer.moves");
  EXPECT_TRUE(deltas.is_delta);
  EXPECT_DOUBLE_EQ(deltas.sum, 40.0);  // deltas accumulate to a total
  const CounterStat& level = a.counters[0];
  EXPECT_FALSE(level.is_delta);
  EXPECT_DOUBLE_EQ(level.first, 2.0);
  EXPECT_DOUBLE_EQ(level.last, 1.0);
}

TEST(ObsReportRender, MarkdownIsByteDeterministic) {
  std::vector<std::string> lines = nested_span_fixture();
  for (const std::string& extra : stalled_fixture()) lines.push_back(extra);
  const TraceAnalysis a1 = analyze_trace(lines);
  const TraceAnalysis a2 = analyze_trace(lines);
  const std::string md1 = render_markdown(a1);
  const std::string md2 = render_markdown(a2);
  EXPECT_EQ(md1, md2);
  EXPECT_EQ(render_csv(a1), render_csv(a2));
  // The sections a reader greps for are present.
  EXPECT_NE(md1.find("## Span profile"), std::string::npos);
  EXPECT_NE(md1.find("## Annealer convergence"), std::string::npos);
  EXPECT_NE(md1.find("STALLED"), std::string::npos);
}

TEST(ObsReportRender, CsvHasHeaderAndSections) {
  std::vector<std::string> lines = nested_span_fixture();
  for (const std::string& extra : stalled_fixture()) lines.push_back(extra);
  const std::string csv = render_csv(analyze_trace(lines));
  EXPECT_EQ(csv.rfind("section,category,name,count,x1,x2,x3,x4\n", 0), 0u);
  EXPECT_NE(csv.find("span,search,root,1"), std::string::npos);
  EXPECT_NE(csv.find("convergence,search,best_haspl"), std::string::npos);
  EXPECT_NE(csv.find("convergence_window,search,window1"), std::string::npos);
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
