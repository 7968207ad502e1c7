// Tests for the network-telemetry half of the orp_report analyzer
// (src/obs/trace_analysis): parsing the sim's "cat":"net" instant records,
// latency-attribution sums and the residual check, per-link aggregation,
// per-phase bottleneck link sets, reservoir-coverage reporting, and
// byte-deterministic rendering. Like obs_report_test this exercises a pure
// file reader.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace_analysis.hpp"

namespace orp::obs::report {
namespace {

std::string num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string net_instant(const char* name, const std::string& args) {
  return "{\"name\":\"" + std::string(name) +
         "\",\"cat\":\"net\",\"ph\":\"i\",\"ts\":100,\"pid\":1,\"tid\":1,"
         "\"args\":{" +
         args + "}}";
}

/// One net.flow record; total is the sum of the five attribution terms
/// plus `extra_residual` (non-zero to simulate a broken emitter).
std::string net_flow(std::uint64_t phase, std::uint32_t src, std::uint32_t dst,
                     std::uint64_t bytes, std::uint32_t hops, double ser,
                     double queue, double hop, double retry, double ovh,
                     bool failed = false, std::uint32_t retries = 0,
                     double extra_residual = 0.0) {
  const double total = ser + queue + hop + retry + ovh + extra_residual;
  std::string args =
      "\"phase\":" + std::to_string(phase) + ",\"src\":" + std::to_string(src) +
      ",\"dst\":" + std::to_string(dst) + ",\"bytes\":" + std::to_string(bytes) +
      ",\"hops\":" + std::to_string(hops) +
      ",\"retries\":" + std::to_string(retries) + ",\"status\":\"" +
      (failed ? "failed" : "ok") + "\",\"start_s\":0,\"finish_s\":" +
      num(total) + ",\"total_s\":" + num(total) + ",\"ser_s\":" + num(ser) +
      ",\"queue_s\":" + num(queue) + ",\"hop_s\":" + num(hop) +
      ",\"retry_s\":" + num(retry) + ",\"ovh_s\":" + num(ovh) +
      ",\"rate_first_bps\":1e9,\"rate_last_bps\":2e9,\"rate_mean_bps\":1.5e9";
  return net_instant("net.flow", args);
}

std::string net_link(std::uint64_t phase, std::int64_t step, std::uint32_t link,
                     double util, std::uint32_t flows, double fair_bps) {
  std::string args = "\"phase\":" + std::to_string(phase) +
                     ",\"step\":" + std::to_string(step) +
                     ",\"link\":" + std::to_string(link) +
                     ",\"t0_s\":0,\"t1_s\":0.001,\"util\":" + num(util) +
                     ",\"flows\":" + std::to_string(flows) +
                     ",\"fair_bps\":" + num(fair_bps);
  return net_instant("net.link", args);
}

std::string net_phase(std::uint64_t phase, std::uint32_t flows,
                      std::uint32_t completed, std::uint32_t failed,
                      std::uint32_t retried, double elapsed) {
  std::string args = "\"phase\":" + std::to_string(phase) +
                     ",\"flows\":" + std::to_string(flows) +
                     ",\"completed\":" + std::to_string(completed) +
                     ",\"failed\":" + std::to_string(failed) +
                     ",\"retried\":" + std::to_string(retried) +
                     ",\"steps\":2,\"start_s\":0,\"elapsed_s\":" + num(elapsed) +
                     ",\"transfer_s\":" + num(elapsed) + ",\"max_util\":0";
  return net_instant("net.phase", args);
}

std::string net_meta(std::uint64_t flows_seen, std::uint64_t flows_kept) {
  std::string args = "\"flows_seen\":" + std::to_string(flows_seen) +
                     ",\"flows_kept\":" + std::to_string(flows_kept) +
                     ",\"links_seen\":4,\"links_kept\":4,\"phases_seen\":1,"
                     "\"phases_kept\":1";
  return net_instant("net.meta", args);
}

// A sim phase span so the trace has ordinary events alongside the
// telemetry instants (orp_report requires event_lines > 0 anyway).
std::vector<std::string> phase_span() {
  return {
      "{\"name\":\"phase\",\"cat\":\"sim\",\"ph\":\"B\",\"ts\":0,\"pid\":1,"
      "\"tid\":1}",
      "{\"name\":\"phase\",\"cat\":\"sim\",\"ph\":\"E\",\"ts\":900,\"pid\":1,"
      "\"tid\":1}",
  };
}

std::vector<std::string> small_fixture() {
  std::vector<std::string> lines = phase_span();
  // Out of (phase, src, dst) order on purpose: the analyzer must sort.
  lines.push_back(net_flow(1, 3, 0, 1 << 20, 4, 2e-4, 1e-4, 4e-7, 0, 1e-6));
  lines.push_back(net_flow(0, 1, 2, 1 << 20, 3, 2e-4, 0, 3e-7, 1e-5, 1e-6,
                           false, 1));
  lines.push_back(net_flow(0, 0, 1, 1 << 20, 3, 2e-4, 5e-5, 3e-7, 0, 1e-6));
  lines.push_back(net_link(0, -1, 7, 0.95, 2, 2.5e9));
  lines.push_back(net_link(0, -1, 3, 0.50, 1, 5e9));
  lines.push_back(net_link(1, -1, 7, 0.85, 1, 5e9));
  lines.push_back(net_phase(0, 2, 2, 0, 1, 3e-4));
  lines.push_back(net_phase(1, 1, 1, 0, 0, 3.2e-4));
  return lines;
}

TEST(ObsNetReport, ParsesAndSortsFlowLinkPhaseRecords) {
  const TraceAnalysis a = analyze_trace(small_fixture());
  const NetworkAnalysis& net = a.network;
  ASSERT_TRUE(net.present);
  ASSERT_EQ(net.flows.size(), 3u);
  EXPECT_EQ(net.flows[0].phase, 0u);
  EXPECT_EQ(net.flows[0].src, 0u);
  EXPECT_EQ(net.flows[1].src, 1u);
  EXPECT_EQ(net.flows[2].phase, 1u);  // sorted (phase, src, dst)
  EXPECT_EQ(net.flows[1].retries, 1u);
  ASSERT_EQ(net.link_samples.size(), 3u);
  EXPECT_EQ(net.link_samples[0].link, 3u);  // sorted (phase, step, link)
  ASSERT_EQ(net.phases.size(), 2u);
  EXPECT_EQ(net.completed, 3u);
  EXPECT_EQ(net.failed, 0u);
  EXPECT_EQ(net.retried, 1u);
}

TEST(ObsNetReport, AttributionTermsSumWithinTolerance) {
  const TraceAnalysis a = analyze_trace(small_fixture());
  const NetworkAnalysis& net = a.network;
  ASSERT_TRUE(net.present);
  // Fixture totals are exact term sums, so the residual is rounding only.
  EXPECT_LT(net.max_residual_s, 1e-9);
  const double sum = net.sum_ser_s + net.sum_queue_s + net.sum_hop_s +
                     net.sum_retry_s + net.sum_overhead_s;
  EXPECT_NEAR(sum, net.sum_total_s, 1e-9);
  EXPECT_GT(net.sum_total_s, 0.0);
  EXPECT_NEAR(net.max_total_s, 2e-4 + 1e-4 + 4e-7 + 1e-6, 1e-12);
}

TEST(ObsNetReport, ResidualFlagsBrokenAttribution) {
  std::vector<std::string> lines = phase_span();
  lines.push_back(net_flow(0, 0, 1, 1024, 2, 1e-4, 0, 0, 0, 0, false, 0,
                           /*extra_residual=*/5e-5));
  const TraceAnalysis a = analyze_trace(lines);
  EXPECT_NEAR(a.network.max_residual_s, 5e-5, 1e-9);
}

TEST(ObsNetReport, LinkAggregatesAndPhaseBottlenecks) {
  const TraceAnalysis a = analyze_trace(small_fixture());
  const NetworkAnalysis& net = a.network;
  ASSERT_EQ(net.links.size(), 2u);
  // Sorted by mean utilization descending: link 7 (0.90) above link 3.
  EXPECT_EQ(net.links[0].link, 7u);
  EXPECT_EQ(net.links[0].samples, 2u);
  EXPECT_NEAR(net.links[0].util_mean, 0.90, 1e-12);
  EXPECT_NEAR(net.links[0].util_max, 0.95, 1e-12);
  EXPECT_EQ(net.links[0].flows_max, 2u);
  EXPECT_NEAR(net.links[0].fair_min_bps, 2.5e9, 1e-3);
  // Phase 0 peaks at link 7 (0.95); link 3 (0.50) is far outside the 5%
  // band, so the bottleneck set is {7} alone.
  ASSERT_EQ(net.phases.size(), 2u);
  ASSERT_EQ(net.phases[0].bottleneck_links.size(), 1u);
  EXPECT_EQ(net.phases[0].bottleneck_links[0], 7u);
  EXPECT_NEAR(net.phases[0].max_utilization, 0.95, 1e-12);
}

TEST(ObsNetReport, MetaCoverageReportsSampling) {
  std::vector<std::string> full = small_fixture();
  full.push_back(net_meta(3, 3));
  const std::string complete = render_markdown(analyze_trace(full));
  EXPECT_NE(complete.find("coverage: complete"), std::string::npos);

  std::vector<std::string> sampled = small_fixture();
  sampled.push_back(net_meta(100, 3));
  const std::string partial = render_markdown(analyze_trace(sampled));
  EXPECT_NE(partial.find("SAMPLED"), std::string::npos);
  EXPECT_NE(partial.find("3/100"), std::string::npos);
}

TEST(ObsNetReport, ReplayedRoundsAreReported) {
  // Replayed rounds are not simulated again, so they carry no net records;
  // the section says how many there were, from the metric trailer.
  std::vector<std::string> lines = small_fixture();
  lines.push_back("{\"kind\":\"counter\",\"name\":\"sim.rounds.serial\",\"value\":9}");
  const std::string none = render_markdown(analyze_trace(lines));
  EXPECT_EQ(none.find("replayed rounds"), std::string::npos);

  lines.push_back("{\"kind\":\"counter\",\"name\":\"sim.rounds.replayed\",\"value\":1453}");
  const TraceAnalysis a = analyze_trace(lines);
  EXPECT_EQ(a.network.rounds_replayed, 1453u);
  EXPECT_EQ(a.metric_lines, 2u);
  const std::string md = render_markdown(a);
  EXPECT_NE(md.find("- replayed rounds: 1453 "), std::string::npos) << md;
  EXPECT_NE(md.find("carry no net records"), std::string::npos);
}

TEST(ObsNetReport, MarkdownSectionIsByteDeterministic) {
  const std::vector<std::string> lines = small_fixture();
  const std::string once = render_markdown(analyze_trace(lines));
  const std::string twice = render_markdown(analyze_trace(lines));
  EXPECT_EQ(once, twice);
  EXPECT_NE(once.find("## Network"), std::string::npos);
  EXPECT_NE(once.find("### Latency attribution"), std::string::npos);
  EXPECT_NE(once.find("### Slowest flows"), std::string::npos);
  EXPECT_NE(once.find("### Link heatmap"), std::string::npos);
  EXPECT_NE(once.find("### Phase bottlenecks"), std::string::npos);
  EXPECT_NE(once.find("serialization"), std::string::npos);
}

TEST(ObsNetReport, TracesWithoutTelemetrySaySo) {
  const TraceAnalysis a = analyze_trace(phase_span());
  EXPECT_FALSE(a.network.present);
  const std::string md = render_markdown(a);
  EXPECT_NE(md.find("No network telemetry in this trace."), std::string::npos);
}

TEST(ObsNetReport, NetTopCapsEveryTable) {
  std::vector<std::string> lines = phase_span();
  for (std::uint32_t l = 0; l < 10; ++l) {
    lines.push_back(net_link(0, -1, l, 0.1 + 0.05 * l, 1, 5e9));
  }
  lines.push_back(net_phase(0, 1, 1, 0, 0, 1e-4));
  ReportOptions options;
  options.net_top = 3;
  const std::string md = render_markdown(analyze_trace(lines, options), {},
                                         options);
  // Exactly net_top data rows in the heatmap table: the "| " lines between
  // its heading and the next one are the header row plus 3 data rows (the
  // "|---|" separator does not match the pattern).
  const std::size_t at = md.find("### Link heatmap");
  ASSERT_NE(at, std::string::npos);
  // "\n###" not "###": the heat bars are runs of '#' and would match.
  const std::size_t end = md.find("\n###", at);
  ASSERT_NE(end, std::string::npos);
  std::size_t rows = 0, pos = md.find("\n| ", at);
  while (pos != std::string::npos && pos < end) {
    ++rows;
    pos = md.find("\n| ", pos + 1);
  }
  EXPECT_EQ(rows, 1u + 3u);
}

}  // namespace
}  // namespace orp::obs::report
