// Tests for the observability layer: registry correctness under concurrent
// increments, histogram bucketing, span emission, and a JSONL sink
// round-trip validated with a small self-contained JSON parser.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"

namespace orp {
namespace {

// ---- minimal recursive-descent JSON parser (validation only) -----------
//
// Good enough to check every emitted line is a well-formed object; not a
// general JSON library. Returns false on any syntax error.

struct JsonCursor {
  const std::string& text;
  std::size_t pos = 0;

  bool eof() const { return pos >= text.size(); }
  char peek() const { return text[pos]; }
  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t')) ++pos;
  }
};

bool parse_value(JsonCursor& c);

bool parse_string(JsonCursor& c) {
  if (c.eof() || c.peek() != '"') return false;
  ++c.pos;
  while (!c.eof() && c.peek() != '"') {
    if (c.peek() == '\\') {
      ++c.pos;
      if (c.eof()) return false;
    }
    ++c.pos;
  }
  if (c.eof()) return false;
  ++c.pos;  // closing quote
  return true;
}

bool parse_number(JsonCursor& c) {
  std::size_t start = c.pos;
  if (!c.eof() && (c.peek() == '-' || c.peek() == '+')) ++c.pos;
  bool digits = false;
  while (!c.eof() && (std::isdigit(static_cast<unsigned char>(c.peek())) ||
                      c.peek() == '.' || c.peek() == 'e' || c.peek() == 'E' ||
                      c.peek() == '-' || c.peek() == '+')) {
    if (std::isdigit(static_cast<unsigned char>(c.peek()))) digits = true;
    ++c.pos;
  }
  return digits && c.pos > start;
}

bool parse_object(JsonCursor& c) {
  if (c.eof() || c.peek() != '{') return false;
  ++c.pos;
  c.skip_ws();
  if (!c.eof() && c.peek() == '}') {
    ++c.pos;
    return true;
  }
  for (;;) {
    c.skip_ws();
    if (!parse_string(c)) return false;
    c.skip_ws();
    if (c.eof() || c.peek() != ':') return false;
    ++c.pos;
    if (!parse_value(c)) return false;
    c.skip_ws();
    if (c.eof()) return false;
    if (c.peek() == ',') {
      ++c.pos;
      continue;
    }
    if (c.peek() == '}') {
      ++c.pos;
      return true;
    }
    return false;
  }
}

bool parse_array(JsonCursor& c) {
  if (c.eof() || c.peek() != '[') return false;
  ++c.pos;
  c.skip_ws();
  if (!c.eof() && c.peek() == ']') {
    ++c.pos;
    return true;
  }
  for (;;) {
    if (!parse_value(c)) return false;
    c.skip_ws();
    if (c.eof()) return false;
    if (c.peek() == ',') {
      ++c.pos;
      continue;
    }
    if (c.peek() == ']') {
      ++c.pos;
      return true;
    }
    return false;
  }
}

bool parse_value(JsonCursor& c) {
  c.skip_ws();
  if (c.eof()) return false;
  switch (c.peek()) {
    case '{': return parse_object(c);
    case '[': return parse_array(c);
    case '"': return parse_string(c);
    case 't': c.pos += 4; return c.pos <= c.text.size();
    case 'f': c.pos += 5; return c.pos <= c.text.size();
    case 'n': c.pos += 4; return c.pos <= c.text.size();
    default: return parse_number(c);
  }
}

bool is_json_object_line(const std::string& line) {
  JsonCursor c{line};
  if (!parse_object(c)) return false;
  c.skip_ws();
  return c.eof();
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::string temp_path(const char* stem) {
  return testing::TempDir() + stem;
}

// ---- metrics registry ---------------------------------------------------

TEST(ObsCounter, CountsConcurrentIncrementsExactly) {
  obs::Counter& counter =
      obs::Registry::global().counter("test.counter.concurrent");
  counter.reset();
  ThreadPool pool(4);
  constexpr std::size_t kIterations = 200000;
  pool.parallel_for(kIterations, [&](std::size_t) { counter.add(1); });
  EXPECT_EQ(counter.value(), kIterations);
}

TEST(ObsCounter, AddAccumulatesDeltas) {
  obs::Counter& counter = obs::Registry::global().counter("test.counter.delta");
  counter.reset();
  counter.add(5);
  counter.add(7);
  counter.inc();
  EXPECT_EQ(counter.value(), 13u);
}

TEST(ObsGauge, TracksValueAndHighWatermark) {
  obs::Gauge& gauge = obs::Registry::global().gauge("test.gauge");
  gauge.reset();
  gauge.add(3);
  gauge.add(4);
  gauge.sub(5);
  EXPECT_EQ(gauge.value(), 2);
  EXPECT_EQ(gauge.max(), 7);
  gauge.set(100);
  EXPECT_EQ(gauge.max(), 100);
}

TEST(ObsHistogram, CountSumMinMaxUnderConcurrentRecords) {
  obs::Histogram& histogram =
      obs::Registry::global().histogram("test.histogram.concurrent");
  histogram.reset();
  ThreadPool pool(4);
  constexpr std::size_t kSamples = 50000;
  pool.parallel_for(kSamples, [&](std::size_t i) { histogram.record(i + 1); });
  const obs::HistogramSample sample = histogram.sample();
  EXPECT_EQ(sample.count, kSamples);
  EXPECT_EQ(sample.sum, kSamples * (kSamples + 1) / 2);
  EXPECT_EQ(sample.min, 1u);
  EXPECT_EQ(sample.max, kSamples);
}

TEST(ObsHistogram, Log2Buckets) {
  obs::Histogram& histogram = obs::Registry::global().histogram("test.histogram.buckets");
  histogram.reset();
  histogram.record(0);  // bucket 0
  histogram.record(1);  // bucket 1: [1, 1]
  histogram.record(2);  // bucket 2: [2, 3]
  histogram.record(3);
  histogram.record(4);  // bucket 3: [4, 7]
  const obs::HistogramSample sample = histogram.sample();
  EXPECT_EQ(sample.buckets[0], 1u);
  EXPECT_EQ(sample.buckets[1], 1u);
  EXPECT_EQ(sample.buckets[2], 2u);
  EXPECT_EQ(sample.buckets[3], 1u);
  EXPECT_EQ(sample.count, 5u);
}

TEST(ObsHistogram, QuantilesAreBracketedByExtrema) {
  obs::Histogram& histogram = obs::Registry::global().histogram("test.histogram.quantile");
  histogram.reset();
  for (std::uint64_t v = 1; v <= 1000; ++v) histogram.record(v);
  const obs::HistogramSample sample = histogram.sample();
  EXPECT_GE(sample.quantile(0.5), sample.min);
  EXPECT_LE(sample.quantile(0.5), sample.max);
  EXPECT_LE(sample.quantile(0.5), sample.quantile(0.99));
  EXPECT_EQ(sample.quantile(1.0), sample.max);
}

TEST(ObsHistogram, BucketBoundaryEdges) {
  using obs::detail::bucket_of;
  using obs::detail::bucket_upper;
  EXPECT_EQ(bucket_of(0), 0u);
  EXPECT_EQ(bucket_of(1), 1u);
  for (std::size_t k = 1; k <= 61; ++k) {
    // 2^k - 1 closes bucket k; 2^k opens bucket k + 1.
    EXPECT_EQ(bucket_of((1ULL << k) - 1), k);
    EXPECT_EQ(bucket_of(1ULL << k), k + 1);
  }
  // The last bucket is open-ended: bit widths 63 and 64 both fold into it,
  // so the index stays inside the kHistogramBuckets-slot array.
  EXPECT_EQ(bucket_of(1ULL << 62), obs::kHistogramBuckets - 1);
  EXPECT_EQ(bucket_of(1ULL << 63), obs::kHistogramBuckets - 1);
  EXPECT_EQ(bucket_of(~0ULL), obs::kHistogramBuckets - 1);
  EXPECT_EQ(bucket_upper(0), 0u);
  for (std::size_t k = 1; k < obs::kHistogramBuckets - 1; ++k) {
    EXPECT_EQ(bucket_upper(k), (1ULL << k) - 1);
  }
  EXPECT_EQ(bucket_upper(obs::kHistogramBuckets - 1), ~0ULL);
}

TEST(ObsHistogram, ExtremeValuesLandInTheOpenEndedBucket) {
  obs::Histogram& histogram =
      obs::Registry::global().histogram("test.histogram.extreme");
  histogram.reset();
  histogram.record(~0ULL);
  histogram.record(1ULL << 63);
  const obs::HistogramSample sample = histogram.sample();
  EXPECT_EQ(sample.count, 2u);
  EXPECT_EQ(sample.max, ~0ULL);
  EXPECT_EQ(sample.buckets[obs::kHistogramBuckets - 1], 2u);
  // The open-ended edge is clamped by the observed maximum.
  EXPECT_EQ(sample.quantile(1.0), ~0ULL);
}

TEST(ObsHistogram, EmptySnapshotIsAllZeros) {
  obs::Histogram& histogram =
      obs::Registry::global().histogram("test.histogram.empty");
  histogram.reset();
  const obs::HistogramSample sample = histogram.sample();
  EXPECT_EQ(sample.count, 0u);
  EXPECT_EQ(sample.sum, 0u);
  EXPECT_EQ(sample.min, 0u);
  EXPECT_EQ(sample.max, 0u);
  EXPECT_EQ(sample.mean(), 0.0);
  EXPECT_EQ(sample.quantile(0.0), 0u);
  EXPECT_EQ(sample.quantile(0.5), 0u);
  EXPECT_EQ(sample.quantile(1.0), 0u);
  for (const std::uint64_t b : sample.buckets) EXPECT_EQ(b, 0u);
}

TEST(ObsHistogram, QuantileReportsBucketEdgeClampedByExtrema) {
  obs::Histogram& histogram =
      obs::Registry::global().histogram("test.histogram.qedge");
  histogram.reset();
  for (int i = 0; i < 99; ++i) histogram.record(5);  // bucket 3: [4, 7]
  histogram.record(1000);                            // bucket 10: [512, 1023]
  const obs::HistogramSample sample = histogram.sample();
  // Ranks 1..99 fall in bucket 3, whose upper edge (7) is inside [min, max].
  EXPECT_EQ(sample.quantile(0.5), 7u);
  EXPECT_EQ(sample.quantile(0.99), 7u);
  // Rank 100 falls in bucket 10; its edge (1023) clamps to the observed max.
  EXPECT_EQ(sample.quantile(1.0), 1000u);
  // A single-bucket histogram reports exact values, not power-of-two edges.
  histogram.reset();
  histogram.record(6);
  histogram.record(6);
  const obs::HistogramSample single = histogram.sample();
  EXPECT_EQ(single.quantile(0.5), 6u);
  EXPECT_EQ(single.quantile(1.0), 6u);
}

TEST(ObsHistogram, InterpolatedQuantilesTrackUniformData) {
  obs::Histogram& histogram =
      obs::Registry::global().histogram("test.histogram.interp");
  histogram.reset();
  for (std::uint64_t v = 1; v <= 1000; ++v) histogram.record(v);
  const obs::HistogramSample sample = histogram.sample();
  const double p50 = sample.quantile_interp(0.5);
  const double p90 = sample.quantile_interp(0.9);
  const double p99 = sample.quantile_interp(0.99);
  // Interpolation within the log2 bucket lands near the true percentile
  // (500), not at the bucket edge the integer quantile() reports (511).
  EXPECT_GE(p50, 450.0);
  EXPECT_LE(p50, 550.0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // The open-ended estimate clamps to the observed extrema.
  EXPECT_LE(p99, 1000.0);
  EXPECT_GE(sample.quantile_interp(0.0), 1.0);

  // A repeated single value is reported exactly, not as a bucket midpoint.
  histogram.reset();
  histogram.record(6);
  histogram.record(6);
  EXPECT_DOUBLE_EQ(histogram.sample().quantile_interp(0.5), 6.0);

  histogram.reset();
  EXPECT_DOUBLE_EQ(histogram.sample().quantile_interp(0.5), 0.0);
}

TEST(ObsScopedTimer, RecordsPositiveLatency) {
  obs::Histogram& histogram = obs::Registry::global().histogram("test.histogram.timer");
  histogram.reset();
  {
    obs::ScopedTimer timer(histogram);
    volatile int sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + i;
  }
  const obs::HistogramSample sample = histogram.sample();
  EXPECT_EQ(sample.count, 1u);
  EXPECT_GT(sample.sum, 0u);
}

TEST(ObsRegistry, SnapshotContainsRegisteredInstruments) {
  obs::Registry::global().counter("test.snapshot.counter").add(42);
  obs::Registry::global().gauge("test.snapshot.gauge").set(7);
  obs::Registry::global().histogram("test.snapshot.histogram").record(9);
  const obs::MetricsSnapshot snapshot = obs::Registry::global().snapshot();
  bool saw_counter = false, saw_gauge = false, saw_histogram = false;
  for (const auto& c : snapshot.counters) {
    if (c.name == "test.snapshot.counter") {
      saw_counter = true;
      EXPECT_GE(c.value, 42u);
    }
  }
  for (const auto& g : snapshot.gauges) {
    if (g.name == "test.snapshot.gauge") saw_gauge = true;
  }
  for (const auto& h : snapshot.histograms) {
    if (h.name == "test.snapshot.histogram") saw_histogram = true;
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_histogram);
}

TEST(ObsRegistry, SameNameReturnsSameInstrument) {
  obs::Counter& a = obs::Registry::global().counter("test.same.name");
  obs::Counter& b = obs::Registry::global().counter("test.same.name");
  EXPECT_EQ(&a, &b);
}

TEST(ObsSummary, TableHasOneRowPerInstrument) {
  obs::MetricsSnapshot snapshot;
  snapshot.counters.push_back({"c", 1});
  snapshot.gauges.push_back({"g", 2, 3});
  obs::HistogramSample h;
  h.name = "h";
  h.count = 1;
  h.sum = 5;
  snapshot.histograms.push_back(h);
  const Table table = obs::metrics_table(snapshot);
  EXPECT_EQ(table.rows(), 3u);
  EXPECT_EQ(table.columns(), 9u);  // kind/name/value/count/mean/p50/p90/p99/max
}

// ---- tracing + JSONL sink ----------------------------------------------

TEST(ObsTrace, JsonlRoundTripParses) {
  const std::string path = temp_path("obs_roundtrip.jsonl");
  ASSERT_TRUE(obs::configure(obs::parse_sink(path)));
  {
    obs::Span outer("outer", "test");
    outer.arg("n", static_cast<std::uint64_t>(64));
    outer.arg("label", std::string_view("with \"quotes\" and \\slashes\\"));
    {
      obs::Span inner("inner", "test");
      inner.arg("x", 0.5);
    }
    obs::Tracer::global().counter("test.series", 1.25, "test");
  }
  obs::Registry::global().counter("test.jsonl.counter").add(3);
  obs::Registry::global().histogram("test.jsonl.histogram").record(1234);
  obs::flush();

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_GE(lines.size(), 5u);  // B/E x2 + counter + metric records
  for (const std::string& line : lines) {
    EXPECT_TRUE(is_json_object_line(line)) << "unparseable line: " << line;
  }

  const std::string all = [&] {
    std::string joined;
    for (const auto& line : lines) joined += line + "\n";
    return joined;
  }();
  // Begin/end events for both spans, in nesting order.
  const std::size_t outer_b = all.find("\"name\":\"outer\",\"cat\":\"test\",\"ph\":\"B\"");
  const std::size_t inner_b = all.find("\"name\":\"inner\",\"cat\":\"test\",\"ph\":\"B\"");
  const std::size_t inner_e = all.find("\"name\":\"inner\",\"cat\":\"test\",\"ph\":\"E\"");
  const std::size_t outer_e = all.find("\"name\":\"outer\",\"cat\":\"test\",\"ph\":\"E\"");
  EXPECT_NE(outer_b, std::string::npos);
  EXPECT_NE(inner_b, std::string::npos);
  EXPECT_NE(inner_e, std::string::npos);
  EXPECT_NE(outer_e, std::string::npos);
  EXPECT_LT(outer_b, inner_b);
  EXPECT_LT(inner_b, inner_e);
  EXPECT_LT(inner_e, outer_e);
  // The counter series and the metric trailer records.
  EXPECT_NE(all.find("\"name\":\"test.series\",\"cat\":\"test\",\"ph\":\"C\""),
            std::string::npos);
  EXPECT_NE(all.find("\"kind\":\"counter\",\"name\":\"test.jsonl.counter\""),
            std::string::npos);
  EXPECT_NE(all.find("\"kind\":\"histogram\",\"name\":\"test.jsonl.histogram\""),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsTrace, DisabledTracerMakesSpansFree) {
  // No sink configured: spans must not emit (nothing to assert beyond not
  // crashing and staying inactive).
  obs::Span span("unsunk", "test");
  EXPECT_FALSE(span.active());
}

TEST(ObsTrace, ConcurrentSpansAllLand) {
  const std::string path = temp_path("obs_concurrent.jsonl");
  ASSERT_TRUE(obs::configure(obs::parse_sink(path)));
  ThreadPool pool(4);
  constexpr std::size_t kSpans = 500;
  pool.parallel_for(kSpans, [&](std::size_t i) {
    obs::Span span("worker", "test");
    span.arg("i", static_cast<std::uint64_t>(i));
  });
  obs::flush();
  const std::vector<std::string> lines = read_lines(path);
  std::size_t begins = 0, ends = 0;
  for (const std::string& line : lines) {
    ASSERT_TRUE(is_json_object_line(line)) << line;
    if (line.find("\"name\":\"worker\"") != std::string::npos) {
      if (line.find("\"ph\":\"B\"") != std::string::npos) ++begins;
      if (line.find("\"ph\":\"E\"") != std::string::npos) ++ends;
    }
  }
  EXPECT_EQ(begins, kSpans);
  EXPECT_EQ(ends, kSpans);
  std::remove(path.c_str());
}

// ---- sink selection -----------------------------------------------------

TEST(ObsSink, ParseSpecSelectsKind) {
  EXPECT_EQ(obs::parse_sink("").kind, obs::SinkKind::kNone);
  EXPECT_EQ(obs::parse_sink("stderr").kind, obs::SinkKind::kStderrSummary);
  EXPECT_EQ(obs::parse_sink("run.csv").kind, obs::SinkKind::kCsv);
  EXPECT_EQ(obs::parse_sink("run.jsonl").kind, obs::SinkKind::kJsonl);
  EXPECT_EQ(obs::parse_sink("trace.out").kind, obs::SinkKind::kJsonl);
  EXPECT_EQ(obs::parse_sink("run.csv").path, "run.csv");
}

TEST(ObsSink, CsvSinkWritesMetricsSnapshot) {
  const std::string path = temp_path("obs_metrics.csv");
  obs::Registry::global().counter("test.csv.counter").add(11);
  ASSERT_TRUE(obs::configure(obs::parse_sink(path)));
  obs::flush();
  obs::configure(obs::SinkConfig{});  // detach so later tests start clean
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_GE(lines.size(), 2u);  // header + at least one instrument
  EXPECT_NE(lines[0].find("kind"), std::string::npos);
  bool found = false;
  for (const auto& line : lines) {
    if (line.find("test.csv.counter") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
  std::remove(path.c_str());
}

TEST(ObsSink, CsvSinkEscapesDelimitersAndQuotes) {
  // RFC-4180: cells containing delimiters or quotes are wrapped in quotes
  // with inner quotes doubled; an instrument name is an arbitrary string,
  // so the sink must not let one shift the columns of every row after it.
  const std::string path = temp_path("obs_escape.csv");
  obs::Registry::global().counter("test.csv.\"tricky\",name").add(3);
  ASSERT_TRUE(obs::configure(obs::parse_sink(path)));
  obs::flush();
  obs::configure(obs::SinkConfig{});  // detach so later tests start clean
  const std::vector<std::string> lines = read_lines(path);
  bool found = false;
  for (const auto& line : lines) {
    if (line.find("\"test.csv.\"\"tricky\"\",name\"") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
  std::remove(path.c_str());
}

TEST(ObsSink, FlushReportsAFailedTraceWrite) {
  // A JSONL sink on a full disk: the trace is truncated, so flush() must
  // say so instead of returning as if the run had been recorded.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  ASSERT_TRUE(obs::configure(obs::parse_sink("/dev/full")));
  for (int i = 0; i < 100; ++i) obs::Span span("test.full", "test");
  testing::internal::CaptureStderr();
  const bool written = obs::flush();
  const std::string err = testing::internal::GetCapturedStderr();
  obs::configure(obs::SinkConfig{});
  EXPECT_FALSE(written);
  EXPECT_NE(err.find("[obs] error: /dev/full: write failed"), std::string::npos) << err;
  // The next trace starts clean.
  const std::string path = temp_path("obs_after_full.jsonl");
  ASSERT_TRUE(obs::configure(obs::parse_sink(path)));
  EXPECT_TRUE(obs::flush());
  std::remove(path.c_str());
}

TEST(ObsSink, TrailerCarriesEachCounterTotalAndNoSnapshotEvents) {
  // The end-of-run trailer is the one channel for a counter's total: a
  // trace written through configure() carries no periodic "snapshot"
  // samples, and its {"kind":"counter"} records hold the final values.
  const std::string path = temp_path("obs_trailer_totals.jsonl");
  ASSERT_TRUE(obs::configure(obs::parse_sink(path)));
  obs::Counter& moves = obs::Registry::global().counter("test.trailer.moves");
  obs::Counter& evals = obs::Registry::global().counter("test.trailer.evals");
  for (int i = 0; i < 20; ++i) {
    moves.add(1);
    evals.add(3);
  }
  ASSERT_TRUE(obs::flush());

  std::size_t totals_seen = 0;
  for (const std::string& line : read_lines(path)) {
    ASSERT_TRUE(is_json_object_line(line)) << line;
    EXPECT_EQ(line.find("\"cat\":\"snapshot"), std::string::npos) << line;
    const JsonValue doc = JsonValue::parse(line);
    const JsonValue* kind = doc.find("kind");
    if (!kind || kind->as_string() != "counter") continue;
    const std::string& name = doc.at("name").as_string();
    const double value = doc.at("value").as_number();
    if (name == "test.trailer.moves") {
      EXPECT_DOUBLE_EQ(value, static_cast<double>(moves.value()));
      ++totals_seen;
    }
    if (name == "test.trailer.evals") {
      EXPECT_DOUBLE_EQ(value, static_cast<double>(evals.value()));
      ++totals_seen;
    }
  }
  EXPECT_EQ(totals_seen, 2u);  // one record per counter
  std::remove(path.c_str());
}

TEST(ObsSink, SnapshotIntervalVariableStartsNoSampler) {
  // ORP_OBS_SNAPSHOT_MS once switched on a periodic sampler; a sink read
  // from the environment now ignores it, however short the interval.
  const std::string path = temp_path("obs_env_no_sampler.jsonl");
  ::setenv("ORP_OBS_OUT", path.c_str(), 1);
  ::setenv("ORP_OBS_SNAPSHOT_MS", "1", 1);
  const obs::SinkConfig config = obs::sink_from_env();
  ::unsetenv("ORP_OBS_SNAPSHOT_MS");
  ::unsetenv("ORP_OBS_OUT");
  EXPECT_EQ(config.kind, obs::SinkKind::kJsonl);
  EXPECT_EQ(config.path, path);
  ASSERT_TRUE(obs::configure(config));
  obs::Counter& ticks = obs::Registry::global().counter("test.env.ticks");
  for (int i = 0; i < 10; ++i) {
    ticks.add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(obs::flush());
  bool total_seen = false;
  for (const std::string& line : read_lines(path)) {
    EXPECT_EQ(line.find("\"cat\":\"snapshot"), std::string::npos) << line;
    if (line.find("\"kind\":\"counter\",\"name\":\"test.env.ticks\"") !=
        std::string::npos) {
      total_seen = true;
    }
  }
  EXPECT_TRUE(total_seen);
  std::remove(path.c_str());
}

TEST(ObsSink, CliRejectsTheRemovedSnapshotOption) {
  auto parser = [] {
    CliParser cli("obs_test", "sink options");
    obs::add_cli_options(cli);
    return cli;
  };
  const char* removed[] = {"obs_test", "--obs-snapshot-ms", "25"};
  CliParser with_removed = parser();
  EXPECT_THROW(with_removed.parse(3, removed), std::invalid_argument);

  const char* kept[] = {"obs_test", "--obs-out", "stderr", "--obs-summary"};
  CliParser with_kept = parser();
  ASSERT_TRUE(with_kept.parse(4, kept));
  EXPECT_EQ(with_kept.get("obs-out"), "stderr");
  EXPECT_TRUE(obs::cli_wants_summary(with_kept));
}

TEST(ObsSink, TrailerRecordsRoundTripArbitraryNames) {
  // Instrument names are arbitrary strings: each trailer record must stay
  // one parseable line that gives the name back unchanged.
  const std::string tricky = "test.trailer.\"quoted\"\\back\nline\ttab\x01";
  obs::Registry::global().counter(tricky).add(5);
  obs::Registry::global().gauge(tricky + ".gauge").set(2);
  obs::Registry::global().histogram(tricky + ".hist").record(7);
  const std::vector<std::string> lines =
      obs::snapshot_jsonl(obs::Registry::global().snapshot());
  std::size_t found = 0;
  for (const std::string& line : lines) {
    ASSERT_EQ(line.find('\n'), std::string::npos);
    ASSERT_TRUE(is_json_object_line(line)) << line;
    const JsonValue doc = JsonValue::parse(line);
    const std::string& name = doc.at("name").as_string();
    if (name.rfind(tricky, 0) == 0) ++found;
  }
  EXPECT_EQ(found, 3u);
}

TEST(ObsTrace, JsonEscapeForwardsToTheCommonEscaper) {
  // obs::json_escape is a name kept for callers outside src/; it must be
  // the same escaper as orp::json_escape_string on every byte.
  for (int byte = 0; byte < 256; ++byte) {
    const std::string one(1, static_cast<char>(byte));
    EXPECT_EQ(obs::json_escape(one), json_escape_string(one)) << byte;
  }
  EXPECT_EQ(obs::json_escape("a\"b\\c\n\x01"), "a\\\"b\\\\c\\n\\u0001");
  EXPECT_EQ(obs::json_escape(""), "");
}

// ---- flow events through the thread pool --------------------------------

TEST(ObsFlow, ParallelForTasksCarryFlowEvents) {
  const std::string path = temp_path("obs_flow.jsonl");
  ASSERT_TRUE(obs::configure(obs::parse_sink(path)));
  ThreadPool pool(4);
  {
    obs::Span span("submit", "test");
    pool.parallel_for(10000, [](std::size_t) {});
  }
  // Outside any span there is nothing to attribute the tasks to: no flows.
  pool.parallel_for(10000, [](std::size_t) {});
  obs::flush();

  std::vector<std::uint64_t> start_ids, finish_ids;
  for (const std::string& line : read_lines(path)) {
    ASSERT_TRUE(is_json_object_line(line)) << line;
    if (line.find("\"name\":\"threadpool.task\"") == std::string::npos) continue;
    const bool is_start = line.find("\"ph\":\"s\"") != std::string::npos;
    const bool is_finish = line.find("\"ph\":\"f\"") != std::string::npos;
    if (!is_start && !is_finish) continue;
    const JsonValue doc = JsonValue::parse(line);
    const std::uint64_t id =
        static_cast<std::uint64_t>(doc.at("id").as_number());
    EXPECT_NE(id, 0u);
    if (is_start) start_ids.push_back(id);
    if (is_finish) {
      finish_ids.push_back(id);
      // Flow heads bind to the enclosing slice, the binding Perfetto
      // expects for linking the arrow to the worker's task span.
      EXPECT_NE(line.find("\"bp\":\"e\""), std::string::npos) << line;
    }
  }
  // One helper task per worker was enqueued inside the span; every 's'
  // tail has exactly one matching 'f' head, by id.
  EXPECT_FALSE(start_ids.empty());
  std::sort(start_ids.begin(), start_ids.end());
  std::sort(finish_ids.begin(), finish_ids.end());
  EXPECT_EQ(start_ids, finish_ids);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace orp
