// Tests for the cross-run ledger (src/obs/ledger): path resolution from
// $ORP_RUN_LEDGER, single-write O_APPEND line appends that stay intact
// under concurrent writers, and the once-per-process run record.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "obs/ledger.hpp"

namespace orp {
namespace {

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(ObsLedger, PathResolvesFromEnvironment) {
  ::setenv("ORP_RUN_LEDGER", "/tmp/custom.jsonl", 1);
  EXPECT_EQ(obs::ledger_path(), "/tmp/custom.jsonl");
  ::setenv("ORP_RUN_LEDGER", "none", 1);
  EXPECT_TRUE(obs::ledger_path().empty());
  ::setenv("ORP_RUN_LEDGER", "off", 1);
  EXPECT_TRUE(obs::ledger_path().empty());
  ::setenv("ORP_RUN_LEDGER", "", 1);
  EXPECT_TRUE(obs::ledger_path().empty());
  ::unsetenv("ORP_RUN_LEDGER");
  EXPECT_EQ(obs::ledger_path(), obs::kDefaultLedgerPath);
}

TEST(ObsLedger, AppendCreatesParentDirectories) {
  const std::string path =
      testing::TempDir() + "ledger_nested/deeper/runs.jsonl";
  ASSERT_TRUE(obs::ledger_append_line(path, "{\"a\":1}"));
  ASSERT_TRUE(obs::ledger_append_line(path, "{\"b\":2}"));
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{\"a\":1}");
  EXPECT_EQ(lines[1], "{\"b\":2}");
  std::remove(path.c_str());
}

TEST(ObsLedger, ConcurrentWritersNeverTearLines) {
  // Every record is one O_APPEND write(); with 8 threads racing 200
  // appends each, all 1600 lines must come back intact — a torn line
  // would change its length or payload.
  const std::string path = testing::TempDir() + "ledger_concurrent.jsonl";
  std::remove(path.c_str());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  const std::string payload(256, 'x');
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string line = "{\"writer\":" + std::to_string(t) +
                                 ",\"seq\":" + std::to_string(i) +
                                 ",\"pad\":\"" + payload + "\"}";
        ASSERT_TRUE(obs::ledger_append_line(path, line));
      }
    });
  }
  for (std::thread& w : writers) w.join();

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kThreads * kPerThread));
  std::vector<int> seen(kThreads, 0);
  for (const std::string& line : lines) {
    const JsonValue doc = JsonValue::parse(line);  // throws on a torn line
    const double writer = doc.at("writer").as_number();
    ASSERT_GE(writer, 0);
    ASSERT_LT(writer, kThreads);
    EXPECT_EQ(doc.at("pad").as_string(), payload);
    ++seen[static_cast<std::size_t>(writer)];
  }
  for (const int count : seen) EXPECT_EQ(count, kPerThread);
  std::remove(path.c_str());
}

TEST(ObsLedger, AppendRunLedgerWritesOneParsableRecord) {
  const std::string path = testing::TempDir() + "ledger_run.jsonl";
  std::remove(path.c_str());
  ::setenv("ORP_RUN_LEDGER", path.c_str(), 1);

  const char* argv[] = {"/usr/bin/fake_tool", "--obs-out", "t.jsonl"};
  obs::ledger_capture_argv(3, argv);
  obs::ledger_note("instance", "n256_r12");
  obs::ledger_note("best_haspl", 4.125);
  obs::ledger_note("iters", static_cast<std::int64_t>(5000));
  obs::ledger_note("instance", "n512_r8");  // last write per key wins
  obs::ledger_artifact("out/result.csv");

  ASSERT_TRUE(obs::append_run_ledger());
  // The record is appended at most once per process.
  ASSERT_TRUE(obs::append_run_ledger());
  ::unsetenv("ORP_RUN_LEDGER");

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  const JsonValue doc = JsonValue::parse(lines[0]);
  EXPECT_EQ(doc.at("schema").as_string(), obs::kLedgerSchema);
  EXPECT_EQ(doc.at("tool").as_string(), "fake_tool");  // basename of argv[0]
  ASSERT_TRUE(doc.at("argv").is_array());
  ASSERT_EQ(doc.at("argv").items().size(), 3u);
  EXPECT_EQ(doc.at("argv").items()[1].as_string(), "--obs-out");
  EXPECT_FALSE(doc.at("git_sha").as_string().empty());
  EXPECT_FALSE(doc.at("compiler").as_string().empty());
  EXPECT_GE(doc.at("wall_s").as_number(), 0.0);
  EXPECT_GT(doc.at("peak_rss_kb").as_number(), 0.0);
  const JsonValue& notes = doc.at("notes");
  ASSERT_TRUE(notes.is_object());
  EXPECT_EQ(notes.at("instance").as_string(), "n512_r8");
  EXPECT_DOUBLE_EQ(notes.at("best_haspl").as_number(), 4.125);
  EXPECT_DOUBLE_EQ(notes.at("iters").as_number(), 5000.0);
  bool saw_artifact = false;
  for (const JsonValue& item : doc.at("artifacts").items()) {
    if (item.as_string() == "out/result.csv") saw_artifact = true;
  }
  EXPECT_TRUE(saw_artifact);
  // The timestamp is ISO-8601 UTC: "YYYY-MM-DDTHH:MM:SSZ".
  const std::string& ts = doc.at("ts").as_string();
  ASSERT_EQ(ts.size(), 20u);
  EXPECT_EQ(ts[4], '-');
  EXPECT_EQ(ts[10], 'T');
  EXPECT_EQ(ts[19], 'Z');
  std::remove(path.c_str());
}

}  // namespace
}  // namespace orp

