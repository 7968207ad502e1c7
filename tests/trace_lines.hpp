#pragma once
// The lines of a JSONL trace that the bit-identity batteries compare run
// against run: the events whose name starts with a prefix ("net." for the
// simulator's telemetry, "annealer." for the search's convergence series),
// without the wall-clock "ts" and the "tid" of the thread that wrote them.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/sink.hpp"

namespace orp {

/// The events of the trace at `path` whose name starts with `prefix`, in
/// file order, with "ts" and "tid" dropped. Trailer records (counter
/// totals, histograms) do not start with a name and are never included.
inline std::vector<std::string> trace_lines(const std::string& path, std::string_view prefix) {
  const std::string head = "{\"name\":\"" + std::string(prefix);
  std::vector<std::string> out;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (!line.starts_with(head)) continue;
    for (const char* key : {"\"ts\":", "\"tid\":"}) {
      const std::size_t at = line.find(key);
      if (at != std::string::npos) line.erase(at, line.find(',', at) + 1 - at);
    }
    out.push_back(line);
  }
  return out;
}

/// Runs `body` with a JSONL trace sink and returns what it returned
/// together with the trace's `prefix` lines (trace_lines). The trace file,
/// named after the running test, is removed.
template <class Body>
auto run_traced(std::string_view prefix, Body&& body) {
  const testing::TestInfo* test = testing::UnitTest::GetInstance()->current_test_info();
  const std::string path = testing::TempDir() + test->test_suite_name() + "." +
                           test->name() + ".trace.jsonl";
  EXPECT_TRUE(obs::configure(obs::parse_sink(path))) << path;
  auto result = body();
  obs::flush();
  obs::configure(obs::SinkConfig{});
  std::vector<std::string> lines = trace_lines(path, prefix);
  std::remove(path.c_str());
  return std::pair{std::move(result), std::move(lines)};
}

}  // namespace orp
