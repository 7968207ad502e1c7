// Tests for host-switch graph serialization.
#include <gtest/gtest.h>

#include <sstream>

#include "common/prng.hpp"
#include "hsg/io.hpp"
#include "search/random_init.hpp"

namespace orp {
namespace {

TEST(HsgIo, RoundTripsSmallGraph) {
  HostSwitchGraph g(3, 2, 4);
  g.attach_host(0, 0);
  g.attach_host(1, 1);
  g.attach_host(2, 1);
  g.add_switch_edge(0, 1);

  std::stringstream buffer;
  write_hsg(buffer, g);
  const auto parsed = read_hsg(buffer);
  parsed.check_invariants();
  EXPECT_TRUE(parsed == g);
}

TEST(HsgIo, RoundTripsRandomGraphs) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    Xoshiro256 rng(seed);
    const auto g = random_host_switch_graph(64, 16, 8, rng);
    std::stringstream buffer;
    write_hsg(buffer, g);
    const auto parsed = read_hsg(buffer);
    parsed.check_invariants();
    EXPECT_TRUE(parsed == g) << "seed=" << seed;
  }
}

TEST(HsgIo, SkipsCommentsAndBlankLines) {
  std::istringstream in(
      "# a comment\n"
      "hsg 2 2 4\n"
      "\n"
      "H 0 0  # trailing comment\n"
      "H 1 1\n"
      "S 0 1\n");
  const auto g = read_hsg(in);
  EXPECT_EQ(g.num_hosts(), 2u);
  EXPECT_TRUE(g.has_switch_edge(0, 1));
}

TEST(HsgIo, RejectsMissingHeader) {
  std::istringstream in("H 0 0\n");
  EXPECT_THROW(read_hsg(in), std::invalid_argument);
}

TEST(HsgIo, RejectsDuplicateHeader) {
  std::istringstream in("hsg 2 2 4\nhsg 2 2 4\n");
  EXPECT_THROW(read_hsg(in), std::invalid_argument);
}

TEST(HsgIo, RejectsOutOfRangeIds) {
  std::istringstream in("hsg 2 2 4\nH 5 0\n");
  EXPECT_THROW(read_hsg(in), std::invalid_argument);
  std::istringstream in2("hsg 2 2 4\nS 0 9\n");
  EXPECT_THROW(read_hsg(in2), std::invalid_argument);
}

TEST(HsgIo, RejectsRadixViolation) {
  std::istringstream in(
      "hsg 4 2 3\n"
      "H 0 0\nH 1 0\nH 2 0\nH 3 0\n");  // 4 hosts on a radix-3 switch
  EXPECT_THROW(read_hsg(in), std::invalid_argument);
}

TEST(HsgIo, RejectsDuplicateEdgeAndSelfLoop) {
  std::istringstream in("hsg 1 2 4\nS 0 1\nS 1 0\n");
  EXPECT_THROW(read_hsg(in), std::invalid_argument);
  std::istringstream in2("hsg 1 2 4\nS 1 1\n");
  EXPECT_THROW(read_hsg(in2), std::invalid_argument);
}

TEST(HsgIo, RejectsUnknownTag) {
  std::istringstream in("hsg 1 1 4\nX 0 0\n");
  EXPECT_THROW(read_hsg(in), std::invalid_argument);
}

// Every parse error must carry the 1-based line number of the offending
// line so malformed files are debuggable.
void expect_fail_at_line(const std::string& text, std::size_t line) {
  std::istringstream in(text);
  try {
    read_hsg(in);
    FAIL() << "expected parse failure for: " << text;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line " + std::to_string(line)),
              std::string::npos)
        << "wrong line in: " << e.what();
  }
}

TEST(HsgIo, ErrorsReportTheOffendingLine) {
  expect_fail_at_line("hsg 2 2 4\nH 0 0\nH 0 1\n", 3);   // duplicate attach
  expect_fail_at_line("hsg 2 2 4\n\n# c\nS 0 0\n", 4);   // self-loop
  expect_fail_at_line("hsg 2 2\n", 1);                   // short header
}

TEST(HsgIo, RejectsTrailingJunk) {
  std::istringstream in("hsg 2 2 4 junk\n");
  EXPECT_THROW(read_hsg(in), std::invalid_argument);
  std::istringstream in2("hsg 2 2 4\nH 0 0 7\n");
  EXPECT_THROW(read_hsg(in2), std::invalid_argument);
  std::istringstream in3("hsg 2 2 4\nS 0 1 extra\n");
  EXPECT_THROW(read_hsg(in3), std::invalid_argument);
}

TEST(HsgIo, RejectsNegativeIds) {
  // operator>> into unsigned would wrap -1 to 4294967295; the parser must
  // reject the sign outright instead of reporting a misleading range error.
  std::istringstream in("hsg 2 2 4\nH -1 0\n");
  try {
    read_hsg(in);
    FAIL() << "negative id accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("non-negative"), std::string::npos)
        << e.what();
  }
  std::istringstream in2("hsg -2 2 4\n");
  EXPECT_THROW(read_hsg(in2), std::invalid_argument);
}

TEST(HsgIo, RejectsNonNumericAndOverflowFields) {
  std::istringstream in("hsg 2 2 4\nH zero 0\n");
  EXPECT_THROW(read_hsg(in), std::invalid_argument);
  std::istringstream in2("hsg 2 2 4\nH 1x 0\n");  // partial token
  EXPECT_THROW(read_hsg(in2), std::invalid_argument);
  std::istringstream in3("hsg 2 2 4\nS 99999999999 0\n");  // > uint32
  EXPECT_THROW(read_hsg(in3), std::invalid_argument);
}

TEST(HsgIo, WrapsInfeasibleHeaderWithLineNumber) {
  // (n, m, r) the graph constructor itself rejects must surface as a parse
  // error at line 1, not an unlocated constructor exception.
  expect_fail_at_line("hsg 2 2 0\n", 1);
}

TEST(HsgIo, RejectsHeadersBeyondTheFormatLimits) {
  // Sizing a graph from this 30-byte header used to exhaust memory before
  // any host line was read.
  expect_fail_at_line("hsg 4000000000 4000000000 16\n", 1);
  expect_fail_at_line("# hosts\nhsg " + std::to_string(kMaxHsgHosts + 1) + " 4 16\n", 2);
  expect_fail_at_line("hsg 8 " + std::to_string(kMaxHsgSwitches + 1) + " 16\n", 1);
  std::istringstream at_limit("hsg 2 " + std::to_string(kMaxHsgSwitches) + " 4\n");
  EXPECT_EQ(read_hsg(at_limit).num_switches(), kMaxHsgSwitches);
}

TEST(HsgIo, AcceptsWindowsLineEndings) {
  std::istringstream in("hsg 2 2 4\r\nH 0 0\r\nH 1 1\r\nS 0 1\r\n");
  const auto g = read_hsg(in);
  EXPECT_EQ(g.num_hosts(), 2u);
  EXPECT_TRUE(g.has_switch_edge(0, 1));
}

TEST(HsgIo, EdgelistRoundTripsAndRejectsGarbage) {
  // Ring on 4 vertices.
  std::istringstream in("0 1\n1 2\n2 3\n0 3\n");
  const auto g = read_edgelist(in, 4, 3);
  EXPECT_TRUE(g.has_switch_edge(0, 1));
  EXPECT_TRUE(g.has_switch_edge(0, 3));

  // A non-numeric line must be an error, not silently skipped.
  std::istringstream bad("0 1\nnot an edge\n");
  EXPECT_THROW(read_edgelist(bad, 4, 3), std::invalid_argument);
  std::istringstream junk("0 1 2\n");
  EXPECT_THROW(read_edgelist(junk, 4, 3), std::invalid_argument);
  std::istringstream neg("0 -1\n");
  EXPECT_THROW(read_edgelist(neg, 4, 3), std::invalid_argument);
  std::istringstream lonely("0\n");
  EXPECT_THROW(read_edgelist(lonely, 4, 3), std::invalid_argument);
}

TEST(HsgIo, DotContainsAllVertices) {
  HostSwitchGraph g(2, 2, 4);
  g.attach_host(0, 0);
  g.attach_host(1, 1);
  g.add_switch_edge(0, 1);
  std::ostringstream os;
  write_dot(os, g);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("h0 -- s0"), std::string::npos);
  EXPECT_NE(dot.find("h1 -- s1"), std::string::npos);
  EXPECT_NE(dot.find("s0 -- s1"), std::string::npos);
}

}  // namespace
}  // namespace orp
