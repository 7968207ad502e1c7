// Tests for the common substrate: PRNG, thread pool, tables, CLI.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/prng.hpp"
#include "common/require.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"

namespace orp {
namespace {

TEST(Prng, DeterministicForEqualSeeds) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Prng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(Prng, BelowStaysInRange) {
  Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Prng, BelowCoversAllResidues) {
  Xoshiro256 rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Prng, BetweenInclusiveBounds) {
  Xoshiro256 rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.between(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Prng, UniformInHalfOpenUnitInterval) {
  Xoshiro256 rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Prng, ShuffleIsAPermutation) {
  Xoshiro256 rng(17);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto original = v;
  shuffle(v, rng);
  EXPECT_NE(v, original);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Prng, SplitProducesIndependentStream) {
  Xoshiro256 parent(23);
  Xoshiro256 child = parent.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (parent() == child());
  EXPECT_LT(equal, 3);
}

TEST(ThreadPool, ParallelForTouchesEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroCountIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 37) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ReusableAfterException) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(10, [](std::size_t) { throw std::runtime_error("x"); });
  } catch (const std::runtime_error&) {
  }
  std::atomic<int> sum{0};
  pool.parallel_for(10, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, NestedParallelForOnWorkersRunsInline) {
  // Every outer body issues an inner parallel_for on the same pool. Were a
  // worker's inner loop queued as helper tasks, both workers could wait on
  // helpers that only they could run.
  ThreadPool pool(2);
  constexpr std::size_t kOuter = 64, kInner = 64;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.parallel_for(kOuter, [&](std::size_t i) {
    pool.parallel_for(kInner, [&](std::size_t j) { hits[i * kInner + j].fetch_add(1); });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_FALSE(pool.on_worker_thread());  // the test thread is no worker
}

TEST(ThreadPool, WorksWithZeroWorkers) {
  ThreadPool pool(0);  // caller-only execution still valid
  std::atomic<int> sum{0};
  pool.parallel_for(5, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 10);
}

TEST(FormatDouble, TrimsTrailingZeros) {
  EXPECT_EQ(format_double(3.14, 4), "3.14");
  EXPECT_EQ(format_double(2.0, 4), "2");
  EXPECT_EQ(format_double(0.5, 2), "0.5");
  EXPECT_EQ(format_double(-0.0001, 2), "0");
}

TEST(FormatDouble, HandlesNonFinite) {
  EXPECT_EQ(format_double(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(format_double(-std::numeric_limits<double>::infinity()), "-inf");
  EXPECT_EQ(format_double(std::nan("")), "nan");
}

TEST(Table, PrintsAlignedColumns) {
  Table t({"m", "h-ASPL"});
  t.row().add(8).add(2.858);
  t.row().add(194).add(3.51);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("m"), std::string::npos);
  EXPECT_NE(out.find("2.858"), std::string::npos);
  EXPECT_NE(out.find("194"), std::string::npos);
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"name", "note"});
  t.row().add("a,b").add("say \"hi\"");
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "name,note\n\"a,b\",\"say \"\"hi\"\"\"\n");
}

TEST(Cli, ParsesOptionsAndFlags) {
  CliParser cli("prog", "test");
  cli.option("n", "1024", "hosts").option("radix", "", "ports").flag("verbose", "talk");
  const char* argv[] = {"prog", "--n", "128", "--radix=24", "--verbose", "pos1"};
  ASSERT_TRUE(cli.parse(6, argv));
  EXPECT_EQ(cli.get_int("n"), 128);
  EXPECT_EQ(cli.get_int("radix"), 24);
  EXPECT_TRUE(cli.has("verbose"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, DefaultsApplyWhenAbsent) {
  CliParser cli("prog", "test");
  cli.option("n", "1024", "hosts");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("n"), 1024);
}

TEST(Cli, RejectsUnknownOption) {
  CliParser cli("prog", "test");
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_THROW(cli.parse(3, argv), std::invalid_argument);
}

TEST(Cli, RejectsMalformedInteger) {
  CliParser cli("prog", "test");
  cli.option("n", "", "hosts");
  const char* argv[] = {"prog", "--n", "12x"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_THROW(cli.get_int("n"), std::invalid_argument);

  // Junk, signs where none belong, whitespace and overflow all throw
  // std::invalid_argument naming the option; nothing wraps.
  const auto rejects = [](const char* value, auto read) {
    CliParser hostile("prog", "test");
    hostile.option("n", "", "hosts");
    const char* args[] = {"prog", "--n", value};
    ASSERT_TRUE(hostile.parse(3, args));
    try {
      read(hostile);
      ADD_FAILURE() << "accepted --n " << value;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--n"), std::string::npos) << e.what();
    }
  };
  const auto as_int = [](const CliParser& c) { return c.get_int("n"); };
  const auto as_u32 = [](const CliParser& c) { return c.get_uint<std::uint32_t>("n"); };
  const auto as_int_count = [](const CliParser& c) { return c.get_uint<int>("n"); };
  const auto as_double = [](const CliParser& c) { return c.get_double("n"); };
  for (const char* value :
       {"abc", "", " 5", "5 ", "+5", "0x10", "99999999999999999999"}) {
    rejects(value, as_int);
    rejects(value, as_u32);
  }
  for (const char* value : {"-5", "-0", "4294967296", "4294967297"}) {
    rejects(value, as_u32);
  }
  rejects("2147483648", as_int_count);
  rejects("-1", as_int_count);
  for (const char* value : {"abc", "", "1.5x", " 1.5", "1e999", "nan", "inf", "-inf"}) {
    rejects(value, as_double);
  }
}

TEST(Cli, ReadsInRangeNumbers) {
  CliParser cli("prog", "test");
  cli.option("a", "-7", "").option("b", "4294967295", "").option("c", "2.5e-3", "");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("a"), -7);
  EXPECT_EQ(cli.get_uint<std::uint32_t>("b"), 4294967295u);
  EXPECT_EQ(cli.get_uint<std::uint64_t>("b"), 4294967295u);
  EXPECT_DOUBLE_EQ(cli.get_double("c"), 2.5e-3);
}

TEST(Require, ThrowsWithMessage) {
  try {
    ORP_REQUIRE(1 == 2, "math broke");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("math broke"), std::string::npos);
  }
}

TEST(Json, ParsesNestedDocument) {
  const JsonValue doc = JsonValue::parse(
      "{\"schema\": \"orp-bench/1\", \"quick\": true, \"rss\": 1234,\n"
      "  \"benchmarks\": [{\"name\": \"aspl.x\", \"ns\": 12.5},\n"
      "                   {\"name\": \"sim.y\", \"ns\": -3e2}],\n"
      "  \"none\": null}");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("schema").as_string(), "orp-bench/1");
  EXPECT_TRUE(doc.at("quick").as_bool());
  EXPECT_EQ(doc.at("rss").as_number(), 1234.0);
  EXPECT_TRUE(doc.at("none").is_null());
  const auto& benchmarks = doc.at("benchmarks").items();
  ASSERT_EQ(benchmarks.size(), 2u);
  EXPECT_EQ(benchmarks[0].at("name").as_string(), "aspl.x");
  EXPECT_DOUBLE_EQ(benchmarks[0].at("ns").as_number(), 12.5);
  EXPECT_DOUBLE_EQ(benchmarks[1].at("ns").as_number(), -300.0);
  // Objects preserve insertion order (the canonical schema relies on it).
  EXPECT_EQ(doc.members()[0].first, "schema");
  EXPECT_EQ(doc.members()[4].first, "none");
}

TEST(Json, DecodesStringEscapes) {
  const JsonValue v =
      JsonValue::parse("\"tab\\t quote\\\" slash\\\\ nl\\n\"");
  EXPECT_EQ(v.as_string(), "tab\t quote\" slash\\ nl\n");
}

TEST(Json, EscapeStringRoundTripsThroughParse) {
  const std::string raw = "a,\"b\"\n\tc\\d";
  const JsonValue v = JsonValue::parse("\"" + json_escape_string(raw) + "\"");
  EXPECT_EQ(v.as_string(), raw);
}

TEST(Json, FindAndAtDistinguishMissingKeys) {
  const JsonValue doc = JsonValue::parse("{\"a\": 1}");
  ASSERT_NE(doc.find("a"), nullptr);
  EXPECT_EQ(doc.find("b"), nullptr);
  EXPECT_THROW(doc.at("b"), std::runtime_error);
  EXPECT_THROW(doc.at("a").as_string(), std::runtime_error);  // kind mismatch
}

TEST(Json, RejectsMalformedDocuments) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\" 1}", "tru", "1 2",
                          "\"unterminated", "{\"a\":1,}", "nan"}) {
    EXPECT_THROW(JsonValue::parse(bad), std::runtime_error) << bad;
  }
}

TEST(Json, RejectsNestingPastTheDepthCap) {
  // 512 levels parse; one more is an error, and a million levels must be
  // rejected rather than recursed into (a stack overflow).
  const std::string ok = std::string(512, '[') + std::string(512, ']');
  EXPECT_NO_THROW(JsonValue::parse(ok));
  EXPECT_THROW(JsonValue::parse("[" + ok + "]"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse(std::string(1 << 20, '[')), std::runtime_error);
  EXPECT_THROW(JsonValue::parse(std::string(1 << 20, '{')), std::runtime_error);
}

TEST(Json, BuildsDocumentsProgrammatically) {
  JsonValue arr = JsonValue::make_array();
  arr.push_back(JsonValue::make_number(1.0));
  arr.push_back(JsonValue::make_string("two"));
  JsonValue obj = JsonValue::make_object();
  obj.set("list", std::move(arr));
  obj.set("flag", JsonValue::make_bool(false));
  EXPECT_EQ(obj.at("list").items().size(), 2u);
  EXPECT_EQ(obj.at("list").items()[1].as_string(), "two");
  EXPECT_FALSE(obj.at("flag").as_bool());
}

TEST(EnvInt, FallsBackWhenUnsetOrInvalid) {
  ::unsetenv("ORP_TEST_ENV_INT");
  EXPECT_EQ(env_int("ORP_TEST_ENV_INT", 7), 7);
  ::setenv("ORP_TEST_ENV_INT", "12", 1);
  EXPECT_EQ(env_int("ORP_TEST_ENV_INT", 7), 12);
  // Anything but positive digits up to INT64_MAX falls back: no sign or
  // whitespace, and an overflow is not saturated to 9.2e18 iterations.
  for (const char* bad : {"bogus", "", "0", "-3", "+12", " 12", "12 ", "12x",
                          "9223372036854775808", "99999999999999999999"}) {
    ::setenv("ORP_TEST_ENV_INT", bad, 1);
    EXPECT_EQ(env_int("ORP_TEST_ENV_INT", 7), 7) << "ORP_TEST_ENV_INT=\"" << bad << "\"";
  }
  ::setenv("ORP_TEST_ENV_INT", "9223372036854775807", 1);
  EXPECT_EQ(env_int("ORP_TEST_ENV_INT", 7), std::numeric_limits<std::int64_t>::max());
  ::unsetenv("ORP_TEST_ENV_INT");
}

}  // namespace
}  // namespace orp
