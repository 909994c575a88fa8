/// \file test_common.cpp
/// \brief Unit tests for the common utilities (stats, rng, strings,
/// tables, argparse, thread pool).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>

#include "common/argparse.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/siphash.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"

namespace adept {
namespace {

// ---------------------------------------------------------------- stats --

TEST(Stats, MeanOfConstants) {
  const std::vector<double> xs{3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(stats::mean(xs), 3.0);
}

TEST(Stats, MeanRejectsEmpty) {
  EXPECT_THROW(stats::mean({}), Error);
}

TEST(Stats, StddevKnownValue) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  // Sample stddev of this classic set is sqrt(32/7).
  EXPECT_NEAR(stats::stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, StddevOfSingletonIsZero) {
  const std::vector<double> xs{42.0};
  EXPECT_DOUBLE_EQ(stats::stddev(xs), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 50.0), 25.0);
}

TEST(Stats, PercentileRejectsBadP) {
  EXPECT_THROW(stats::percentile({1.0}, -1.0), Error);
  EXPECT_THROW(stats::percentile({1.0}, 101.0), Error);
}

TEST(Stats, LinearFitRecoversExactLine) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(2.5 * x - 1.0);
  const auto fit = stats::linear_fit(xs, ys);
  EXPECT_NEAR(fit.slope, 2.5, 1e-12);
  EXPECT_NEAR(fit.intercept, -1.0, 1e-12);
  EXPECT_NEAR(fit.correlation, 1.0, 1e-12);
  EXPECT_NEAR(fit(10.0), 24.0, 1e-12);
}

TEST(Stats, LinearFitCorrelationSignMatchesSlope) {
  const std::vector<double> xs{0.0, 1.0, 2.0, 3.0};
  const std::vector<double> ys{9.0, 6.0, 5.0, 0.0};
  const auto fit = stats::linear_fit(xs, ys);
  EXPECT_LT(fit.slope, 0.0);
  EXPECT_LT(fit.correlation, 0.0);
  EXPECT_GE(fit.correlation, -1.0);
}

TEST(Stats, LinearFitRejectsDegenerateInput) {
  EXPECT_THROW(stats::linear_fit(std::vector<double>{1.0},
                                 std::vector<double>{2.0}),
               Error);
  EXPECT_THROW(stats::linear_fit(std::vector<double>{1.0, 1.0},
                                 std::vector<double>{2.0, 3.0}),
               Error);
}

TEST(Stats, OnlineMatchesBatch) {
  const std::vector<double> xs{1.5, -2.0, 7.25, 0.0, 3.5, 3.5};
  stats::OnlineStats online;
  for (double x : xs) online.add(x);
  EXPECT_EQ(online.count(), xs.size());
  EXPECT_NEAR(online.mean(), stats::mean(xs), 1e-12);
  EXPECT_NEAR(online.stddev(), stats::stddev(xs), 1e-12);
  EXPECT_DOUBLE_EQ(online.min(), -2.0);
  EXPECT_DOUBLE_EQ(online.max(), 7.25);
}

TEST(Stats, OnlineEmptyIsZero) {
  stats::OnlineStats online;
  EXPECT_EQ(online.count(), 0u);
  EXPECT_DOUBLE_EQ(online.mean(), 0.0);
  EXPECT_DOUBLE_EQ(online.variance(), 0.0);
}

// ------------------------------------------------------------------ rng --

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(0, 9));
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 9);
}

TEST(Rng, UniformRejectsInvertedRange) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform(5.0, 2.0), Error);
  EXPECT_THROW(rng.uniform_int(5, 2), Error);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(55);
  Rng child = a.split();
  // The child stream must not mirror the parent from here on.
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == child()) ++equal;
  EXPECT_LT(equal, 3);
}

// -------------------------------------------------------------- strings --

TEST(Strings, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(strings::trim("  hello\t\n"), "hello");
  EXPECT_EQ(strings::trim(""), "");
  EXPECT_EQ(strings::trim("   "), "");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = strings::split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitWsDropsEmptyFields) {
  const auto parts = strings::split_ws("  alpha \t beta\ngamma ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "alpha");
  EXPECT_EQ(parts[2], "gamma");
}

TEST(Strings, ParseDoubleAcceptsScientific) {
  EXPECT_DOUBLE_EQ(*strings::parse_double(" 5.3e-3 "), 5.3e-3);
  EXPECT_FALSE(strings::parse_double("5.3x").has_value());
  EXPECT_FALSE(strings::parse_double("").has_value());
}

TEST(Strings, ParseIntRejectsTrailingGarbage) {
  EXPECT_EQ(*strings::parse_int("42"), 42);
  EXPECT_FALSE(strings::parse_int("42.5").has_value());
  EXPECT_FALSE(strings::parse_int("x").has_value());
}

TEST(Strings, JoinAndLower) {
  EXPECT_EQ(strings::join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(strings::to_lower("MiXeD"), "mixed");
}

// ---------------------------------------------------------------- table --

TEST(Table, AlignsColumns) {
  Table table("demo");
  table.set_header({"name", "value"});
  table.add_row({"x", "1"});
  table.add_row({"longer", "22"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow) {
  Table table;
  table.set_header({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), Error);
}

TEST(Table, CsvQuotesSpecialCharacters) {
  Table table;
  table.set_header({"a", "b"});
  table.add_row({"x,y", "with \"quote\""});
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"with \"\"quote\"\"\""), std::string::npos);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(7ll), "7");
}

// ------------------------------------------------------------- argparse --

TEST(ArgParse, ParsesOptionsFlagsAndPositionals) {
  ArgParser parser("prog");
  parser.add_positional("input", "input file");
  parser.add_option("count", "how many", "10");
  parser.add_flag("verbose", "chatty");
  parser.parse({"file.txt", "--count", "5", "--verbose"});
  EXPECT_EQ(parser.get("input"), "file.txt");
  EXPECT_EQ(parser.get_int("count"), 5);
  EXPECT_TRUE(parser.get_flag("verbose"));
}

TEST(ArgParse, EqualsSyntaxAndDefaults) {
  ArgParser parser("prog");
  parser.add_option("rate", "a rate", "1.5");
  parser.parse({"--rate=2.25"});
  EXPECT_DOUBLE_EQ(parser.get_double("rate"), 2.25);

  ArgParser defaults("prog");
  defaults.add_option("rate", "a rate", "1.5");
  defaults.parse({});
  EXPECT_DOUBLE_EQ(defaults.get_double("rate"), 1.5);
}

TEST(ArgParse, RejectsUnknownOptionAndMissingPositional) {
  ArgParser parser("prog");
  parser.add_positional("input", "input file");
  EXPECT_THROW(parser.parse({"--bogus"}), Error);
  ArgParser parser2("prog");
  parser2.add_positional("input", "input file");
  EXPECT_THROW(parser2.parse({}), Error);
}

TEST(ArgParse, FlagRejectsValue) {
  ArgParser parser("prog");
  parser.add_flag("verbose", "chatty");
  EXPECT_THROW(parser.parse({"--verbose=yes"}), Error);
}

// ---------------------------------------------------------- thread pool --

TEST(ThreadPool, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; }, 4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroCountIsNoop) {
  parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; }, 4);
}

TEST(ThreadPool, ParallelForSingleThreadIsSequential) {
  std::vector<std::size_t> order;
  parallel_for(5, [&](std::size_t i) { order.push_back(i); }, 1);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

// ---------------------------------------------------------------- units --

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(units::mflop_from_flops(2e9), 2000.0);
  EXPECT_DOUBLE_EQ(units::mbit_from_bytes(1e6 / 8.0), 1.0);
}

// ---------------------------------------------------------------- error --

/// The text of the adept::Error `fn` throws.
template <typename Fn>
std::string thrown_text(Fn fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "no throw";
}

TEST(Error, ChecksThrowTheirMessageAndAssertsTheirLocation) {
  // A user-facing check's text reaches clients: its message alone, or the
  // expression when it has none — never a source path or line.
  EXPECT_EQ(thrown_text([] { ADEPT_CHECK(1 == 2, "math is broken"); }),
            "math is broken");
  EXPECT_EQ(thrown_text([] { ADEPT_CHECK(1 == 2, ""); }), "1 == 2");
  // An internal invariant keeps the expression and its location.
  const std::string internal =
      thrown_text([] { ADEPT_ASSERT(1 == 2, "math is broken"); });
  EXPECT_EQ(internal.rfind("check failed: 1 == 2 at ", 0), 0u) << internal;
  EXPECT_NE(internal.find("test_common.cpp:"), std::string::npos) << internal;
  EXPECT_NE(internal.find(" — internal: math is broken"), std::string::npos)
      << internal;
}


// ----------------------------------------------------------------- SipHash --

TEST(SipHash, MatchesThePublishedReferenceVector) {
  // Aumasson & Bernstein's SipHash-2-4 test vector: key 00..0f, message
  // 00..0e (15 bytes) -> a129ca6149be45e5.
  const SipKey key{0x0706050403020100ull, 0x0f0e0d0c0b0a0908ull};
  std::string message;
  for (char c = 0; c < 15; ++c) message.push_back(c);
  SipHasher whole(key);
  whole.update(message);
  EXPECT_EQ(whole.digest(), 0xa129ca6149be45e5ull);
  // Any chunking of the message gives the same hash.
  for (std::size_t cut = 0; cut <= message.size(); ++cut) {
    SipHasher split(key);
    split.update(std::string_view(message).substr(0, cut));
    split.update(std::string_view(message).substr(cut));
    EXPECT_EQ(split.digest(), 0xa129ca6149be45e5ull) << cut;
  }
  SipHasher bytewise(key);
  for (const char c : message) bytewise.update(std::string_view(&c, 1));
  EXPECT_EQ(bytewise.digest(), 0xa129ca6149be45e5ull);
}

TEST(SipHash, ProcessKeysAreStableAndDistinct) {
  const SipKey first = process_sip_key(0);
  const SipKey second = process_sip_key(1);
  EXPECT_EQ(process_sip_key(0).k0, first.k0);
  EXPECT_EQ(process_sip_key(0).k1, first.k1);
  EXPECT_FALSE(first.k0 == second.k0 && first.k1 == second.k1);
  EXPECT_THROW(process_sip_key(2), Error);
}

}  // namespace
}  // namespace adept
