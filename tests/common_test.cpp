#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/env.hpp"
#include "common/flags.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"

namespace reconf {
namespace {

TEST(Types, TickConversionRoundTripsPaperValues) {
  EXPECT_EQ(ticks_from_units(1.26), 126);
  EXPECT_EQ(ticks_from_units(0.95), 95);
  EXPECT_EQ(ticks_from_units(7.0), 700);
  EXPECT_DOUBLE_EQ(units_from_ticks(126), 1.26);
  EXPECT_DOUBLE_EQ(units_from_ticks(95), 0.95);
}

TEST(Types, TickConversionHonorsCustomScale) {
  EXPECT_EQ(ticks_from_units(2.5, 1000), 2500);
  EXPECT_DOUBLE_EQ(units_from_ticks(2500, 1000), 2.5);
}

TEST(Types, TickConversionRoundsToNearest) {
  EXPECT_EQ(ticks_from_units(0.004), 0);   // 0.4 ticks -> 0
  EXPECT_EQ(ticks_from_units(0.006), 1);   // 0.6 ticks -> 1
  EXPECT_EQ(ticks_from_units(-0.006), -1);
}

TEST(Types, DeviceValidity) {
  EXPECT_TRUE(Device{10}.valid());
  EXPECT_FALSE(Device{0}.valid());
  EXPECT_FALSE(Device{-3}.valid());
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); }, 4);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, HandlesZeroIterations) {
  bool called = false;
  parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SingleThreadFallbackPreservesOrder) {
  std::vector<std::size_t> order;
  parallel_for(5, [&](std::size_t i) { order.push_back(i); }, 1);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(
      parallel_for(
          100,
          [](std::size_t i) {
            if (i == 37) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);
}

TEST(ParallelFor, ResultIndependentOfThreadCount) {
  constexpr std::size_t kN = 4096;
  auto run = [&](unsigned threads) {
    std::vector<double> out(kN);
    parallel_for(
        kN, [&](std::size_t i) { out[i] = static_cast<double>(i) * 1.5; },
        threads);
    return std::accumulate(out.begin(), out.end(), 0.0);
  };
  const double expect = run(1);
  EXPECT_DOUBLE_EQ(run(2), expect);
  EXPECT_DOUBLE_EQ(run(8), expect);
}

TEST(Env, Int64FallsBackWhenUnset) {
  ::unsetenv("RECONF_TEST_KNOB");
  EXPECT_EQ(env_int64("RECONF_TEST_KNOB", 42), 42);
}

TEST(Env, Int64ParsesValue) {
  ::setenv("RECONF_TEST_KNOB", "1234", 1);
  EXPECT_EQ(env_int64("RECONF_TEST_KNOB", 42), 1234);
  ::unsetenv("RECONF_TEST_KNOB");
}

TEST(Env, Int64RejectsGarbage) {
  ::setenv("RECONF_TEST_KNOB", "12x", 1);
  EXPECT_EQ(env_int64("RECONF_TEST_KNOB", 7), 7);
  ::unsetenv("RECONF_TEST_KNOB");
}

TEST(Flags, ParseIntReadsDecimalAndHexNeverOctal) {
  EXPECT_EQ(parse_int<int>("42"), 42);
  EXPECT_EQ(parse_int<int>("-42"), -42);
  EXPECT_EQ(parse_int<int>("+7"), 7);
  EXPECT_EQ(parse_int<std::uint64_t>("0xC4A05"), 0xC4A05u);
  EXPECT_EQ(parse_int<std::uint64_t>("0XFFFFFFFFFFFFFFFF"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_int<int>("010"), 10);
  EXPECT_EQ(parse_int<int>("0"), 0);
  EXPECT_EQ(parse_int<long long>("-9223372036854775808"),
            std::numeric_limits<long long>::min());
}

TEST(Flags, ParseIntRejectsPartialAndOutOfRangeValues) {
  for (const char* bad : {"", "abc", "12abc", "1 ", " 1", "0x", "0xg", "--1",
                          "+-1", "1.5", "2147483648"}) {
    EXPECT_FALSE(parse_int<int>(bad).has_value()) << bad;
  }
  EXPECT_FALSE(parse_int<int>("-2147483649").has_value());
  EXPECT_FALSE(parse_int<std::uint64_t>("-1").has_value());
  EXPECT_FALSE(parse_int<std::uint16_t>("65536").has_value());
  EXPECT_FALSE(parse_int<std::uint64_t>("0x10000000000000000").has_value());
}

TEST(Flags, StrAndHasFlagMatchWholeNames) {
  const std::vector<std::string> args = {"--seed=3", "--seeds=9", "--quick",
                                         "--out=", "file", "--seed=4"};
  EXPECT_EQ(flag_str(args, "seed"), "3");  // the first occurrence wins
  EXPECT_EQ(flag_str(args, "seeds"), "9");
  EXPECT_EQ(flag_str(args, "out"), "");    // present with an empty value
  EXPECT_FALSE(flag_str(args, "se").has_value());
  EXPECT_FALSE(flag_str(args, "quick").has_value());
  EXPECT_TRUE(has_flag(args, "quick"));
  EXPECT_FALSE(has_flag(args, "seed"));
  EXPECT_FALSE(has_flag(args, "qui"));
}

TEST(Flags, IntAndDoubleReadValuesAndDefaults) {
  const std::vector<std::string> args = {"--n=0x10", "--us=2.5e1"};
  EXPECT_EQ(flag_int<int>(args, "n"), 16);
  EXPECT_EQ(flag_int<int>(args, "n", 16), 16);
  EXPECT_FALSE(flag_int<int>(args, "width").has_value());
  EXPECT_DOUBLE_EQ(flag_double(args, "us").value(), 25.0);
  EXPECT_FALSE(flag_double(args, "rho").has_value());
}

TEST(FlagsDeathTest, BadValueExitsTwoNamingTheFlag) {
  const std::vector<std::string> args = {"--n=12abc", "--width=0",
                                         "--us=nan", "--seed=-1"};
  EXPECT_EXIT((void)flag_int<int>(args, "n"), ::testing::ExitedWithCode(2),
              "invalid value for --n: '12abc'");
  EXPECT_EXIT((void)flag_int<int>(args, "width", 1),
              ::testing::ExitedWithCode(2), "invalid value for --width: '0'");
  EXPECT_EXIT((void)flag_double(args, "us"), ::testing::ExitedWithCode(2),
              "invalid value for --us: 'nan'");
  EXPECT_EXIT((void)flag_int<std::uint64_t>(args, "seed"),
              ::testing::ExitedWithCode(2), "invalid value for --seed: '-1'");
}

TEST(Flags, KnownFlagMatchesValueAndBareEntries) {
  EXPECT_TRUE(known_flag("--seed=1", {"--seed=", "--emit"}));
  EXPECT_TRUE(known_flag("--emit", {"--seed=", "--emit"}));
  EXPECT_FALSE(known_flag("--emit=1", {"--seed=", "--emit"}));
  EXPECT_FALSE(known_flag("--seed", {"--seed=", "--emit"}));
  EXPECT_FALSE(known_flag("--seeds=1", {"--seed=", "--emit"}));
}

}  // namespace
}  // namespace reconf
