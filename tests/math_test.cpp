#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "math/checked.hpp"
#include "math/gcd_lcm.hpp"
#include "math/intdiv.hpp"
#include "math/rational.hpp"
#include "math/stats.hpp"

namespace reconf::math {
namespace {

TEST(IntDiv, FloorDivMatchesTruncationForNonNegative) {
  EXPECT_EQ(floor_div(0, 3), 0);
  EXPECT_EQ(floor_div(6, 3), 2);
  EXPECT_EQ(floor_div(7, 3), 2);
  EXPECT_EQ(floor_div(1, 700), 0);
}

TEST(IntDiv, FloorDivRoundsNegativeNumeratorsDown) {
  // The N_i window count ⌊(D_k − D_i)/T_i⌋ hits these when D_k < D_i:
  // truncation would give 0, mathematical floor must give −1.
  EXPECT_EQ(floor_div(-1, 3), -1);
  EXPECT_EQ(floor_div(-3, 3), -1);
  EXPECT_EQ(floor_div(-4, 3), -2);
  EXPECT_EQ(floor_div(-699, 700), -1);
  EXPECT_EQ(floor_div(-700, 700), -1);
  EXPECT_EQ(floor_div(-701, 700), -2);
}

TEST(IntDiv, FloorDivIsConstexpr) {
  static_assert(floor_div(-1, 2) == -1);
  static_assert(floor_div(5, 2) == 2);
}

TEST(Checked, AddDetectsOverflow) {
  EXPECT_EQ(checked_add(2, 3), 5);
  EXPECT_FALSE(checked_add(std::numeric_limits<std::int64_t>::max(), 1));
  EXPECT_FALSE(checked_add(std::numeric_limits<std::int64_t>::min(), -1));
}

TEST(Checked, MulDetectsOverflow) {
  EXPECT_EQ(checked_mul(1'000'000, 1'000'000), 1'000'000'000'000);
  EXPECT_FALSE(checked_mul(std::numeric_limits<std::int64_t>::max(), 2));
}

TEST(GcdLcm, Basics) {
  EXPECT_EQ(gcd64(12, 18), 6);
  EXPECT_EQ(gcd64(0, 7), 7);
  EXPECT_EQ(lcm64(4, 6), 12);
  EXPECT_EQ(lcm64(0, 5), 0);
}

TEST(GcdLcm, LcmOverflowIsDetected) {
  const std::int64_t big = (std::int64_t{1} << 62) + 1;  // odd
  EXPECT_FALSE(lcm64(big, big - 2));                     // coprime-ish, huge
}

TEST(GcdLcm, LcmAllComputesHyperperiod) {
  const std::vector<std::int64_t> periods{700, 500};
  EXPECT_EQ(lcm_all(periods), 3500);
}

TEST(GcdLcm, LcmAllEmptyIsOne) {
  EXPECT_EQ(lcm_all(std::vector<std::int64_t>{}), 1);
}

TEST(Rational, NormalizesOnConstruction) {
  const Rational r(6, 8);
  EXPECT_EQ(r.num(), 3);
  EXPECT_EQ(r.den(), 4);
  const Rational n(3, -4);
  EXPECT_EQ(n.num(), -3);
  EXPECT_EQ(n.den(), 4);
  const Rational z(0, 17);
  EXPECT_EQ(z.num(), 0);
  EXPECT_EQ(z.den(), 1);
}

TEST(Rational, ArithmeticIsExact) {
  const Rational a(1, 3);
  const Rational b(1, 6);
  EXPECT_EQ(a + b, Rational(1, 2));
  EXPECT_EQ(a - b, Rational(1, 6));
  EXPECT_EQ(a * b, Rational(1, 18));
  EXPECT_EQ(a / b, Rational(2));
}

TEST(Rational, ComparisonUsesCrossMultiplication) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_GT(Rational(-1, 3), Rational(-1, 2));
  EXPECT_EQ(Rational(2, 4), Rational(1, 2));
  // Values whose double representations collide still compare exactly:
  const Rational x(10'000'000'000'000'001, 10'000'000'000'000'000);
  EXPECT_GT(x, Rational(1));
}

TEST(Rational, PaperUtilizationValuesAreExact) {
  // u1 = 1.26/7 = 126/700 = 9/50, u2 = 0.95/5 = 95/500 = 19/100 (Table 1).
  const Rational u1(126, 700);
  const Rational u2(95, 500);
  EXPECT_EQ(u1, Rational(9, 50));
  EXPECT_EQ(u2, Rational(19, 100));
  // U_S = 9*u1 + 6*u2 = 81/50 + 114/100 = 276/100 = 69/25.
  const Rational us = Rational(9) * u1 + Rational(6) * u2;
  EXPECT_EQ(us, Rational(69, 25));
}

TEST(Rational, UnaryMinusAndCompoundOps) {
  Rational r(3, 4);
  r += Rational(1, 4);
  EXPECT_EQ(r, Rational(1));
  r -= Rational(1, 2);
  EXPECT_EQ(r, Rational(1, 2));
  r *= Rational(4);
  EXPECT_EQ(r, Rational(2));
  r /= Rational(-8);
  EXPECT_EQ(r, Rational(-1, 4));
  EXPECT_EQ(-r, Rational(1, 4));
}

TEST(Rational, StreamsHumanReadably) {
  std::ostringstream os;
  os << Rational(3, 7) << " " << Rational(5);
  EXPECT_EQ(os.str(), "3/7 5");
}

TEST(Rational, MinMaxHelpers) {
  EXPECT_EQ(rmin(Rational(1, 3), Rational(1, 2)), Rational(1, 3));
  EXPECT_EQ(rmax(Rational(1, 3), Rational(1, 2)), Rational(1, 2));
}

TEST(WilsonInterval, BracketsTheProportion) {
  const auto iv = wilson_interval(80, 100);
  EXPECT_LT(iv.lo, 0.8);
  EXPECT_GT(iv.hi, 0.8);
  EXPECT_GT(iv.lo, 0.70);
  EXPECT_LT(iv.hi, 0.88);
}

TEST(WilsonInterval, DegenerateCases) {
  const auto empty = wilson_interval(0, 0);
  EXPECT_EQ(empty.lo, 0.0);
  EXPECT_EQ(empty.hi, 1.0);
  const auto zero = wilson_interval(0, 50);
  EXPECT_EQ(zero.lo, 0.0);
  EXPECT_GT(zero.hi, 0.0);
  const auto one = wilson_interval(50, 50);
  EXPECT_EQ(one.hi, 1.0);
  EXPECT_LT(one.lo, 1.0);
}

}  // namespace
}  // namespace reconf::math
