#include "numeric/rational.h"

#include <gtest/gtest.h>

#include <random>

namespace pfact::numeric {
namespace {

TEST(Rational, NormalizationInvariants) {
  Rational r(BigInt(6), BigInt(-9));
  EXPECT_EQ(r.num().to_int64(), -2);
  EXPECT_EQ(r.den().to_int64(), 3);
  Rational z(BigInt(0), BigInt(17));
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.den().to_int64(), 1);
}

TEST(Rational, ZeroDenominatorThrows) {
  EXPECT_THROW(Rational(BigInt(1), BigInt(0)), std::domain_error);
}

TEST(Rational, FieldAxiomsSpotChecks) {
  Rational a(1, 3), b(1, 6), c(-2, 5);
  EXPECT_EQ(a + b, Rational(1, 2));
  EXPECT_EQ((a + b) + c, a + (b + c));
  EXPECT_EQ(a * (b + c), a * b + a * c);
  EXPECT_EQ(a - a, Rational(0));
  EXPECT_EQ(a * a.reciprocal(), Rational(1));
  EXPECT_EQ(a / b, Rational(2));
}

TEST(Rational, ReciprocalOfZeroThrows) {
  EXPECT_THROW(Rational(0).reciprocal(), std::domain_error);
  EXPECT_THROW(Rational(1) / Rational(0), std::domain_error);
}

TEST(Rational, Ordering) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LT(Rational(-1, 2), Rational(-1, 3));
  EXPECT_GT(Rational(7, 2), Rational(10, 3));
  EXPECT_EQ(Rational(2, 4), Rational(1, 2));
}

TEST(Rational, FromDoubleIsExact) {
  // Every finite double is dyadic; the conversion must be lossless.
  const double cases[] = {0.5, 0.1, 1.0 / 3.0, -2.25, 1e-300, 123456.789};
  for (double d : cases) {
    Rational r = Rational::from_double(d);
    EXPECT_DOUBLE_EQ(r.to_double(), d) << d;
  }
  EXPECT_EQ(Rational::from_double(0.25), Rational(1, 4));
  EXPECT_EQ(Rational::from_double(-1.5), Rational(-3, 2));
  EXPECT_EQ(Rational::from_double(0.0), Rational(0));
}

TEST(Rational, FromDoubleRejectsNonFinite) {
  EXPECT_THROW(Rational::from_double(
                   std::numeric_limits<double>::infinity()),
               std::domain_error);
  EXPECT_THROW(Rational::from_double(
                   std::numeric_limits<double>::quiet_NaN()),
               std::domain_error);
}

TEST(Rational, ToString) {
  EXPECT_EQ(Rational(3, 7).to_string(), "3/7");
  EXPECT_EQ(Rational(-3, 7).to_string(), "-3/7");
  EXPECT_EQ(Rational(14, 7).to_string(), "2");
  EXPECT_EQ(Rational(0).to_string(), "0");
}

TEST(Rational, RandomizedFieldConsistencyVsDouble) {
  std::mt19937_64 rng(99);
  std::uniform_int_distribution<int> num(-50, 50);
  std::uniform_int_distribution<int> den(1, 50);
  for (int trial = 0; trial < 300; ++trial) {
    Rational a(num(rng), den(rng));
    Rational b(num(rng), den(rng));
    double da = a.to_double();
    double db = b.to_double();
    EXPECT_NEAR((a + b).to_double(), da + db, 1e-12);
    EXPECT_NEAR((a * b).to_double(), da * db, 1e-12);
    if (!b.is_zero()) {
      EXPECT_NEAR((a / b).to_double(), da / db, 1e-9);
    }
  }
}

TEST(Rational, LargeValueToDouble) {
  // Huge numerators/denominators must not overflow on the way to double.
  Rational big(BigInt::pow(BigInt(10), 100), BigInt::pow(BigInt(10), 98));
  EXPECT_NEAR(big.to_double(), 100.0, 1e-9);
  Rational tiny(BigInt(1), BigInt::pow(BigInt(2), 100));
  EXPECT_NEAR(tiny.to_double(), std::ldexp(1.0, -100),
              std::ldexp(1.0, -150));
}

TEST(Rational, AbsAndNegate) {
  EXPECT_EQ(Rational(-3, 4).abs(), Rational(3, 4));
  EXPECT_EQ(-Rational(-3, 4), Rational(3, 4));
  EXPECT_EQ(Rational(-3, 4).signum(), -1);
  EXPECT_EQ(Rational(0).signum(), 0);
}

}  // namespace
}  // namespace pfact::numeric
