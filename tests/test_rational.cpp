// Unit and property tests for the exact rational timestamp domain
// (support/rational.hpp).  The memory semantics relies on three properties:
// density (a fresh timestamp exists between any two), exactness of ordering,
// and stability of normal forms (for hashing).

#include <gtest/gtest.h>

#include <unordered_set>

#include "support/rational.hpp"

namespace {

using rc11::support::Rational;
using rc11::support::RationalOverflow;

TEST(Rational, DefaultIsZero) {
  Rational r;
  EXPECT_EQ(r.numerator(), 0);
  EXPECT_EQ(r.denominator(), 1);
  EXPECT_TRUE(r.is_integer());
}

TEST(Rational, NormalisesOnConstruction) {
  const Rational r{6, 4};
  EXPECT_EQ(r.numerator(), 3);
  EXPECT_EQ(r.denominator(), 2);
}

TEST(Rational, NormalisesSign) {
  const Rational r{3, -6};
  EXPECT_EQ(r.numerator(), -1);
  EXPECT_EQ(r.denominator(), 2);
}

TEST(Rational, ZeroNormalForm) {
  const Rational r{0, -7};
  EXPECT_EQ(r.numerator(), 0);
  EXPECT_EQ(r.denominator(), 1);
}

TEST(Rational, ZeroDenominatorThrows) {
  EXPECT_THROW(Rational(1, 0), std::invalid_argument);
}

TEST(Rational, Addition) {
  EXPECT_EQ(Rational(1, 2) + Rational(1, 3), Rational(5, 6));
  EXPECT_EQ(Rational(1, 2) + Rational(-1, 2), Rational{});
}

TEST(Rational, Subtraction) {
  EXPECT_EQ(Rational(1, 2) - Rational(1, 3), Rational(1, 6));
}

TEST(Rational, Multiplication) {
  EXPECT_EQ(Rational(2, 3) * Rational(9, 4), Rational(3, 2));
}

TEST(Rational, Division) {
  EXPECT_EQ(Rational(1, 2) / Rational(1, 4), Rational{2});
  EXPECT_THROW(Rational(1, 2) / Rational{}, std::invalid_argument);
}

TEST(Rational, UnaryMinus) {
  EXPECT_EQ(-Rational(3, 7), Rational(-3, 7));
  EXPECT_EQ(-Rational{}, Rational{});
}

TEST(Rational, ComparisonIsExact) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_GT(Rational(-1, 3), Rational(-1, 2));
  EXPECT_EQ(Rational(2, 4), Rational(1, 2));
  // A comparison that would overflow a naive double-based check.
  const Rational big1{INT64_MAX - 1, INT64_MAX};
  const Rational big2{INT64_MAX - 2, INT64_MAX - 1};
  EXPECT_GT(big1, big2);
}

TEST(Rational, SuccessorIsGreater) {
  const Rational r{7, 3};
  EXPECT_GT(r.successor(), r);
  EXPECT_EQ(r.successor(), Rational(10, 3));
}

TEST(Rational, ToString) {
  EXPECT_EQ(Rational(3, 2).to_string(), "3/2");
  EXPECT_EQ(Rational{5}.to_string(), "5");
  EXPECT_EQ(Rational(-1, 4).to_string(), "-1/4");
}

TEST(Rational, OverflowDetected) {
  const Rational big{INT64_MAX, 1};
  EXPECT_THROW(big + big, RationalOverflow);
  EXPECT_THROW(big * Rational{2}, RationalOverflow);
}

TEST(Rational, HashRespectsNormalForm) {
  const std::hash<Rational> h;
  EXPECT_EQ(h(Rational(2, 4)), h(Rational(1, 2)));
}

// --- property sweeps -------------------------------------------------------

struct BetweenCase {
  std::int64_t an, ad, bn, bd;
};

class BetweennessTest : public ::testing::TestWithParam<BetweenCase> {};

// midpoint and mediant must produce a value strictly between their inputs —
// this is the density property the fresh-timestamp rule fresh_γ(q, q')
// depends on.
TEST_P(BetweennessTest, MidpointStrictlyBetween) {
  const auto& p = GetParam();
  const Rational a{p.an, p.ad};
  const Rational b{p.bn, p.bd};
  ASSERT_LT(a, b);
  const Rational m = Rational::midpoint(a, b);
  EXPECT_LT(a, m);
  EXPECT_LT(m, b);
}

TEST_P(BetweennessTest, MediantStrictlyBetween) {
  const auto& p = GetParam();
  // The mediant property requires positive denominators (guaranteed by the
  // normal form) and a < b.
  const Rational a{p.an, p.ad};
  const Rational b{p.bn, p.bd};
  ASSERT_LT(a, b);
  const Rational m = Rational::mediant(a, b);
  EXPECT_LT(a, m);
  EXPECT_LT(m, b);
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, BetweennessTest,
    ::testing::Values(BetweenCase{0, 1, 1, 1}, BetweenCase{1, 2, 2, 3},
                      BetweenCase{-5, 3, -4, 3}, BetweenCase{-1, 1, 1, 7},
                      BetweenCase{99, 100, 100, 99}, BetweenCase{7, 1, 8, 1},
                      BetweenCase{-1000, 7, 1000, 11}));

// Repeated insertion between two fixed timestamps must keep producing fresh,
// strictly ordered values (dense chain) — exercised the way the WRITE rule
// exercises it: repeatedly inserting right after the left endpoint.
TEST(RationalProperty, DenseChainViaMidpoint) {
  Rational lo{0};
  const Rational hi{1};
  Rational prev = lo;
  for (int i = 0; i < 50; ++i) {
    const Rational m = Rational::midpoint(prev, hi);
    ASSERT_LT(prev, m);
    ASSERT_LT(m, hi);
    prev = m;
  }
}

TEST(RationalProperty, DenseChainViaMediant) {
  const Rational hi{1};
  Rational prev{0};
  for (int i = 0; i < 50; ++i) {
    const Rational m = Rational::mediant(prev, hi);
    ASSERT_LT(prev, m);
    ASSERT_LT(m, hi);
    prev = m;
  }
}

// Field axioms on a small grid — a cheap exhaustive property check.
TEST(RationalProperty, ArithmeticLaws) {
  std::vector<Rational> values;
  for (std::int64_t n = -4; n <= 4; ++n) {
    for (std::int64_t d = 1; d <= 4; ++d) {
      values.emplace_back(n, d);
    }
  }
  for (const auto& a : values) {
    for (const auto& b : values) {
      EXPECT_EQ(a + b, b + a);
      EXPECT_EQ(a * b, b * a);
      EXPECT_EQ(a - b, -(b - a));
      if (b != Rational{}) {
        EXPECT_EQ((a / b) * b, a);
      }
    }
  }
}

TEST(RationalProperty, OrderingIsTotalAndTransitiveOnGrid) {
  std::vector<Rational> values;
  for (std::int64_t n = -3; n <= 3; ++n) {
    for (std::int64_t d = 1; d <= 3; ++d) values.emplace_back(n, d);
  }
  for (const auto& a : values) {
    for (const auto& b : values) {
      EXPECT_EQ(a < b, !(b < a) && a != b);
      for (const auto& cc : values) {
        if (a < b && b < cc) {
          EXPECT_LT(a, cc);
        }
      }
    }
  }
}

}  // namespace
