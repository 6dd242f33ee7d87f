// Tests for the common utilities: RNG determinism and distributions,
// streaming statistics, table rendering and strict number parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>

#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace eccsim {
namespace {

// ---------------------------------------------------------------------------
// RNG

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  bool differs = false;
  for (int i = 0; i < 1000; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, NextBelowInRangeAndUnbiasedish) {
  Rng rng(7);
  std::vector<unsigned> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const auto v = rng.next_below(10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  for (auto c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 10.0, n / 10.0 * 0.1);
  }
}

TEST(Rng, NextBelowEdgeCases) {
  Rng rng(8);
  EXPECT_EQ(rng.next_below(0), 0u);
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 100000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 100000, 0.5, 0.01);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(10);
  const double rate = 0.25;
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(rate);
  EXPECT_NEAR(sum / n, 1.0 / rate, 1.0 / rate * 0.02);
}

TEST(Rng, JumpedStreamsDiffer) {
  Rng base(11);
  Rng s0 = base.substream(0);
  Rng s1 = base.substream(1);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    if (s0.next() != s1.next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

// ---------------------------------------------------------------------------
// Statistics

TEST(RunningStat, MeanVarMinMax) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, MergeEqualsCombined) {
  RunningStat a, b, all;
  Rng rng(12);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double() * 10;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(QuantileReservoir, ExactWhileUnderCapacity) {
  QuantileReservoir r(100);
  for (int i = 1; i <= 50; ++i) r.add(i, static_cast<std::uint64_t>(i * 7));
  EXPECT_TRUE(r.exact());
  EXPECT_EQ(r.retained(), 50u);
  EXPECT_DOUBLE_EQ(r.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(r.percentile(50), 25.0);
  EXPECT_DOUBLE_EQ(r.percentile(100), 50.0);
}

TEST(QuantileReservoir, BoundsMemoryAndIsOrderIndependent) {
  // Retention is bottom-k by key, so any insertion order keeps the same
  // sample set -- the property the Monte Carlo engine relies on for
  // chunk/thread-order independence.
  QuantileReservoir fwd(16), rev(16);
  for (int i = 0; i < 1000; ++i) {
    fwd.add(i, SplitMix64(static_cast<std::uint64_t>(i)).next());
  }
  for (int i = 999; i >= 0; --i) {
    rev.add(i, SplitMix64(static_cast<std::uint64_t>(i)).next());
  }
  EXPECT_FALSE(fwd.exact());
  EXPECT_EQ(fwd.retained(), 16u);
  EXPECT_EQ(fwd.offered(), 1000u);
  for (double p : {0.0, 25.0, 50.0, 75.0, 100.0}) {
    EXPECT_DOUBLE_EQ(fwd.percentile(p), rev.percentile(p));
  }
}

TEST(QuantileReservoir, RejectsZeroCapacity) {
  EXPECT_THROW(QuantileReservoir(0), std::invalid_argument);
}

TEST(RelativeCi95, ShrinksWithSamplesAndGuardsDegenerateInputs) {
  RunningStat one;
  one.add(5.0);
  EXPECT_TRUE(std::isinf(relative_ci95(one)));  // n < 2: no CI yet
  RunningStat zero_mean;
  zero_mean.add(-1.0);
  zero_mean.add(1.0);
  EXPECT_TRUE(std::isinf(relative_ci95(zero_mean)));
  Rng rng(11);
  RunningStat small, large;
  for (int i = 0; i < 100; ++i) small.add(1.0 + rng.next_double());
  large = small;
  for (int i = 0; i < 9900; ++i) large.add(1.0 + rng.next_double());
  EXPECT_LT(relative_ci95(large), relative_ci95(small));
  EXPECT_GT(relative_ci95(large), 0.0);
}

TEST(Stats, GeomeanAndMean) {
  EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_THROW(geomean({1.0, -2.0}), std::invalid_argument);
  EXPECT_EQ(geomean({}), 0.0);
}

// ---------------------------------------------------------------------------
// Table

TEST(Table, RendersAlignedColumns) {
  Table t({"a", "long_header", "c"});
  t.add_row({"1", "2", "3"});
  t.add_row({"wide_cell", "x"});  // short row padded
  const std::string s = t.str();
  EXPECT_NE(s.find("long_header"), std::string::npos);
  EXPECT_NE(s.find("wide_cell"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"name", "value"});
  t.add_row({"with,comma", "with\"quote"});
  const std::string csv = t.csv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::pct(0.125), "12.5%");
  EXPECT_EQ(Table::pct(0.40625, 1), "40.6%");
}

// ---------------------------------------------------------------------------
// Units

TEST(Units, FitConversions) {
  EXPECT_DOUBLE_EQ(units::fit_to_per_hour(44.0), 44e-9);
  // 288 chips at 44 FIT: ~78,914 hours MTBF.
  EXPECT_NEAR(units::mtbf_hours(44.0, 288), 78914, 1.0);
}

TEST(Units, MtbfOfNonFailingSystemIsInfiniteNotDivideByZero) {
  // A zero rate or an empty device population never fails: +inf, not a
  // division by zero (which would be NaN-adjacent UB under -ffast-math
  // style reasoning and serialize as garbage).
  EXPECT_TRUE(std::isinf(units::mtbf_hours(0.0, 288)));
  EXPECT_TRUE(std::isinf(units::mtbf_hours(44.0, 0.0)));
  EXPECT_GT(units::mtbf_hours(0.0, 0.0), 0.0);  // +inf, positive
}

TEST(Units, PicojouleIdentity) {
  // 100 mA * 1.5 V * 10 ns = 1500 pJ.
  EXPECT_DOUBLE_EQ(units::picojoules(100, 1.5, 10), 1500.0);
}

// ---------------------------------------------------------------------------
// Strict number parsing

TEST(Parse, WholeValuesAccepted) {
  EXPECT_EQ(parse_uint<unsigned>("t", "--n", "0"), 0u);
  EXPECT_EQ(parse_uint<unsigned>("t", "--n", "4294967295"), 4294967295u);
  EXPECT_EQ(parse_uint<std::uint64_t>("t", "--n", "18446744073709551615"),
            18446744073709551615ull);
  EXPECT_EQ(parse_uint<std::uint8_t>("t", "--n", "255"), 255);
  EXPECT_DOUBLE_EQ(parse_double("t", "--x", "0.15"), 0.15);
  EXPECT_DOUBLE_EQ(parse_double("t", "--x", "-2"), -2.0);
  EXPECT_DOUBLE_EQ(parse_double("t", "--x", "1e-3"), 1e-3);
  EXPECT_DOUBLE_EQ(parse_double("t", "--x", ".5"), 0.5);
}

using ParseDeathTest = ::testing::Test;

TEST(ParseDeathTest, HalfParsedIntegersExitWithUsageError) {
  for (const char* bad : {"", "4x", "abc", "-1", "+1", " 1", "1 ", "2.5",
                          "10k", "4294967296"}) {
    EXPECT_EXIT((void)parse_uint<unsigned>("prog", "--n", bad),
                ::testing::ExitedWithCode(2),
                "prog: --n expects an integer in \\[0, 4294967295\\]")
        << "'" << bad << "'";
  }
  EXPECT_EXIT((void)parse_uint<std::uint64_t>("prog", "--n",
                                              "18446744073709551616"),
              ::testing::ExitedWithCode(2), "expects an integer");
  EXPECT_EXIT((void)parse_uint<std::uint8_t>("prog", "--n", "256"),
              ::testing::ExitedWithCode(2), "in \\[0, 255\\], got '256'");
}

TEST(ParseDeathTest, HalfParsedNumbersExitWithUsageError) {
  for (const char* bad : {"", "0.15x", "0.0x5", "abc", " 1", "1 ", "nan",
                          "inf", "-inf", "1e999"}) {
    EXPECT_EXIT((void)parse_double("prog", "--x", bad),
                ::testing::ExitedWithCode(2), "prog: --x expects a number")
        << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace eccsim
