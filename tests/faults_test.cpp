// Tests for the fault model and Monte Carlo engine: rate bookkeeping,
// sampling statistics, and agreement between simulation and the closed-form
// models for the paper's reliability figures.
#include <gtest/gtest.h>

#include <cmath>

#include "common/units.hpp"
#include "faults/fault_model.hpp"
#include "faults/montecarlo.hpp"

namespace eccsim::faults {
namespace {

TEST(FitRates, VendorAverageTotals44) {
  EXPECT_NEAR(ddr3_vendor_average().total(), 44.0, 1e-9);
}

TEST(FitRates, ScaledToPreservesShape) {
  const FitRates base = ddr3_vendor_average();
  const FitRates scaled = base.scaled_to(100.0);
  EXPECT_NEAR(scaled.total(), 100.0, 1e-9);
  EXPECT_NEAR(scaled[FaultType::kBit] / scaled[FaultType::kBank],
              base[FaultType::kBit] / base[FaultType::kBank], 1e-9);
}

TEST(FaultModel, SaturationClassification) {
  // Sec. III-C: bit/word/row are absorbed by page retirement; column and
  // larger saturate the bank-pair counter.
  EXPECT_FALSE(saturates_error_counter(FaultType::kBit));
  EXPECT_FALSE(saturates_error_counter(FaultType::kWord));
  EXPECT_FALSE(saturates_error_counter(FaultType::kRow));
  EXPECT_TRUE(saturates_error_counter(FaultType::kColumn));
  EXPECT_TRUE(saturates_error_counter(FaultType::kBank));
  EXPECT_TRUE(saturates_error_counter(FaultType::kMultiBank));
  EXPECT_TRUE(saturates_error_counter(FaultType::kMultiRank));
}

TEST(FaultModel, BanksAffectedScalesWithType) {
  EXPECT_EQ(banks_affected(FaultType::kBank, 8, 4), 1u);
  EXPECT_EQ(banks_affected(FaultType::kMultiBank, 8, 4), 4u);
  EXPECT_EQ(banks_affected(FaultType::kMultiRank, 8, 4), 32u);
}

TEST(SystemShape, PaperFig2Shape) {
  // Fig. 2: eight channels, four ranks per channel, nine chips per rank.
  SystemShape s;
  EXPECT_EQ(s.total_chips(), 288u);
  EXPECT_EQ(s.total_banks(), 256u);
}

TEST(Sampling, EventCountMatchesExpectation) {
  SystemShape shape;
  const FitRates rates = ddr3_vendor_average();
  const double lifetime = 7 * units::kHoursPerYear;
  const double expected =
      units::fit_to_per_hour(rates.total()) * shape.total_chips() * lifetime;
  std::uint64_t total = 0;
  const unsigned systems = 4000;
  for (unsigned i = 0; i < systems; ++i) {
    Rng rng = mc_system_rng(99, i);
    total += sample_lifetime(shape, rates, lifetime, rng).size();
  }
  const double mean = static_cast<double>(total) / systems;
  EXPECT_NEAR(mean, expected, expected * 0.05);
}

TEST(Sampling, EventsAreSortedAndInRange) {
  SystemShape shape;
  Rng rng(7);
  const double lifetime = 50 * units::kHoursPerYear;  // enough events
  const auto events =
      sample_lifetime(shape, ddr3_vendor_average(), lifetime, rng);
  ASSERT_GT(events.size(), 1u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_LT(events[i].time_hours, lifetime);
    EXPECT_LT(events[i].channel, shape.channels);
    EXPECT_LT(events[i].rank, shape.ranks_per_channel);
    EXPECT_LT(events[i].chip, shape.chips_per_rank);
    if (i > 0) {
      EXPECT_GE(events[i].time_hours, events[i - 1].time_hours);
    }
  }
}

TEST(Sampling, DeterministicAcrossRuns) {
  SystemShape shape;
  Rng a(123), b(123);
  const auto ea = sample_lifetime(shape, ddr3_vendor_average(), 1e5, a);
  const auto eb = sample_lifetime(shape, ddr3_vendor_average(), 1e5, b);
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_DOUBLE_EQ(ea[i].time_hours, eb[i].time_hours);
    EXPECT_EQ(ea[i].channel, eb[i].channel);
  }
}

TEST(Mtbf, AnalyticMatchesHandComputation) {
  // Fig. 2 caption check: 288 chips at 44 FIT.
  SystemShape shape;
  const double mtbf = analytic_mtbf_hours(shape, 44.0);
  EXPECT_NEAR(mtbf, 1.0 / (288 * 44e-9), 1e-3);
  // "Order of 100's of days": ~3289 days at 44 FIT.
  EXPECT_GT(mtbf / 24.0, 100.0);
}

TEST(Mtbf, SimulationAgreesWithAnalytic) {
  SystemShape shape;
  const auto res = mtbf_between_channels(
      shape, ddr3_vendor_average(), 300, 200 * units::kHoursPerYear, 17);
  ASSERT_GT(res.gaps_observed, 100u);
  // Inter-channel gaps are slightly shorter than all-fault gaps in
  // expectation conditioning, but within a quarter of the analytic value.
  EXPECT_NEAR(res.simulated_hours, res.analytic_hours,
              res.analytic_hours * 0.25);
}

TEST(Eol, FractionIsSmallAndGrowsWithFit) {
  SystemShape shape;
  const double life = 7 * units::kHoursPerYear;
  const auto base =
      eol_materialized_fraction(shape, ddr3_vendor_average(), 3000, life, 5);
  // Fig. 8: a small fraction (paper average 0.4%).
  EXPECT_GT(base.mean_fraction, 0.0002);
  EXPECT_LT(base.mean_fraction, 0.02);
  const auto high = eol_materialized_fraction(
      shape, ddr3_vendor_average().scaled_to(100.0), 3000, life, 5);
  EXPECT_GT(high.mean_fraction, base.mean_fraction);
}

TEST(Eol, PercentileAtLeastMean) {
  SystemShape shape;
  const auto res = eol_materialized_fraction(
      shape, ddr3_vendor_average(), 2000, 7 * units::kHoursPerYear, 6);
  EXPECT_GE(res.p999_fraction, res.mean_fraction);
}

TEST(ScrubWindow, PaperHeadlineNumber) {
  // Sec. VI-C: 8-hour window, 100 FIT/chip -> ~0.0002 over seven years.
  SystemShape shape;
  const double p = analytic_multichannel_window_probability(
      shape, 100.0, 8.0, 7 * units::kHoursPerYear);
  EXPECT_NEAR(p, 2.0e-4, 1.0e-4);
}

TEST(ScrubWindow, ProbabilityMonotonicInWindow) {
  SystemShape shape;
  const double life = 7 * units::kHoursPerYear;
  double prev = 0;
  for (double w : {1.0, 8.0, 24.0, 168.0}) {
    const double p =
        analytic_multichannel_window_probability(shape, 44.0, w, life);
    EXPECT_GT(p, prev);
    prev = p;
  }
}

TEST(ScrubWindow, SimulationAgreesWithAnalytic) {
  SystemShape shape;
  // Use a high FIT and long window so the probability is large enough to
  // estimate with a modest number of systems.
  const FitRates rates = ddr3_vendor_average().scaled_to(3000.0);
  const auto res = multichannel_window_probability(
      shape, rates, 24.0 * 30, 7 * units::kHoursPerYear, 4000, 33);
  ASSERT_GT(res.analytic_probability, 0.05);
  EXPECT_NEAR(res.simulated_probability, res.analytic_probability,
              res.analytic_probability * 0.2);
}

TEST(HpcStall, MatchesPaperOrder) {
  // Sec. VI-B: 2PB system, 128GB/node, 1GB/s NIC -> ~0.35% stall.
  const double frac = hpc_stall_fraction(HpcStallParams{},
                                         ddr3_vendor_average());
  EXPECT_GT(frac, 0.001);
  EXPECT_LT(frac, 0.006);
}

TEST(HpcStall, ScalesWithNicBandwidth) {
  HpcStallParams fast;
  fast.nic_bandwidth_bytes_per_s *= 10;
  EXPECT_LT(hpc_stall_fraction(fast, ddr3_vendor_average()),
            hpc_stall_fraction(HpcStallParams{}, ddr3_vendor_average()));
}

}  // namespace
}  // namespace eccsim::faults
