#include "rf/interference.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "rf/spectrum_plan.hpp"

namespace mpleo::rf {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

bool has_issue(const std::vector<core::ConfigIssue>& issues, const std::string& field) {
  return std::any_of(issues.begin(), issues.end(),
                     [&](const core::ConfigIssue& i) { return i.field == field; });
}

TEST(SpectrumConfig, DefaultsValidate) {
  EXPECT_TRUE(SpectrumConfig{}.validate().empty());
}

TEST(SpectrumConfig, RejectsEmptyBandPlan) {
  SpectrumConfig cfg;
  cfg.band.downlink_hi_hz = cfg.band.downlink_lo_hz;  // zero-width segment
  EXPECT_TRUE(has_issue(cfg.validate(), "spectrum.band.downlink_hi_hz"));

  cfg = SpectrumConfig{};
  cfg.band.uplink_hi_hz = cfg.band.uplink_lo_hz - 1.0e6;  // inverted
  EXPECT_TRUE(has_issue(cfg.validate(), "spectrum.band.uplink_hi_hz"));
}

TEST(SpectrumConfig, RejectsEdgesOutsideAllocations) {
  SpectrumConfig cfg;
  cfg.band.downlink_lo_hz = 0.2e9;  // below the 1 GHz floor
  EXPECT_TRUE(has_issue(cfg.validate(), "spectrum.band.downlink_lo_hz"));

  cfg = SpectrumConfig{};
  cfg.band.uplink_hi_hz = 250.0e9;  // above the 100 GHz ceiling
  EXPECT_TRUE(has_issue(cfg.validate(), "spectrum.band.uplink_hi_hz"));

  cfg = SpectrumConfig{};
  cfg.band.downlink_lo_hz = kNan;
  EXPECT_TRUE(has_issue(cfg.validate(), "spectrum.band.downlink_lo_hz"));
}

TEST(SpectrumConfig, RejectsBadKnobs) {
  SpectrumConfig cfg;
  cfg.channel_bandwidth_hz = 0.0;
  EXPECT_TRUE(has_issue(cfg.validate(), "spectrum.channel_bandwidth_hz"));

  cfg = SpectrumConfig{};
  cfg.off_axis_discrimination_db = -3.0;
  EXPECT_TRUE(has_issue(cfg.validate(), "spectrum.off_axis_discrimination_db"));

  cfg = SpectrumConfig{};
  cfg.jammer_power_boost_db = kNan;
  EXPECT_TRUE(has_issue(cfg.validate(), "spectrum.jammer_power_boost_db"));
}

TEST(SpectrumPlan, EqualPartitionIsDisjointAndInsideTheBand) {
  const SpectrumConfig cfg;
  const SpectrumPlan plan = SpectrumPlan::equal_partition(cfg, 8);
  ASSERT_EQ(plan.party_count(), 8u);
  for (std::uint32_t p = 0; p < 8; ++p) {
    const PartyChannel& ch = plan.channel(p);
    EXPECT_GT(ch.bandwidth_hz, 0.0);
    EXPECT_LE(ch.bandwidth_hz, cfg.channel_bandwidth_hz);
    EXPECT_GE(ch.lo_hz(), cfg.band.downlink_lo_hz);
    EXPECT_LE(ch.hi_hz(), cfg.band.downlink_hi_hz);
    for (std::uint32_t q = 0; q < 8; ++q) {
      EXPECT_DOUBLE_EQ(plan.overlap_fraction(p, q), p == q ? 1.0 : 0.0)
          << "channels " << p << " and " << q;
    }
  }
  // Parties beyond the plan own no spectrum.
  EXPECT_DOUBLE_EQ(plan.channel(99).bandwidth_hz, 0.0);
  EXPECT_DOUBLE_EQ(plan.overlap_fraction(0, 99), 0.0);
}

TEST(SpectrumPlan, PartitionShrinksChannelsWhenTheBandIsFull) {
  SpectrumConfig cfg;  // 2 GHz downlink segment
  cfg.channel_bandwidth_hz = 500.0e6;
  const SpectrumPlan plan = SpectrumPlan::equal_partition(cfg, 16);
  // 16 parties cannot each get 500 MHz of 2 GHz: slots cap the width.
  EXPECT_DOUBLE_EQ(plan.channel(0).bandwidth_hz, 2.0e9 / 16.0);
}

TEST(SpectrumPlan, RejectsInvalidConfigAndZeroParties) {
  SpectrumConfig bad;
  bad.channel_bandwidth_hz = -1.0;
  EXPECT_THROW((void)SpectrumPlan::equal_partition(bad, 4), std::invalid_argument);
  EXPECT_THROW((void)SpectrumPlan::equal_partition(SpectrumConfig{}, 0),
               std::invalid_argument);
  try {
    (void)SpectrumPlan::equal_partition(bad, 4);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("spectrum.channel_bandwidth_hz"),
              std::string::npos);
  }
}

TEST(InterferenceEnvironment, OnPlanPartiesCoupleNothing) {
  const SpectrumConfig cfg;
  const SpectrumPlan plan = SpectrumPlan::equal_partition(cfg, 4);
  const InterferenceEnvironment env(cfg, plan, {}, {});
  EXPECT_FALSE(env.any_interferer());
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(env.jams(i));
    EXPECT_FALSE(env.squats(i));
    for (std::uint32_t v = 0; v < 4; ++v) {
      EXPECT_DOUBLE_EQ(env.coupling(i, v), 0.0);
      EXPECT_FALSE(env.violates_plan(i, v));
    }
  }
}

TEST(InterferenceEnvironment, JammerCouplesBoostedIntoEveryVictim) {
  const SpectrumConfig cfg;  // 12 dB discrimination, 10 dB jammer boost
  const SpectrumPlan plan = SpectrumPlan::equal_partition(cfg, 4);
  const InterferenceEnvironment env(cfg, plan, {true, false, false, false},
                                    {false, false, true, false});
  EXPECT_TRUE(env.any_interferer());
  EXPECT_TRUE(env.jams(0));
  EXPECT_TRUE(env.squats(2));

  const double discrimination = std::pow(10.0, -12.0 / 10.0);
  const double boost = std::pow(10.0, 10.0 / 10.0);
  for (std::uint32_t v = 1; v < 4; ++v) {
    EXPECT_NEAR(env.coupling(0, v), discrimination * boost, 1e-12);
    EXPECT_TRUE(env.violates_plan(0, v));
  }
  // The squatter radiates the whole band at nominal power: no boost.
  EXPECT_NEAR(env.coupling(2, 1), discrimination, 1e-12);
  EXPECT_TRUE(env.violates_plan(2, 1));
  // Self-coupling is always zero and never a violation.
  EXPECT_DOUBLE_EQ(env.coupling(0, 0), 0.0);
  EXPECT_FALSE(env.violates_plan(0, 0));
  // The honest party couples into nobody.
  EXPECT_DOUBLE_EQ(env.coupling(1, 0), 0.0);
  EXPECT_FALSE(env.violates_plan(1, 0));
  // Out-of-range parties read as silent.
  EXPECT_DOUBLE_EQ(env.coupling(9, 0), 0.0);
  EXPECT_FALSE(env.jams(9));
}

TEST(InterferenceEnvironment, ShortMasksArePaddedFalse) {
  const SpectrumConfig cfg;
  const SpectrumPlan plan = SpectrumPlan::equal_partition(cfg, 4);
  const InterferenceEnvironment env(cfg, plan, {true}, {});
  EXPECT_TRUE(env.jams(0));
  EXPECT_FALSE(env.jams(3));
  EXPECT_TRUE(env.any_interferer());
  EXPECT_DOUBLE_EQ(env.reference_bandwidth_hz(), cfg.channel_bandwidth_hz);
}

TEST(InterferenceEnvironment, RejectsInvalidConfig) {
  SpectrumConfig bad;
  bad.jammer_power_boost_db = -1.0;
  const SpectrumPlan plan = SpectrumPlan::equal_partition(SpectrumConfig{}, 4);
  EXPECT_THROW(InterferenceEnvironment(bad, plan, {}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace mpleo::rf
