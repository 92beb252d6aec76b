#include "coverage/contact_plan.hpp"

#include <gtest/gtest.h>

namespace mpleo::cov {
namespace {

const orbit::TimePoint kEpoch = orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z");

struct ContactPlanFixture : public ::testing::Test {
  ContactPlanFixture()
      : grid(orbit::TimeGrid::over_duration(kEpoch, 86400.0, 60.0)), engine(grid, 25.0) {
    sats = constellation::single_plane(550e3, 53.0, 100.0, 6, kEpoch);
    sites.push_back({"taipei", orbit::TopocentricFrame(taipei().location), 1.0});
    sites.push_back(
        {"seoul",
         orbit::TopocentricFrame(orbit::Geodetic::from_degrees(37.57, 126.98)), 1.0});
  }

  orbit::TimeGrid grid;
  CoverageEngine engine;
  std::vector<constellation::Satellite> sats;
  std::vector<GroundSite> sites;
};

TEST_F(ContactPlanFixture, ContactsSortedAndWellFormed) {
  const auto contacts = build_contact_plan(engine, sats, sites);
  ASSERT_FALSE(contacts.empty());
  for (std::size_t i = 0; i < contacts.size(); ++i) {
    EXPECT_GT(contacts[i].duration_s(), 0.0);
    EXPECT_GE(contacts[i].start_offset_s, 0.0);
    EXPECT_LE(contacts[i].end_offset_s, grid.duration_seconds() + 1e-9);
    if (i > 0) EXPECT_GE(contacts[i].start_offset_s, contacts[i - 1].start_offset_s);
  }
}

TEST_F(ContactPlanFixture, MatchesEngineMaskDurations) {
  const auto contacts = build_contact_plan(engine, sats, sites);
  // Sum of taipei contacts equals the sum of per-satellite mask durations
  // (contacts are per (sat, site), overlaps are NOT merged).
  double expected = 0.0;
  for (const auto& sat : sats) {
    expected += static_cast<double>(
                    engine.visibility_mask(sat, sites[0].frame).count()) *
                grid.step_seconds;
  }
  EXPECT_NEAR(total_contact_seconds(contacts, "taipei"), expected, 1e-6);
}

TEST_F(ContactPlanFixture, UnknownSiteHasZeroSeconds) {
  const auto contacts = build_contact_plan(engine, sats, sites);
  EXPECT_EQ(total_contact_seconds(contacts, "nowhere"), 0.0);
}

TEST_F(ContactPlanFixture, EmptyConstellationEmptyPlan) {
  const auto contacts = build_contact_plan(engine, {}, sites);
  EXPECT_TRUE(contacts.empty());
}

}  // namespace
}  // namespace mpleo::cov
