#include "orbit/conjunction.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "util/units.hpp"

namespace mpleo::orbit {
namespace {

const TimePoint kEpoch = TimePoint::from_iso8601("2024-11-18T00:00:00Z");

constellation::Satellite sat_at(double alt, double incl, double raan, double phase) {
  constellation::Satellite sat;
  sat.elements = ClassicalElements::circular(alt, incl, raan, phase);
  sat.epoch = kEpoch;
  return sat;
}

TimeGrid orbit_grid(double step = 10.0) {
  return TimeGrid::over_duration(kEpoch, 6000.0, step);  // ~one orbit
}

// The one pair of a two-satellite screen with a threshold above any LEO
// separation.
CloseApproach screened_pair(const constellation::Satellite& a,
                            const constellation::Satellite& b, const TimeGrid& grid) {
  const std::vector<constellation::Satellite> pair{a, b};
  const std::vector<CloseApproach> hits = screen_conjunctions(pair, grid, 1e9);
  EXPECT_EQ(hits.size(), 1u);
  return hits.empty() ? CloseApproach{} : hits.front();
}

TEST(ClosestApproach, CoplanarSeparationIsChordDistance) {
  // Same circular orbit, 30 deg apart in phase: separation is constant at
  // 2 r sin(15 deg).
  const auto a = sat_at(550e3, 53.0, 0.0, 0.0);
  const auto b = sat_at(550e3, 53.0, 0.0, 30.0);
  const CloseApproach approach = screened_pair(a, b, orbit_grid());
  const double r = util::kEarthMeanRadiusM + 550e3;
  EXPECT_NEAR(approach.min_distance_m, 2.0 * r * std::sin(util::deg_to_rad(15.0)),
              2e3);
}

TEST(ClosestApproach, CrossingPlanesAtSharedNodeCollide) {
  // Worst-case crossing geometry: satellite A at its ascending node meets
  // satellite B (RAAN 180 deg away) at B's descending node — the same point
  // in space, reached simultaneously, with crossing velocities. This is the
  // conjunction class operators actually screen for.
  const auto a = sat_at(550e3, 53.0, 0.0, 0.0);
  const auto b = sat_at(550e3, 53.0, 180.0, 180.0);
  const CloseApproach approach = screened_pair(a, b, orbit_grid(1.0));
  EXPECT_LT(approach.min_distance_m, 20e3);
  EXPECT_GE(approach.offset_seconds, 0.0);
}

TEST(ClosestApproach, AltitudeSeparationIsFloor) {
  // 30 km of altitude separation: minimum distance never drops below it.
  const auto a = sat_at(550e3, 53.0, 0.0, 0.0);
  const auto b = sat_at(580e3, 53.0, 40.0, 77.0);
  const CloseApproach approach = screened_pair(a, b, orbit_grid(1.0));
  EXPECT_GE(approach.min_distance_m, 29e3);
}

TEST(ScreenConjunctions, FindsOnlyPairsBelowThreshold) {
  std::vector<constellation::Satellite> sats{
      sat_at(550e3, 53.0, 0.0, 0.0),
      sat_at(550e3, 53.0, 0.0, 1.0),    // ~120 km ahead, same plane
      sat_at(550e3, 53.0, 0.0, 180.0),  // opposite side
  };
  const auto hits = screen_conjunctions(sats, orbit_grid(), 200e3);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].satellite_a, 0u);
  EXPECT_EQ(hits[0].satellite_b, 1u);
  EXPECT_LT(hits[0].min_distance_m, 130e3);
}

TEST(ScreenConjunctions, SortedAscendingByDistance) {
  std::vector<constellation::Satellite> sats{
      sat_at(550e3, 53.0, 0.0, 0.0), sat_at(550e3, 53.0, 0.0, 2.0),
      sat_at(550e3, 53.0, 0.0, 1.0)};
  const auto hits = screen_conjunctions(sats, orbit_grid(), 500e3);
  ASSERT_GE(hits.size(), 2u);
  for (std::size_t i = 1; i < hits.size(); ++i) {
    EXPECT_GE(hits[i].min_distance_m, hits[i - 1].min_distance_m);
  }
}

TEST(ScreenConjunctions, RejectsNonPositiveThreshold) {
  EXPECT_THROW((void)screen_conjunctions({}, orbit_grid(), 0.0), std::invalid_argument);
}

TEST(Occupancy, CountsPerBand) {
  std::vector<constellation::Satellite> sats{
      sat_at(545e3, 53.0, 0.0, 0.0), sat_at(548e3, 53.0, 10.0, 0.0),
      sat_at(560e3, 53.0, 0.0, 0.0), sat_at(1205e3, 87.9, 0.0, 0.0)};
  const auto occupancy = altitude_occupancy(sats, 10e3);
  EXPECT_EQ(occupancy.at(540e3), 2u);
  EXPECT_EQ(occupancy.at(560e3), 1u);
  EXPECT_EQ(occupancy.at(1200e3), 1u);
  EXPECT_EQ(occupancy.size(), 3u);
}

TEST(Occupancy, CrowdingIndex) {
  std::map<double, std::size_t> occupancy{{540e3, 8}, {550e3, 2}};
  EXPECT_DOUBLE_EQ(crowding_index(occupancy), 5.0);
  EXPECT_EQ(crowding_index({}), 0.0);
}

TEST(Occupancy, RejectsBadBandWidth) {
  EXPECT_THROW(altitude_occupancy({}, -5.0), std::invalid_argument);
}

}  // namespace
}  // namespace mpleo::orbit
