#include "coverage/visibility.hpp"

#include <gtest/gtest.h>

#include "constellation/shell.hpp"
#include "util/units.hpp"

namespace mpleo::cov {
namespace {

std::vector<Pass> passes_of(const constellation::Satellite& sat,
                            const orbit::TopocentricFrame& site, const orbit::TimeGrid& grid,
                            double elevation_mask_deg) {
  const orbit::KeplerianPropagator propagator(sat.elements, sat.epoch);
  const orbit::EphemerisTable table =
      orbit::EphemerisTable::compute(propagator, grid, orbit::GmstTable::for_grid(grid));
  return find_passes(table, site, grid, elevation_mask_deg);
}

TEST(Footprint, HalfAngleMatchesHandComputation) {
  // 550 km, 25 deg mask: lambda = acos(Re/(Re+h) cos25) - 25deg ~ 8.45 deg.
  const double lambda = footprint_half_angle_rad(550e3, 25.0);
  EXPECT_NEAR(util::rad_to_deg(lambda), 8.45, 0.1);
}

TEST(Footprint, ZeroMaskIsHorizonLimit) {
  // lambda = acos(Re/(Re+h)) at the horizon.
  const double lambda = footprint_half_angle_rad(550e3, 0.0);
  const double expected =
      std::acos(util::kEarthMeanRadiusM / (util::kEarthMeanRadiusM + 550e3));
  EXPECT_NEAR(lambda, expected, 1e-12);
}

TEST(Footprint, HigherMaskShrinksFootprint) {
  EXPECT_GT(footprint_half_angle_rad(550e3, 15.0), footprint_half_angle_rad(550e3, 25.0));
  EXPECT_GT(footprint_half_angle_rad(550e3, 25.0), footprint_half_angle_rad(550e3, 40.0));
}

TEST(Footprint, HigherAltitudeGrowsFootprint) {
  EXPECT_GT(footprint_area_fraction(1200e3, 25.0), footprint_area_fraction(550e3, 25.0));
}

TEST(Footprint, AreaFractionAnchorsPaperNumbers) {
  // ~0.54% of Earth per satellite at Starlink geometry: the arithmetic
  // behind "idle 99% of the time over a single city".
  EXPECT_NEAR(footprint_area_fraction(550e3, 25.0), 0.0054, 0.0005);
}

TEST(FindPasses, OverheadPlaneProducesPasses) {
  // Equatorial site + equatorial orbit: the satellite passes overhead every
  // orbit but Earth rotation shifts the longitude each revolution; over a
  // day at least some passes occur.
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(
      orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z"), 86400.0, 30.0);
  constellation::Satellite sat;
  sat.elements = orbit::ClassicalElements::circular(550e3, 0.0, 0.0, 0.0);
  sat.epoch = grid.start;
  const orbit::TopocentricFrame site(orbit::Geodetic::from_degrees(0.0, 0.0));
  const auto passes = passes_of(sat, site, grid, 25.0);
  ASSERT_FALSE(passes.empty());
  for (const Pass& p : passes) {
    EXPECT_GT(p.duration_s(), 0.0);
    EXPECT_LT(p.duration_s(), 15.0 * 60.0);  // LEO passes are minutes long
    EXPECT_GE(p.max_elevation_rad, util::deg_to_rad(25.0));
    EXPECT_LE(p.max_elevation_rad, util::kPi / 2.0 + 1e-9);
  }
}

TEST(FindPasses, HighLatitudeSiteNeverSeesEquatorialOrbit) {
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(
      orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z"), 86400.0, 60.0);
  constellation::Satellite sat;
  sat.elements = orbit::ClassicalElements::circular(550e3, 0.0, 0.0, 0.0);
  sat.epoch = grid.start;
  const orbit::TopocentricFrame oslo(orbit::Geodetic::from_degrees(59.9, 10.7));
  EXPECT_TRUE(passes_of(sat, oslo, grid, 25.0).empty());
}

TEST(FindPasses, PassesAreOrderedAndDisjoint) {
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(
      orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z"), 2.0 * 86400.0, 30.0);
  constellation::Satellite sat;
  sat.elements = orbit::ClassicalElements::circular(550e3, 53.0, 120.0, 40.0);
  sat.epoch = grid.start;
  const orbit::TopocentricFrame taipei_frame(
      orbit::Geodetic::from_degrees(25.033, 121.565));
  const auto passes = passes_of(sat, taipei_frame, grid, 25.0);
  for (std::size_t i = 1; i < passes.size(); ++i) {
    EXPECT_GE(passes[i].start_offset_s, passes[i - 1].end_offset_s);
  }
}

TEST(FindPasses, LowerMaskGivesLongerOrEqualCoverage) {
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(
      orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z"), 86400.0, 30.0);
  constellation::Satellite sat;
  sat.elements = orbit::ClassicalElements::circular(550e3, 53.0, 30.0, 10.0);
  sat.epoch = grid.start;
  const orbit::TopocentricFrame site(orbit::Geodetic::from_degrees(25.0, 121.5));
  auto total = [&](double mask) {
    double sum = 0.0;
    for (const Pass& p : passes_of(sat, site, grid, mask)) sum += p.duration_s();
    return sum;
  };
  EXPECT_GE(total(10.0), total(25.0));
  EXPECT_GE(total(25.0), total(40.0));
}

}  // namespace
}  // namespace mpleo::cov
