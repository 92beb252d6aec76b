// Property tests for the shared ephemeris kernel: the batched EphemerisTable
// must agree with the pointwise KeplerianPropagator to well under a
// millimetre for arbitrary elements and grids, and the batched visibility
// kernel must reproduce the scalar reference scan bit-for-bit.
#include <gtest/gtest.h>

#include <cmath>

#include "coverage/engine.hpp"
#include "orbit/ephemeris.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace mpleo::orbit {
namespace {

const TimePoint kEpoch = TimePoint::from_iso8601("2024-11-18T00:00:00Z");

ClassicalElements random_elements(util::Xoshiro256PlusPlus& rng, bool eccentric) {
  ClassicalElements coe;
  coe.semi_major_axis_m = util::kEarthMeanRadiusM + rng.uniform(400e3, 1500e3);
  coe.eccentricity = eccentric ? rng.uniform(0.001, 0.3) : 0.0;
  coe.inclination_rad = rng.uniform(0.0, 3.1);
  coe.raan_rad = rng.uniform(0.0, 6.28);
  coe.arg_perigee_rad = rng.uniform(0.0, 6.28);
  coe.mean_anomaly_rad = rng.uniform(0.0, 6.28);
  return coe;
}

class EphemerisProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EphemerisProperty, TableMatchesPropagatorUnderOneMillimetre) {
  util::Xoshiro256PlusPlus rng(GetParam());
  // Grids longer than the 64-step resync interval, with odd step sizes, so
  // the incremental rotations cross several resync boundaries.
  const double step = rng.uniform(7.0, 240.0);
  const std::size_t steps = 64 * 3 + rng.uniform_index(200);
  const TimeGrid grid =
      TimeGrid::over_duration(kEpoch, step * static_cast<double>(steps), step);
  ASSERT_GT(grid.count, 64u);

  for (bool eccentric : {false, true}) {
    const KeplerianPropagator prop(random_elements(rng, eccentric), kEpoch);
    const EphemerisTable table = EphemerisTable::compute(prop, grid, GmstTable::for_grid(grid));
    ASSERT_EQ(table.size(), grid.count);
    for (std::size_t k = 0; k < grid.count; ++k) {
      const util::Vec3 eci =
          prop.position_eci_at_offset(grid.step_seconds * static_cast<double>(k));
      const util::Vec3 expected = eci_to_ecef(eci, grid.at(k));
      const util::Vec3 got = table.position_ecef(k);
      EXPECT_NEAR(got.x, expected.x, 1e-3);
      EXPECT_NEAR(got.y, expected.y, 1e-3);
      EXPECT_NEAR(got.z, expected.z, 1e-3);
      EXPECT_NEAR(table.radius_m()[k], expected.norm(), 1e-3);
    }
  }
}

TEST_P(EphemerisProperty, RadiusBoundsBracketEveryStep) {
  util::Xoshiro256PlusPlus rng(GetParam());
  const TimeGrid grid = TimeGrid::over_duration(kEpoch, 6.0 * 3600.0, 45.0);
  const KeplerianPropagator prop(random_elements(rng, true), kEpoch);
  const EphemerisTable table = EphemerisTable::compute(prop, grid, GmstTable::for_grid(grid));
  for (std::size_t k = 0; k < grid.count; ++k) {
    EXPECT_GE(table.radius_m()[k], table.min_radius_m() - 1e-6);
    EXPECT_LE(table.radius_m()[k], table.max_radius_m() + 1e-6);
  }
}

TEST_P(EphemerisProperty, CircularLatitudeArgumentPredictsZ) {
  util::Xoshiro256PlusPlus rng(GetParam());
  const TimeGrid grid = TimeGrid::over_duration(kEpoch, 3.0 * 3600.0, 60.0);
  ClassicalElements coe = random_elements(rng, false);
  const KeplerianPropagator prop(coe, kEpoch);
  const EphemerisTable table = EphemerisTable::compute(prop, grid, GmstTable::for_grid(grid));
  const LinearLatitudeArgument& arg = table.latitude_argument();
  ASSERT_TRUE(arg.valid);
  for (std::size_t k = 0; k < grid.count; ++k) {
    const double u = arg.u0 + arg.du * static_cast<double>(k);
    EXPECT_NEAR(arg.radius_m * arg.sin_incl * std::sin(u), table.z()[k], 1e-3);
  }
}

TEST_P(EphemerisProperty, BatchedVisibilityMatchesReferenceBitForBit) {
  util::Xoshiro256PlusPlus rng(GetParam());
  const TimeGrid grid = TimeGrid::over_duration(kEpoch, 24.0 * 3600.0, 60.0);
  const cov::CoverageEngine engine(grid, rng.uniform(5.0, 40.0));

  std::vector<cov::GroundSite> sites;
  for (int i = 0; i < 12; ++i) {
    sites.push_back({"site",
                     TopocentricFrame(Geodetic::from_degrees(
                         rng.uniform(-85.0, 85.0), rng.uniform(-180.0, 180.0))),
                     1.0});
  }

  for (bool eccentric : {false, true}) {
    constellation::Satellite sat;
    sat.elements = random_elements(rng, eccentric);
    sat.epoch = kEpoch;
    const auto reference = engine.visibility_masks_reference(sat, sites);
    const auto batched = engine.visibility_masks(sat, sites);
    ASSERT_EQ(reference.size(), batched.size());
    for (std::size_t j = 0; j < sites.size(); ++j) {
      EXPECT_EQ(reference[j], batched[j]) << "site " << j << " eccentric=" << eccentric;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EphemerisProperty,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u, 16u, 17u, 18u));

}  // namespace
}  // namespace mpleo::orbit
