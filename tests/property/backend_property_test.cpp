// Property tests for the propagator-backend facade and the lane-batched
// ephemeris fill:
//
//  * Cross-backend agreement: for the same mean elements, J2-analytic and
//    SGP4 trajectories stay inside a documented error envelope over one day.
//    The dominant term is along-track drift from the Kozai vs un-Kozai
//    mean-motion conventions (plus J4/drag terms only SGP4 carries), which
//    grows linearly to tens of kilometres per day at LEO — so the test also
//    asserts the backends do NOT agree to metres, proving SGP4 actually ran
//    instead of silently falling back to J2.
//
//  * Bit-identity: the SIMD lane-batched fill (satellites across AVX2
//    lanes) must reproduce the scalar per-satellite path exactly — every
//    coordinate, radius, bound, and latitude-argument field compares equal
//    with ==, for pure-circular fleets and for mixed fleets where only a
//    subset of entries is batchable.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "orbit/ephemeris.hpp"
#include "orbit/simd.hpp"
#include "support/simd_mode_guard.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace mpleo::orbit {
namespace {

const TimePoint kEpoch = TimePoint::from_iso8601("2024-11-18T00:00:00Z");

// Documented cross-backend envelope: max |r_sgp4 - r_j2| over one day for a
// circular LEO orbit propagated from the same mean elements. See
// DESIGN.md §11 — the bound is dominated by the un-Kozai mean-motion
// correction, whose relative size (3/2)k2(3cos^2 i - 1)/a^2 peaks near
// 1.4e-3 for near-equatorial orbits at 400 km; accumulated over ~15.6
// orbits that is up to ~1000 km of along-track separation per day
// (empirically ~800 km across random LEO catalogs; tens of km at the
// 53-degree inclinations real shells fly).
constexpr double kCrossBackendEnvelopeM = 1500e3;

ClassicalElements random_circular_leo(util::Xoshiro256PlusPlus& rng) {
  ClassicalElements coe;
  coe.semi_major_axis_m = util::kEarthMeanRadiusM + rng.uniform(400e3, 1500e3);
  coe.eccentricity = 0.0;
  coe.inclination_rad = rng.uniform(0.0, 3.1);
  coe.raan_rad = rng.uniform(0.0, 6.28);
  coe.arg_perigee_rad = rng.uniform(0.0, 6.28);
  coe.mean_anomaly_rad = rng.uniform(0.0, 6.28);
  return coe;
}

ClassicalElements random_eccentric_leo(util::Xoshiro256PlusPlus& rng) {
  ClassicalElements coe = random_circular_leo(rng);
  coe.eccentricity = rng.uniform(0.001, 0.3);
  coe.semi_major_axis_m += 3000e3;  // keep perigee above the atmosphere
  return coe;
}

// Exact (bitwise) equality of two tables, field by field.
void expect_tables_identical(const EphemerisTable& a, const EphemerisTable& b,
                             std::size_t sat) {
  ASSERT_EQ(a.size(), b.size()) << "sat " << sat;
  for (std::size_t k = 0; k < a.size(); ++k) {
    ASSERT_EQ(a.x()[k], b.x()[k]) << "sat " << sat << " step " << k;
    ASSERT_EQ(a.y()[k], b.y()[k]) << "sat " << sat << " step " << k;
    ASSERT_EQ(a.z()[k], b.z()[k]) << "sat " << sat << " step " << k;
    ASSERT_EQ(a.radius_m()[k], b.radius_m()[k]) << "sat " << sat << " step " << k;
  }
  EXPECT_EQ(a.min_radius_m(), b.min_radius_m()) << "sat " << sat;
  EXPECT_EQ(a.max_radius_m(), b.max_radius_m()) << "sat " << sat;
  EXPECT_EQ(a.max_abs_z_m(), b.max_abs_z_m()) << "sat " << sat;
  EXPECT_EQ(a.latitude_argument().valid, b.latitude_argument().valid) << "sat " << sat;
  EXPECT_EQ(a.latitude_argument().u0, b.latitude_argument().u0) << "sat " << sat;
  EXPECT_EQ(a.latitude_argument().du, b.latitude_argument().du) << "sat " << sat;
  EXPECT_EQ(a.latitude_argument().sin_incl, b.latitude_argument().sin_incl)
      << "sat " << sat;
  EXPECT_EQ(a.latitude_argument().radius_m, b.latitude_argument().radius_m)
      << "sat " << sat;
}

class BackendProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BackendProperty, CrossBackendErrorStaysInsideDailyEnvelope) {
  util::Xoshiro256PlusPlus rng(GetParam());
  const TimeGrid grid = TimeGrid::over_duration(kEpoch, 24.0 * 3600.0, 120.0);

  for (int trial = 0; trial < 3; ++trial) {
    EphemerisSpec j2{random_circular_leo(rng), kEpoch};
    EphemerisSpec sgp4 = j2;
    sgp4.backend = PropagatorBackend::kSgp4;

    const std::vector<EphemerisSpec> specs{j2, sgp4};
    const EphemerisSet set = EphemerisSet::compute(specs, grid);
    ASSERT_EQ(set.backend(0), PropagatorBackend::kJ2Analytic);
    ASSERT_EQ(set.backend(1), PropagatorBackend::kSgp4);

    double max_error = 0.0;
    for (std::size_t k = 0; k < grid.count; ++k) {
      const util::Vec3 d = set.table(0).position_ecef(k) - set.table(1).position_ecef(k);
      max_error = std::max(max_error, d.norm());
    }
    EXPECT_LT(max_error, kCrossBackendEnvelopeM) << "trial " << trial;
    // The models genuinely differ — SGP4 did not silently fall back to J2.
    EXPECT_GT(max_error, 1.0) << "trial " << trial;
  }
}

TEST_P(BackendProperty, BatchedFillIsBitIdenticalToScalar) {
  if (!cpu_supports_avx2()) GTEST_SKIP() << "no AVX2 on this machine";
  util::Xoshiro256PlusPlus rng(GetParam());
  // Odd satellite count exercises the padded tail lane group; a grid longer
  // than several resync intervals exercises block boundaries.
  std::vector<EphemerisSpec> specs;
  for (int i = 0; i < 9; ++i) specs.push_back({random_circular_leo(rng), kEpoch});
  const double step = rng.uniform(7.0, 120.0);
  const TimeGrid grid =
      TimeGrid::over_duration(kEpoch, step * (64.0 * 4 + 37.0), step);

  SimdModeGuard guard;
  force_simd_mode(SimdMode::kScalar);
  const EphemerisSet scalar = EphemerisSet::compute(specs, grid);
  force_simd_mode(SimdMode::kAvx2);
  const EphemerisSet batched = EphemerisSet::compute(specs, grid);

  ASSERT_EQ(scalar.size(), batched.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_tables_identical(scalar.table(i), batched.table(i), i);
    // Both modes agree the entry ran on the J2 backend.
    EXPECT_EQ(scalar.backend(i), PropagatorBackend::kJ2Analytic);
    EXPECT_EQ(batched.backend(i), PropagatorBackend::kJ2Analytic);
  }
}

TEST_P(BackendProperty, BatchedFillMatchesPerSatelliteTables) {
  if (!cpu_supports_avx2()) GTEST_SKIP() << "no AVX2 on this machine";
  util::Xoshiro256PlusPlus rng(GetParam());
  std::vector<EphemerisSpec> specs;
  for (int i = 0; i < 5; ++i) specs.push_back({random_circular_leo(rng), kEpoch});
  const TimeGrid grid = TimeGrid::over_duration(kEpoch, 3.0 * 3600.0, 30.0);

  SimdModeGuard guard;
  force_simd_mode(SimdMode::kAvx2);
  const EphemerisSet batched = EphemerisSet::compute(specs, grid);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const KeplerianPropagator prop(specs[i].elements, specs[i].epoch,
                                   specs[i].perturbation);
    const EphemerisTable reference = EphemerisTable::compute(prop, grid, batched.gmst());
    expect_tables_identical(reference, batched.table(i), i);
  }
}

TEST_P(BackendProperty, MixedFleetStaysBitIdenticalAcrossModes) {
  if (!cpu_supports_avx2()) GTEST_SKIP() << "no AVX2 on this machine";
  util::Xoshiro256PlusPlus rng(GetParam());
  // Interleave batchable (circular J2) entries with eccentric-J2 and SGP4
  // entries, so the lane partition has to skip non-batchable specs while
  // preserving output order.
  std::vector<EphemerisSpec> specs;
  for (int i = 0; i < 11; ++i) {
    if (i % 3 == 1) {
      specs.push_back({random_eccentric_leo(rng), kEpoch});
    } else if (i % 3 == 2) {
      EphemerisSpec spec{random_circular_leo(rng), kEpoch};
      spec.backend = PropagatorBackend::kSgp4;
      specs.push_back(spec);
    } else {
      specs.push_back({random_circular_leo(rng), kEpoch});
    }
  }
  const TimeGrid grid = TimeGrid::over_duration(kEpoch, 2.0 * 3600.0, 45.0);

  SimdModeGuard guard;
  force_simd_mode(SimdMode::kScalar);
  const EphemerisSet scalar = EphemerisSet::compute(specs, grid);
  force_simd_mode(SimdMode::kAvx2);
  const EphemerisSet batched = EphemerisSet::compute(specs, grid);

  ASSERT_EQ(scalar.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_tables_identical(scalar.table(i), batched.table(i), i);
    EXPECT_EQ(scalar.backend(i), batched.backend(i)) << "sat " << i;
    EXPECT_EQ(batched.backend(i), i % 3 == 2 ? PropagatorBackend::kSgp4
                                             : PropagatorBackend::kJ2Analytic)
        << "sat " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendProperty,
                         ::testing::Values(21u, 22u, 23u, 24u, 25u, 26u));

}  // namespace
}  // namespace mpleo::orbit
