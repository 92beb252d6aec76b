// Property test for the proof-of-coverage window cull: a ProofOfCoverage
// with a prepared grid skips the propagator wherever its epoch tables prove
// a satellite below the verifier's mask, and must answer exactly as an
// unprepared twin that always propagates — the same verify verdict and the
// same doppler_track points, bit for bit.
//
// The fleet mixes circular orbits (filled by the lane-batched kernel when
// AVX2 is active) and eccentric ones (e up to 0.1) between 350 and 2,000 km,
// under the J2 and SGP4 backends. Verifiers are registered before and after
// prepare_grid: random sites, both poles, mountain-top and high-altitude
// ones, and, after the grid, sites lower than every earlier one (which must
// fall back to the exact path). Query times sit on steps, on half steps,
// anywhere inside a step's window, up to two steps off either end of the
// grid, and at NaN and +-infinity.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numbers>
#include <optional>
#include <string>
#include <vector>

#include "core/proof_of_coverage.hpp"
#include "orbit/backend.hpp"
#include "orbit/geodesy.hpp"
#include "rf/doppler.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace mpleo::core {
namespace {

const orbit::TimePoint kEpoch = orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z");
constexpr std::uint64_t kConsortiumSeed = 77;
constexpr double kCarrierHz = 12e9;

constellation::Satellite random_satellite(util::Xoshiro256PlusPlus& rng,
                                          constellation::SatelliteId id) {
  constellation::Satellite sat;
  sat.id = id;
  orbit::ClassicalElements& coe = sat.elements;
  coe.semi_major_axis_m = util::kEarthMeanRadiusM + rng.uniform(350e3, 2000e3);
  if (rng.uniform() < 0.5) {
    // Eccentric, with the perigee kept above 300 km.
    const double e_max =
        std::min(0.1, 1.0 - (util::kEarthMeanRadiusM + 300e3) / coe.semi_major_axis_m);
    coe.eccentricity = rng.uniform(0.0, e_max);
  }
  coe.inclination_rad = rng.uniform(0.0, std::numbers::pi);
  coe.raan_rad = rng.uniform(0.0, 2.0 * std::numbers::pi);
  coe.arg_perigee_rad = rng.uniform(0.0, 2.0 * std::numbers::pi);
  coe.mean_anomaly_rad = rng.uniform(0.0, 2.0 * std::numbers::pi);
  sat.epoch = kEpoch.plus_seconds(rng.uniform(-86400.0, 86400.0));
  return sat;
}

orbit::Geodetic random_site(util::Xoshiro256PlusPlus& rng, double min_alt_m,
                            double max_alt_m) {
  return orbit::Geodetic::from_degrees(rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0),
                                       rng.uniform(min_alt_m, max_alt_m));
}

// The verifiers of one case: `before` are registered before prepare_grid,
// `after` once the grid is prepared.
struct Sites {
  std::vector<orbit::Geodetic> before;
  std::vector<orbit::Geodetic> after;
};

Sites make_sites(util::Xoshiro256PlusPlus& rng) {
  Sites sites;
  for (int i = 0; i < 60; ++i) sites.before.push_back(random_site(rng, 0.0, 3000.0));
  for (int i = 0; i < 6; ++i) sites.before.push_back(random_site(rng, 5e3, 40e3));
  sites.before.push_back(orbit::Geodetic::from_degrees(90.0, 0.0, 0.0));
  sites.before.push_back(orbit::Geodetic::from_degrees(-90.0, 0.0, 100.0));
  // After the grid: the cull holds for sites at least as high as the lowest
  // registered before (the pole at sea level); lower ones take the exact
  // path.
  for (int i = 0; i < 20; ++i) sites.after.push_back(random_site(rng, 0.0, 3000.0));
  sites.after.push_back(random_site(rng, 20e3, 60e3));
  sites.after.push_back(orbit::Geodetic::from_degrees(89.9, 45.0, -500.0));
  sites.after.push_back(orbit::Geodetic::from_degrees(-90.0, 0.0, -2000.0));
  sites.after.push_back(orbit::Geodetic::from_degrees(10.0, 20.0, -30e3));
  sites.after.push_back(orbit::Geodetic::from_degrees(-45.0, 100.0, -300e3));
  return sites;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

// One query's answers, with "threw" standing for any exception.
struct Answer {
  bool threw = false;
  ReceiptVerdict verdict = ReceiptVerdict::kValid;
  std::vector<ProofOfCoverage::DopplerPoint> track;
};

Answer ask(const ProofOfCoverage& poc, const CoverageReceipt& receipt,
           const std::vector<double>& offsets) {
  Answer answer;
  try {
    answer.verdict = poc.verify(receipt);
    answer.track = poc.doppler_track(receipt.satellite, receipt.verifier, receipt.time,
                                     kCarrierHz, offsets);
  } catch (...) {
    answer.threw = true;
  }
  return answer;
}

bool same(const Answer& a, const Answer& b) {
  if (a.threw != b.threw || a.verdict != b.verdict || a.track.size() != b.track.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.track.size(); ++i) {
    if (bits(a.track[i].offset_s) != bits(b.track[i].offset_s) ||
        bits(a.track[i].doppler_hz) != bits(b.track[i].doppler_hz)) {
      return false;
    }
  }
  return true;
}

class ProofOfCoverageWindowCull
    : public ::testing::TestWithParam<orbit::PropagatorBackend> {};

TEST_P(ProofOfCoverageWindowCull, PreparedMatchesUnpreparedExactly) {
  constexpr std::size_t kSatellites = 48;
  constexpr std::size_t kQueries = 60'000;
  util::Xoshiro256PlusPlus rng(GetParam() == orbit::PropagatorBackend::kSgp4 ? 2 : 1);

  ProofOfCoverage::Config config;
  config.propagator_backend = GetParam();
  ProofOfCoverage prepared(config);
  ProofOfCoverage twin(config);
  std::vector<std::uint64_t> keys;
  for (std::size_t i = 0; i < kSatellites; ++i) {
    const constellation::Satellite sat =
        random_satellite(rng, static_cast<constellation::SatelliteId>(100 + i));
    keys.push_back(prepared.register_satellite(sat, kConsortiumSeed));
    ASSERT_EQ(twin.register_satellite(sat, kConsortiumSeed), keys.back());
  }
  const Sites sites = make_sites(rng);
  for (const orbit::Geodetic& site : sites.before) {
    (void)prepared.register_verifier(site);
    (void)twin.register_verifier(site);
  }
  // Three hours at 60 s, as a campaign epoch.
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(kEpoch, 3 * 3600.0, 60.0);
  prepared.prepare_grid(grid);
  for (const orbit::Geodetic& site : sites.after) {
    (void)prepared.register_verifier(site);
    (void)twin.register_verifier(site);
  }
  const std::size_t verifier_count = sites.before.size() + sites.after.size();

  rf::DopplerAuditConfig doppler;
  const std::vector<double> offsets = doppler.sample_offsets_s();
  const double step = grid.step_seconds;
  const double span = step * static_cast<double>(grid.count - 1);
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  std::size_t mismatches = 0;
  std::size_t valid = 0;
  std::size_t track_points = 0;
  for (std::size_t q = 0; q < kQueries; ++q) {
    const std::size_t sat = rng.uniform_index(kSatellites);
    const auto verifier = static_cast<std::uint32_t>(rng.uniform_index(verifier_count));
    const double k = static_cast<double>(rng.uniform_index(grid.count));
    double at = 0.0;  // seconds after the grid's start
    switch (rng.uniform_index(8)) {
      case 0: at = k * step; break;                                  // on a step
      case 1: at = (k + (rng.uniform() < 0.5 ? -0.5 : 0.5)) * step; break;  // half step
      case 2: at = rng.uniform(-2.0 * step, 0.0); break;             // before the grid
      case 3: at = span + rng.uniform(0.0, 2.0 * step); break;       // after it
      case 4: at = q % 3 == 0 ? kNan : q % 3 == 1 ? kInf : -kInf; break;
      default: at = (k + rng.uniform(-0.5, 0.5)) * step; break;      // inside a window
    }
    const CoverageReceipt receipt = ProofOfCoverage::answer_challenge(
        static_cast<constellation::SatelliteId>(100 + sat), keys[sat], verifier,
        grid.start.plus_seconds(at), rng.next());
    const Answer expected = ask(twin, receipt, offsets);
    const Answer got = ask(prepared, receipt, offsets);
    if (!same(got, expected)) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << "satellite " << sat << " verifier " << verifier << " at " << at
                      << " s: verdict " << static_cast<int>(got.verdict) << " vs "
                      << static_cast<int>(expected.verdict) << ", " << got.track.size()
                      << " vs " << expected.track.size() << " track points";
      }
    }
    valid += expected.verdict == ReceiptVerdict::kValid;
    track_points += expected.track.size();
  }
  EXPECT_EQ(mismatches, 0u);
  // The queries reach the geometry that matters: passes, not only misses.
  EXPECT_GT(valid, kQueries / 200);
  EXPECT_GT(track_points, kQueries / 20);
}

INSTANTIATE_TEST_SUITE_P(Backends, ProofOfCoverageWindowCull,
                         ::testing::Values(orbit::PropagatorBackend::kJ2Analytic,
                                           orbit::PropagatorBackend::kSgp4),
                         [](const ::testing::TestParamInfo<orbit::PropagatorBackend>& info) {
                           return std::string(info.param == orbit::PropagatorBackend::kSgp4
                                                  ? "Sgp4"
                                                  : "J2");
                         });

}  // namespace
}  // namespace mpleo::core
