#include "coverage/doppler.hpp"

#include <bit>
#include <cmath>

#include "coverage/engine.hpp"
#include "coverage/step_mask.hpp"
#include "coverage/visibility_cull.hpp"
#include "orbit/propagator.hpp"
#include "util/units.hpp"

namespace mpleo::cov {

RangeRate range_rate_ecef(const util::Vec3& v_eci, double gmst,
                          const util::Vec3& r_ecef,
                          const util::Vec3& site_origin_ecef) noexcept {
  const util::Vec3 omega{0.0, 0.0, util::kEarthRotationRateRadPerSec};
  // Velocity in the rotating frame: rotate the inertial velocity, then
  // subtract the frame-rotation term omega x r.
  const util::Vec3 v_rotated = orbit::eci_to_ecef(v_eci, gmst);
  const util::Vec3 v_ecef = v_rotated - cross(omega, r_ecef);

  const util::Vec3 rho = r_ecef - site_origin_ecef;
  RangeRate result;
  result.range_m = rho.norm();
  result.range_rate_m_per_s =
      result.range_m > 0.0 ? dot(v_ecef, rho) / result.range_m : 0.0;
  return result;
}

double doppler_shift_hz(double range_rate_m_per_s, double carrier_hz) noexcept {
  return -range_rate_m_per_s / util::kSpeedOfLightMPerSec * carrier_hz;
}

std::vector<DopplerSample> doppler_profile(const constellation::Satellite& satellite,
                                           const orbit::EphemerisTable& ephemeris,
                                           const orbit::TopocentricFrame& site,
                                           const orbit::TimeGrid& grid,
                                           double elevation_mask_deg, double carrier_hz,
                                           orbit::PropagatorBackend backend) {
  const orbit::AnyPropagator prop = orbit::make_propagator(ephemeris_spec(satellite, backend));
  const double mask_rad = util::deg_to_rad(elevation_mask_deg);

  // Candidate steps from the shared cull; the full state vector (position +
  // inertial velocity) is only evaluated inside passes.
  const VisibilityCuller culler(grid, elevation_mask_deg);
  StepMask visible(ephemeris.size());
  culler.fill(ephemeris, site, visible);

  std::vector<DopplerSample> samples;
  const std::span<const std::uint64_t> words = visible.words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    std::uint64_t bits = words[w];
    while (bits != 0) {
      const std::size_t i = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      const orbit::TimePoint t = grid.at(i);
      const orbit::StateVector state = prop.state_at(t);
      const double gmst = orbit::gmst_rad(t);
      const util::Vec3 r_ecef = orbit::eci_to_ecef(state.position, gmst);

      const double elevation = site.elevation_rad(r_ecef);
      if (elevation < mask_rad) continue;

      const RangeRate rr =
          range_rate_ecef(state.velocity, gmst, r_ecef, site.origin_ecef());

      DopplerSample sample;
      sample.offset_seconds = grid.step_seconds * static_cast<double>(i);
      sample.range_m = rr.range_m;
      sample.range_rate_m_per_s = rr.range_rate_m_per_s;
      sample.doppler_shift_hz = doppler_shift_hz(rr.range_rate_m_per_s, carrier_hz);
      sample.elevation_rad = elevation;
      samples.push_back(sample);
    }
  }
  return samples;
}

std::vector<DopplerSample> doppler_profile(const constellation::Satellite& satellite,
                                           const orbit::TopocentricFrame& site,
                                           const orbit::TimeGrid& grid,
                                           double elevation_mask_deg, double carrier_hz,
                                           orbit::PropagatorBackend backend) {
  const orbit::EphemerisTable table = orbit::EphemerisTable::compute(
      orbit::make_propagator(ephemeris_spec(satellite, backend)), grid);
  return doppler_profile(satellite, table, site, grid, elevation_mask_deg, carrier_hz,
                         backend);
}

double max_doppler_bound_hz(double altitude_m, double carrier_hz) {
  const double orbital_speed =
      std::sqrt(util::kMuEarth / (util::kEarthMeanRadiusM + altitude_m));
  return carrier_hz * orbital_speed / util::kSpeedOfLightMPerSec;
}

}  // namespace mpleo::cov
