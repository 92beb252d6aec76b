#include "orbit/elements.hpp"

#include <algorithm>
#include <cmath>

#include "orbit/kepler.hpp"
#include "util/angles.hpp"
#include "util/units.hpp"

namespace mpleo::orbit {
namespace {
constexpr double kMu = util::kMuEarth;
}

double ClassicalElements::mean_motion_rad_per_sec() const noexcept {
  const double a = semi_major_axis_m;
  return std::sqrt(kMu / (a * a * a));
}

double ClassicalElements::period_seconds() const noexcept {
  return util::kTwoPi / mean_motion_rad_per_sec();
}

double ClassicalElements::semi_latus_rectum_m() const noexcept {
  return semi_major_axis_m * (1.0 - eccentricity * eccentricity);
}

ClassicalElements ClassicalElements::circular(double altitude_m, double inclination_deg,
                                              double raan_deg,
                                              double mean_anomaly_deg) noexcept {
  ClassicalElements coe;
  coe.semi_major_axis_m = util::kEarthMeanRadiusM + altitude_m;
  coe.eccentricity = 0.0;
  coe.inclination_rad = util::deg_to_rad(inclination_deg);
  coe.raan_rad = util::wrap_two_pi(util::deg_to_rad(raan_deg));
  coe.arg_perigee_rad = 0.0;
  coe.mean_anomaly_rad = util::wrap_two_pi(util::deg_to_rad(mean_anomaly_deg));
  return coe;
}

StateVector elements_to_state(const ClassicalElements& coe) noexcept {
  const double e = coe.eccentricity;
  const double E = solve_kepler(coe.mean_anomaly_rad, e);
  const double nu = true_from_eccentric(E, e);
  const double p = coe.semi_latus_rectum_m();
  const double r = p / (1.0 + e * std::cos(nu));

  // Perifocal frame (PQW): P toward perigee, W along angular momentum.
  const double cos_nu = std::cos(nu);
  const double sin_nu = std::sin(nu);
  const Vec3 r_pqw{r * cos_nu, r * sin_nu, 0.0};
  const double vf = std::sqrt(kMu / p);
  const Vec3 v_pqw{-vf * sin_nu, vf * (e + cos_nu), 0.0};

  // Rotate PQW -> ECI: Rz(-raan) Rx(-i) Rz(-argp).
  const double cr = std::cos(coe.raan_rad), sr = std::sin(coe.raan_rad);
  const double ci = std::cos(coe.inclination_rad), si = std::sin(coe.inclination_rad);
  const double cw = std::cos(coe.arg_perigee_rad), sw = std::sin(coe.arg_perigee_rad);

  auto rotate = [&](const Vec3& v) noexcept -> Vec3 {
    // Row-major composition of the three rotations.
    const double r11 = cr * cw - sr * sw * ci;
    const double r12 = -cr * sw - sr * cw * ci;
    const double r21 = sr * cw + cr * sw * ci;
    const double r22 = -sr * sw + cr * cw * ci;
    const double r31 = sw * si;
    const double r32 = cw * si;
    return {r11 * v.x + r12 * v.y, r21 * v.x + r22 * v.y, r31 * v.x + r32 * v.y};
  };

  return {rotate(r_pqw), rotate(v_pqw)};
}

}  // namespace mpleo::orbit
