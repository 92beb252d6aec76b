#include "orbit/geodesy.hpp"

#include <algorithm>
#include <cmath>

#include "util/units.hpp"

namespace mpleo::orbit {
namespace {

constexpr double kA = util::kEarthEquatorialRadiusM;
constexpr double kF = util::kEarthFlattening;
constexpr double kE2 = kF * (2.0 - kF);          // first eccentricity squared
constexpr double kB = kA * (1.0 - kF);           // semi-minor axis
constexpr double kEp2 = kE2 / (1.0 - kE2);       // second eccentricity squared

}  // namespace

Geodetic Geodetic::from_degrees(double lat_deg, double lon_deg, double alt_m) noexcept {
  return {util::deg_to_rad(lat_deg), util::deg_to_rad(lon_deg), alt_m};
}

Vec3 geodetic_to_ecef(const Geodetic& g) noexcept {
  const double sin_lat = std::sin(g.latitude_rad);
  const double cos_lat = std::cos(g.latitude_rad);
  const double n = kA / std::sqrt(1.0 - kE2 * sin_lat * sin_lat);
  return {(n + g.altitude_m) * cos_lat * std::cos(g.longitude_rad),
          (n + g.altitude_m) * cos_lat * std::sin(g.longitude_rad),
          (n * (1.0 - kE2) + g.altitude_m) * sin_lat};
}

Geodetic ecef_to_geodetic(const Vec3& p) noexcept {
  const double lon = std::atan2(p.y, p.x);
  const double rho = std::hypot(p.x, p.y);

  // Bowring's initial parametric latitude, then one correction pass.
  double beta = std::atan2(p.z * kA, rho * kB);
  double lat = std::atan2(p.z + kEp2 * kB * std::pow(std::sin(beta), 3),
                          rho - kE2 * kA * std::pow(std::cos(beta), 3));
  beta = std::atan2((1.0 - kF) * std::sin(lat), std::cos(lat));
  lat = std::atan2(p.z + kEp2 * kB * std::pow(std::sin(beta), 3),
                   rho - kE2 * kA * std::pow(std::cos(beta), 3));

  const double sin_lat = std::sin(lat);
  const double n = kA / std::sqrt(1.0 - kE2 * sin_lat * sin_lat);
  double alt;
  if (std::fabs(std::cos(lat)) > 1e-10) {
    alt = rho / std::cos(lat) - n;
  } else {
    alt = std::fabs(p.z) - kB;  // polar case
  }
  return {lat, lon, alt};
}

Vec3 eci_to_ecef(const Vec3& eci, double gmst) noexcept {
  const double c = std::cos(gmst);
  const double s = std::sin(gmst);
  return {c * eci.x + s * eci.y, -s * eci.x + c * eci.y, eci.z};
}

TopocentricFrame::TopocentricFrame(const Geodetic& site) noexcept
    : origin_(geodetic_to_ecef(site)) {
  const double sin_lat = std::sin(site.latitude_rad);
  const double cos_lat = std::cos(site.latitude_rad);
  const double sin_lon = std::sin(site.longitude_rad);
  const double cos_lon = std::cos(site.longitude_rad);
  // Geodetic (ellipsoidal-normal) up; correct for elevation angles.
  up_ = {cos_lat * cos_lon, cos_lat * sin_lon, sin_lat};
  east_ = {-sin_lon, cos_lon, 0.0};
  north_ = {-sin_lat * cos_lon, -sin_lat * sin_lon, cos_lat};
}

double TopocentricFrame::elevation_rad(const Vec3& target_ecef) const noexcept {
  const Vec3 rho = target_ecef - origin_;
  const double n = rho.norm();
  if (n <= 0.0) return util::kPi / 2.0;
  // Clamp: rounding can push the ratio infinitesimally past +-1 at zenith.
  return std::asin(std::clamp(dot(rho, up_) / n, -1.0, 1.0));
}

}  // namespace mpleo::orbit
