// WGS-84 geodesy and reference-frame transforms.
//
// Frames:
//   ECI  — Earth-centred inertial (TEME-like; z = rotation axis).
//   ECEF — Earth-centred Earth-fixed; rotates with GMST about z.
//   Topocentric (ENU) — local east/north/up at a ground site.
#pragma once

#include "orbit/time.hpp"
#include "util/vec3.hpp"

namespace mpleo::orbit {

using util::Vec3;

// Geodetic coordinates on the WGS-84 ellipsoid.
struct Geodetic {
  double latitude_rad = 0.0;   // [-pi/2, pi/2]
  double longitude_rad = 0.0;  // (-pi, pi]
  double altitude_m = 0.0;     // height above the ellipsoid

  [[nodiscard]] static Geodetic from_degrees(double lat_deg, double lon_deg,
                                             double alt_m = 0.0) noexcept;
};

// Geodetic -> ECEF (closed form).
[[nodiscard]] Vec3 geodetic_to_ecef(const Geodetic& g) noexcept;

// ECEF -> geodetic (Bowring's method, one refinement; < 1e-9 rad error for
// near-Earth points).
[[nodiscard]] Geodetic ecef_to_geodetic(const Vec3& ecef) noexcept;

// Frame rotation about z by the sidereal angle.
[[nodiscard]] Vec3 eci_to_ecef(const Vec3& eci, double gmst) noexcept;
[[nodiscard]] inline Vec3 eci_to_ecef(const Vec3& eci, const TimePoint& t) noexcept {
  return eci_to_ecef(eci, gmst_rad(t));
}

// Precomputed local east/north/up basis at a ground site; makes per-step
// elevation tests a couple of dot products.
class TopocentricFrame {
 public:
  explicit TopocentricFrame(const Geodetic& site) noexcept;

  [[nodiscard]] const Vec3& origin_ecef() const noexcept { return origin_; }
  [[nodiscard]] const Vec3& up() const noexcept { return up_; }
  [[nodiscard]] const Vec3& east() const noexcept { return east_; }
  [[nodiscard]] const Vec3& north() const noexcept { return north_; }

  // Elevation angle (radians) of a target given in ECEF; negative when the
  // target is below the local horizon.
  [[nodiscard]] double elevation_rad(const Vec3& target_ecef) const noexcept;
  // Slant range (metres).
  [[nodiscard]] double range_m(const Vec3& target_ecef) const noexcept {
    return (target_ecef - origin_).norm();
  }

  // Fast visibility test: true iff elevation(target) >= mask. Equivalent to
  // elevation_rad(..) >= mask_rad but avoids the asin. Inline: it is the
  // exact test in the inner loops of the visibility cull and the scheduler.
  // Precondition: sin_mask >= 0 (masks below the horizon are not meaningful
  // for ground stations).
  [[nodiscard]] bool visible_above(const Vec3& target_ecef, double sin_mask) const noexcept {
    double range_squared = 0.0;
    return visible_above(origin_, up_, target_ecef, sin_mask, range_squared);
  }

  // The same test on a bare (origin, up) pair, for tables that keep only
  // those two vectors of a site. When the target is above the horizon,
  // `range_squared` receives |target - origin|², which the test computes
  // anyway and whose sqrt is range_m().
  [[nodiscard]] static bool visible_above(const Vec3& origin, const Vec3& up,
                                          const Vec3& target_ecef, double sin_mask,
                                          double& range_squared) noexcept {
    const Vec3 rho = target_ecef - origin;
    const double along_up = dot(rho, up);
    // sin(el) >= sin_mask  <=>  along_up >= sin_mask * |rho| (mask in [0, pi/2)).
    if (along_up < 0.0) return false;
    range_squared = rho.norm_squared();
    return along_up * along_up >= sin_mask * sin_mask * range_squared;
  }

 private:
  Vec3 origin_;
  Vec3 up_;
  Vec3 east_;
  Vec3 north_;
};

}  // namespace mpleo::orbit
