// Classical (Keplerian) orbital elements and conversion to Cartesian
// inertial state vectors.
#pragma once

#include "util/vec3.hpp"

namespace mpleo::orbit {

using util::Vec3;

// Inertial position (m) and velocity (m/s).
struct StateVector {
  Vec3 position;
  Vec3 velocity;
};

// Classical orbital elements for a bound (elliptic) orbit.
// Angles in radians; semi-major axis in metres.
struct ClassicalElements {
  double semi_major_axis_m = 6928137.0;  // ~550 km altitude
  double eccentricity = 0.0;             // [0, 1)
  double inclination_rad = 0.0;          // [0, pi]
  double raan_rad = 0.0;                 // right ascension of ascending node
  double arg_perigee_rad = 0.0;
  double mean_anomaly_rad = 0.0;

  // Mean motion n = sqrt(mu/a^3), rad/s.
  [[nodiscard]] double mean_motion_rad_per_sec() const noexcept;
  // Orbital period, seconds.
  [[nodiscard]] double period_seconds() const noexcept;
  // Semi-latus rectum p = a(1-e^2), metres.
  [[nodiscard]] double semi_latus_rectum_m() const noexcept;

  // Convenience constructor for circular orbits, taking the altitude above
  // the mean Earth radius and angles in degrees.
  [[nodiscard]] static ClassicalElements circular(double altitude_m, double inclination_deg,
                                                  double raan_deg,
                                                  double mean_anomaly_deg) noexcept;
};

// Elements -> inertial state (position/velocity) at the instant the mean
// anomaly refers to.
[[nodiscard]] StateVector elements_to_state(const ClassicalElements& coe) noexcept;

}  // namespace mpleo::orbit
