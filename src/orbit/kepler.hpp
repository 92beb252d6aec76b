// Kepler's equation and anomaly conversions for elliptic orbits (0 <= e < 1).
#pragma once

namespace mpleo::orbit {

// Solves Kepler's equation M = E - e*sin(E) for the eccentric anomaly E.
// Newton iteration with a high-eccentricity-safe starter and a bisection
// fallback; converges to |f(E)| < 1e-12 for all e in [0, 1).
// M may be any real; the result is in the same 2*pi branch as M.
[[nodiscard]] double solve_kepler(double mean_anomaly_rad, double eccentricity) noexcept;

// Eccentric -> true anomaly (radians). Precondition: 0 <= e < 1.
[[nodiscard]] double true_from_eccentric(double eccentric_anomaly_rad,
                                         double eccentricity) noexcept;

}  // namespace mpleo::orbit
