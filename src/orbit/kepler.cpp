#include "orbit/kepler.hpp"

#include <cmath>

#include "util/angles.hpp"
#include "util/units.hpp"

namespace mpleo::orbit {

double solve_kepler(double mean_anomaly_rad, double eccentricity) noexcept {
  const double e = eccentricity;
  // Reduce to [-pi, pi] for the solve, restore the branch at the end.
  const double m_wrapped = util::wrap_pi(mean_anomaly_rad);
  const double branch = mean_anomaly_rad - m_wrapped;

  if (e < 1e-12) return mean_anomaly_rad;

  // Starter: E0 = M + e*sin(M) works well for moderate e; for high e near
  // M ~ 0 use the cube-root starter.
  double E = m_wrapped + e * std::sin(m_wrapped);
  if (e > 0.8) {
    E = m_wrapped >= 0.0 ? std::cbrt(6.0 * m_wrapped) : -std::cbrt(-6.0 * m_wrapped);
  }

  double lo = -util::kPi, hi = util::kPi;
  for (int iter = 0; iter < 60; ++iter) {
    const double f = E - e * std::sin(E) - m_wrapped;
    if (std::fabs(f) < 1e-13) break;
    if (f > 0.0) hi = E; else lo = E;
    const double fp = 1.0 - e * std::cos(E);
    double next = E - f / fp;
    // Bisection fallback if Newton leaves the bracket.
    if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);
    E = next;
  }
  return E + branch;
}

double true_from_eccentric(double E, double e) noexcept {
  const double cos_e = std::cos(E);
  const double sin_e = std::sin(E);
  const double nu = std::atan2(std::sqrt(1.0 - e * e) * sin_e, cos_e - e);
  // Keep the same branch as E.
  return nu + (E - util::wrap_pi(E));
}

}  // namespace mpleo::orbit
