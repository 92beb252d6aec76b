#include "coverage/visibility_cull.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>

#include "util/rounding.hpp"
#include "util/units.hpp"

namespace mpleo::cov {
namespace {

constexpr double kPi = std::numbers::pi;
constexpr double kTwoPi = 2.0 * std::numbers::pi;

// Additional margin on the latitude band (~700 m) before converting it to
// argument-of-latitude arcs.
constexpr double kLatitudeSlack = 1e-4;

}  // namespace

VisibilityCuller::VisibilityCuller(const orbit::TimeGrid& grid, double elevation_mask_deg)
    : step_seconds_(grid.step_seconds),
      sin_mask_(std::sin(util::deg_to_rad(elevation_mask_deg))),
      cone_mask_(elevation_mask_deg),
      band_widening_(kLatitudeSlack) {}

template <class Sink>
void VisibilityCuller::fill_impl(const orbit::EphemerisTable& ephemeris,
                                 const orbit::TopocentricFrame& frame,
                                 Sink&& set_bit) const {
  const std::size_t n = ephemeris.size();
  const double* xs = ephemeris.x().data();
  const double* ys = ephemeris.y().data();
  const double* zs = ephemeris.z().data();

  const util::Vec3& origin = frame.origin_ecef();
  const double site_r = origin.norm();
  const double r_min = ephemeris.min_radius_m();
  const double r_max = ephemeris.max_radius_m();
  // Degenerate geometry (mask outside the cone derivation's domain, site at
  // the geocentre, or the satellite not safely above the site's radius)
  // leaves the cone exhaustive: test every step exactly.
  const FootprintCone cone(cone_mask_, r_min, r_max, site_r);
  if (cone.exhaustive) {
    for (std::size_t k = 0; k < n; ++k) {
      if (frame.visible_above({xs[k], ys[k], zs[k]}, sin_mask_)) set_bit(k);
    }
    return;
  }

  // Cone cull: a step below the cone's dot threshold cannot clear the mask;
  // the threshold's slack sends borderline steps on to the exact test.
  const double inv_r = 1.0 / site_r;
  const double ux = origin.x * inv_r;
  const double uy = origin.y * inv_r;
  const double uz = origin.z * inv_r;
  const double threshold = cone.dot_threshold(r_min, r_max);

  const auto exact = [&](std::size_t k) {
    const util::Vec3 p{xs[k], ys[k], zs[k]};
    if (ux * p.x + uy * p.y + uz * p.z >= threshold &&
        frame.visible_above(p, sin_mask_)) {
      set_bit(k);
    }
  };

  const orbit::LinearLatitudeArgument& arg = ephemeris.latitude_argument();
  if (!(arg.valid && arg.du > 1e-12 && arg.sin_incl > 1e-9)) {
    // Eccentric (or degenerate) orbit: cone-test every step; the cull still
    // rejects the vast majority with three multiplies.
    for (std::size_t k = 0; k < n; ++k) exact(k);
    return;
  }

  // Circular orbit: z(k) = r * sin_i * sin(u0 + du*k) exactly, so the
  // latitude band |lat_sat - phi| <= psi_band translates into closed arcs of
  // the argument of latitude u. Only the grid steps whose u lands in an arc
  // can pass the cone; enumerate them directly instead of scanning. The band
  // is the cone widened by kLatitudeSlack (an exhaustive band, cos = -1,
  // leaves both sides open), and its edges expand as
  //   sin(phi +- psi_band) = sin_phi * cos_d +- cos_phi * sin_d.
  const FootprintCone band = cone.widened(band_widening_);
  const double cos_d = band.cos_psi;
  const double sin_d = band.sin_psi;
  const double sin_phi = origin.z * inv_r;  // geocentric site latitude
  const double cos_phi = std::sqrt(std::max(0.0, 1.0 - sin_phi * sin_phi));
  const double axial = sin_phi * cos_d;
  const double cross = cos_phi * sin_d;
  const double inv_sin_i = 1.0 / arg.sin_incl;
  // sin(u) bounds of the band; a band edge past a pole (phi +- psi_band
  // beyond +-pi/2, i.e. sin_phi beyond +-cos_d) leaves that side unbounded.
  const double ql =
      sin_phi <= -(cos_d - 1e-12) ? -2.0 : (axial - cross) * inv_sin_i;
  const double qh = sin_phi >= cos_d - 1e-12 ? 2.0 : (axial + cross) * inv_sin_i;
  if (ql > 1.0 || qh < -1.0) return;  // orbit never reaches the site's band

  const bool lo_open = ql <= -1.0;
  const bool hi_open = qh >= 1.0;
  if (lo_open && hi_open) {
    for (std::size_t k = 0; k < n; ++k) exact(k);
    return;
  }

  constexpr double kArcSlack = 1e-6;  // pure FP rounding of the asin path
  double arcs[2][2];
  std::size_t arc_count = 1;
  if (hi_open) {
    // sin(u) >= ql only: one arc through the ascending maximum.
    const double a1 = std::asin(ql);
    arcs[0][0] = a1 - kArcSlack;
    arcs[0][1] = kPi - a1 + kArcSlack;
  } else if (lo_open) {
    // sin(u) <= qh only: one arc through the descending minimum.
    const double a2 = std::asin(qh);
    arcs[0][0] = kPi - a2 - kArcSlack;
    arcs[0][1] = kTwoPi + a2 + kArcSlack;
  } else {
    const double a1 = std::asin(ql);
    const double a2 = std::asin(qh);
    arcs[0][0] = a1 - kArcSlack;
    arcs[0][1] = a2 + kArcSlack;
    arcs[1][0] = kPi - a2 - kArcSlack;
    arcs[1][1] = kPi - a1 + kArcSlack;
    arc_count = 2;
  }

  // Crossing prefilter: the satellite's ECEF direction drifts at most v_ang
  // radians per step (orbital rate plus Earth rotation), so if the middle
  // step of a band crossing lies outside the cone widened by alpha — half
  // the crossing width plus margin, in drift — no step of that crossing can
  // be inside the cone and the whole run is skipped with a single dot
  // product. A widening past pi is exhaustive and skips nothing.
  const double inv_du = 1.0 / arg.du;
  const double widest = std::max(arcs[0][1] - arcs[0][0],
                                 arc_count == 2 ? arcs[1][1] - arcs[1][0] : 0.0);
  const double v_ang = arg.du + 7.2921159e-5 * step_seconds_;
  const double alpha = (0.5 * widest * inv_du + 2.0) * v_ang;
  const double relaxed_threshold =
      cone.widened(FootprintCone::Widening(alpha)).dot_threshold(r_min, r_max);

  // Each arc recurs once per orbit; walk its 2*pi translates across the grid
  // with an incremental step counter (no divisions in the loop). Each
  // crossing's step range is clamped to [-1, n - 1] before rounding, which
  // keeps the integer floor/ceil inside their input bound and leaves the
  // clamped [0, n - 1] range unchanged.
  const double u_first = arg.u0;
  const double steps_per_orbit = kTwoPi * inv_du;
  const double last_index = static_cast<double>(n - 1);
  const double last_step = last_index + 1e-9;
  for (std::size_t ai = 0; ai < arc_count; ++ai) {
    const double lo = arcs[ai][0];
    const double hi = arcs[ai][1];
    // First translate whose end can reach the grid start (biased one orbit
    // early; an empty clamped range below costs nothing).
    const double m0 = std::ceil((u_first - hi) / kTwoPi) - 1.0;
    double k_lo = (lo + kTwoPi * m0 - u_first) * inv_du;
    double k_hi = k_lo + (hi - lo) * inv_du;
    while (k_lo <= last_step) {
      const std::int64_t k_begin = std::max<std::int64_t>(
          0, util::ceil_to_int64(std::max(k_lo - 1e-9, -1.0)));
      const std::int64_t k_end =
          util::floor_to_int64(std::clamp(k_hi + 1e-9, -1.0, last_index));
      if (k_begin <= k_end) {
        const auto k_mid = static_cast<std::size_t>((k_begin + k_end) / 2);
        if (ux * xs[k_mid] + uy * ys[k_mid] + uz * zs[k_mid] >= relaxed_threshold) {
          for (std::int64_t k = k_begin; k <= k_end; ++k) exact(static_cast<std::size_t>(k));
        }
      }
      k_lo += steps_per_orbit;
      k_hi += steps_per_orbit;
    }
  }
}

void VisibilityCuller::fill(const orbit::EphemerisTable& ephemeris,
                            const orbit::TopocentricFrame& frame, StepMask& out) const {
  fill_impl(ephemeris, frame, [&out](std::size_t k) { out.set(k); });
}

void VisibilityCuller::fill(const orbit::EphemerisTable& ephemeris,
                            const orbit::TopocentricFrame& frame,
                            std::span<std::uint64_t> words,
                            const CullCounters& counters) const {
  fill_impl(ephemeris, frame, [words](std::size_t k) {
    words[k >> 6] |= std::uint64_t{1} << (k & 63);
  });
  std::size_t visible = 0;
  for (const std::uint64_t w : words) visible += static_cast<std::size_t>(std::popcount(w));
  counters.masks_filled.add(1);
  counters.visible_steps.add(visible);
}

}  // namespace mpleo::cov
