#include "coverage/footprint_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "coverage/engine.hpp"
#include "util/units.hpp"

namespace mpleo::cov {
namespace {

constexpr double kPi = std::numbers::pi;
constexpr double kTwoPi = 2.0 * std::numbers::pi;
constexpr double kHalfPi = 0.5 * std::numbers::pi;

// Bound on the angle between the geodetic vertical and the geocentric
// radial; on WGS-84 it peaks at ~0.00336 rad near 45 deg latitude.
constexpr double kVerticalDeflection = 0.0035;
// Angular margin absorbing the numeric approximations downstream of the
// cone: ~1.4 km at LEO radii, orders of magnitude above the actual error.
constexpr double kAngularSlack = 2e-4;
// Pure floating-point pad on the asin/acos/atan2 chain in cap queries; the
// geometric margins above dwarf it.
constexpr double kQuerySlack = 1e-9;
// Latitude band height: 45 bands of at most 90 cells, which bounds every
// band and cell count the constructor rounds.
constexpr double kBandHeightDeg = 4.0;

[[nodiscard]] double clamp_unit(double v) { return std::clamp(v, -1.0, 1.0); }

[[nodiscard]] double wrap_lon(double lon) {
  lon = std::fmod(lon, kTwoPi);
  if (lon < 0.0) lon += kTwoPi;
  return lon;
}

}  // namespace

FootprintCone::Mask::Mask(double elevation_mask_deg)
    : exhaustive(!(elevation_mask_deg >= 0.0 && elevation_mask_deg < 90.0)) {
  if (exhaustive) return;
  const double m_eff = util::deg_to_rad(elevation_mask_deg) - kVerticalDeflection;
  const double theta = m_eff - kAngularSlack;
  cos_m_eff = std::cos(m_eff);
  cos_theta = std::cos(theta);
  sin_theta = std::sin(theta);
}

FootprintCone::Widening::Widening(double rad)
    : angle_rad(rad), cos_a(std::cos(rad)), sin_a(std::sin(rad)) {}

FootprintCone::FootprintCone(const Mask& mask, double r_min_m, double r_max_m,
                             double site_r_min_m) {
  if (mask.exhaustive || !(site_r_min_m > 0.0) || !(r_min_m > 0.0) ||
      !(r_max_m >= r_min_m) || !(r_max_m > site_r_min_m * 1.001)) {
    return;
  }
  // psi = acos(c) - theta with c = (R / r_max) cos(m_eff) in (0, 1): the
  // smallest R and largest r_max minimise c, hence maximise psi. cos and sin
  // of psi expand through the angle-difference identities.
  const double c = (site_r_min_m / r_max_m) * mask.cos_m_eff;
  const double s_c = std::sqrt(std::max(0.0, 1.0 - c * c));
  cos_psi = c * mask.cos_theta + s_c * mask.sin_theta;
  sin_psi = std::max(0.0, s_c * mask.cos_theta - c * mask.sin_theta);
  exhaustive = false;
}

FootprintCone FootprintCone::make(double r_min_m, double r_max_m, double site_r_min_m,
                                  double elevation_mask_deg) {
  FootprintCone cone(Mask(elevation_mask_deg), r_min_m, r_max_m, site_r_min_m);
  if (!cone.exhaustive) cone.psi_rad = std::acos(clamp_unit(cone.cos_psi));
  return cone;
}

double FootprintCone::dot_threshold(double r_min_m, double r_max_m) const {
  if (exhaustive) return -std::numeric_limits<double>::infinity();
  // Visible at radius r implies dot(u, p) = r cos(angle) >= r cos(psi) >=
  // r_ref cos(psi); the slack sends borderline positions to the exact test.
  const double r_ref = cos_psi >= 0.0 ? r_min_m : r_max_m;
  return cos_psi * r_ref - 1e-6 * r_max_m;
}

FootprintCone FootprintCone::widened(const Widening& angle) const {
  // For psi and a in [0, pi], psi + a < pi iff cos(psi) > cos(pi - a) =
  // -cos(a); the margin keeps a sum within round-off of pi exhaustive.
  if (exhaustive || !(angle.angle_rad >= 0.0 && angle.angle_rad < kPi) ||
      !(cos_psi > -angle.cos_a + 1e-12)) {
    return {};
  }
  FootprintCone out;
  out.cos_psi = cos_psi * angle.cos_a - sin_psi * angle.sin_a;
  out.sin_psi = sin_psi * angle.cos_a + cos_psi * angle.sin_a;
  out.psi_rad = psi_rad + angle.angle_rad;
  out.exhaustive = false;
  return out;
}

double max_abs_sin_latitude(const orbit::EphemerisTable& table) {
  if (table.size() == 0) return 0.0;
  const double r_min = table.min_radius_m();
  if (!(r_min > 0.0)) return 1.0;  // degenerate position: assume anywhere
  // |z_k| / r_k <= max|z| / r_k <= max|z| / r_min at every step, and IEEE
  // division is monotone in both operands, so the rounded bound is never
  // below the rounded per-step maximum.
  return std::min(table.max_abs_z_m() / r_min, 1.0);
}

SiteLatitudePrune::SiteLatitudePrune(std::span<const orbit::TopocentricFrame> sites,
                                     double elevation_mask_deg)
    : SiteLatitudePrune(elevation_mask_deg) {
  abs_latitude_rad_.reserve(sites.size());
  for (const orbit::TopocentricFrame& site : sites) add_site(site.origin_ecef());
}

SiteLatitudePrune::SiteLatitudePrune(std::span<const GroundSite> sites,
                                     double elevation_mask_deg)
    : SiteLatitudePrune(elevation_mask_deg) {
  abs_latitude_rad_.reserve(sites.size());
  for (const GroundSite& site : sites) add_site(site.frame.origin_ecef());
}

void SiteLatitudePrune::add_site(const util::Vec3& origin) {
  const double r = origin.norm();
  site_r_min_m_ = abs_latitude_rad_.empty() ? r : std::min(site_r_min_m_, r);
  const double sin_lat = r > 0.0 ? origin.z / r : 0.0;
  abs_latitude_rad_.push_back(std::abs(std::asin(clamp_unit(sin_lat))));
}

double SiteLatitudePrune::reach_rad(const orbit::EphemerisTable& table) const {
  const double psi =
      FootprintCone::make(table.min_radius_m(), table.max_radius_m(), site_r_min_m_, mask_deg_)
          .psi_rad;
  if (psi >= kHalfPi) return std::numeric_limits<double>::infinity();
  // Visible => central angle <= psi => |lat_site - lat_sat| <= psi.
  return std::asin(clamp_unit(max_abs_sin_latitude(table))) + psi + kQuerySlack;
}

FootprintIndex::FootprintIndex(std::span<const orbit::TopocentricFrame> frames) {
  band_height_rad_ = util::deg_to_rad(kBandHeightDeg);
  band_count_ = static_cast<std::size_t>(std::ceil(kPi / band_height_rad_));
  const std::size_t n = frames.size();

  // Cells per band shrink with cos(latitude) so cells stay roughly square
  // (equal-area, same scheme as cov::EarthGrid); the equatorial band gets
  // ~2*pi / band_height cells.
  const double base_cells = std::ceil(kTwoPi / band_height_rad_);
  band_cell_begin_.assign(band_count_ + 1, 0);
  for (std::size_t b = 0; b < band_count_; ++b) {
    const double center =
        -kHalfPi + (static_cast<double>(b) + 0.5) * band_height_rad_;
    const double cos_c = std::cos(std::clamp(center, -kHalfPi, kHalfPi));
    const auto cells = static_cast<std::uint32_t>(
        std::max(1.0, std::round(base_cells * std::max(0.0, cos_c))));
    band_cell_begin_[b + 1] = band_cell_begin_[b] + cells;
  }
  const std::size_t total_cells = band_cell_begin_[band_count_];

  // Two passes: count sites per flat cell, prefix-sum, scatter into SoA.
  std::vector<std::uint32_t> cell_of(n, 0);
  std::vector<std::uint32_t> counts(total_cells, 0);
  std::vector<double> unit(3 * n, 0.0);
  min_site_radius_m_ = n == 0 ? 0.0 : std::numeric_limits<double>::max();
  for (std::size_t i = 0; i < n; ++i) {
    const util::Vec3& origin = frames[i].origin_ecef();
    const double r = origin.norm();
    min_site_radius_m_ = std::min(min_site_radius_m_, r);
    double lat = 0.0, lon = 0.0;
    if (r > 0.0) {
      const double inv_r = 1.0 / r;
      unit[3 * i] = origin.x * inv_r;
      unit[3 * i + 1] = origin.y * inv_r;
      unit[3 * i + 2] = origin.z * inv_r;
      lat = std::asin(clamp_unit(origin.z * inv_r));
      lon = wrap_lon(std::atan2(origin.y, origin.x));
    }
    // Zero-radius sites keep a zero unit vector and land in the equatorial
    // cell; min_site_radius_m() == 0 then forces the paired FootprintCone
    // exhaustive (psi = pi), so every query still returns them.
    const std::size_t b = band_of(lat);
    const std::uint32_t cells_b = band_cell_begin_[b + 1] - band_cell_begin_[b];
    auto ci = static_cast<std::uint32_t>(lon / kTwoPi * cells_b);
    ci = std::min(ci, cells_b - 1);
    cell_of[i] = band_cell_begin_[b] + ci;
    ++counts[cell_of[i]];
  }
  if (n == 0) min_site_radius_m_ = 0.0;

  cell_offsets_.assign(total_cells + 1, 0);
  for (std::size_t c = 0; c < total_cells; ++c) {
    cell_offsets_[c + 1] = cell_offsets_[c] + counts[c];
  }
  ux_.resize(n);
  uy_.resize(n);
  uz_.resize(n);
  site_ids_.resize(n);
  std::vector<std::uint32_t> cursor(cell_offsets_.begin(),
                                    cell_offsets_.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t slot = cursor[cell_of[i]]++;
    ux_[slot] = unit[3 * i];
    uy_[slot] = unit[3 * i + 1];
    uz_[slot] = unit[3 * i + 2];
    site_ids_[slot] = static_cast<std::uint32_t>(i);
  }
}

std::size_t FootprintIndex::band_of(double lat_rad) const noexcept {
  // Precondition: lat_rad is finite (query_cap passes a clamped asin plus or
  // minus a psi below pi), so the floor fits in a long.
  const double shifted = (lat_rad + kHalfPi) / band_height_rad_;
  const auto b = static_cast<long>(std::floor(shifted));
  return static_cast<std::size_t>(
      std::clamp(b, 0L, static_cast<long>(band_count_) - 1L));
}

void FootprintIndex::query_cap(const util::Vec3& center, double psi_rad,
                               std::vector<Range>& out) const {
  const auto size = static_cast<std::uint32_t>(site_ids_.size());
  if (size == 0) return;
  const double norm = center.norm();
  if (!(norm > 0.0) || !(psi_rad < kPi - kQuerySlack)) {
    out.push_back({0, size});
    return;
  }
  const double lat0 = std::asin(clamp_unit(center.z / norm));
  const double lon0 = wrap_lon(std::atan2(center.y, center.x));
  const double sin0 = std::sin(lat0);
  const double cos0 = std::cos(lat0);
  const double psi = psi_rad + kQuerySlack;
  const double cos_psi = std::cos(psi);

  const std::size_t b_lo = band_of(lat0 - psi);
  const std::size_t b_hi = band_of(lat0 + psi);
  for (std::size_t b = b_lo; b <= b_hi; ++b) {
    const double band_lo = -kHalfPi + static_cast<double>(b) * band_height_rad_;
    const double band_hi = band_lo + band_height_rad_;
    // Latitudes this band shares with the cap's latitude belt.
    const double lo = std::clamp(std::max(band_lo, lat0 - psi), -kHalfPi, kHalfPi);
    const double hi = std::clamp(std::min(band_hi, lat0 + psi), -kHalfPi, kHalfPi);
    if (lo > hi) continue;

    // Longitude half-width at latitude lambda: cos(dlon) >= f(lambda) with
    // f = (cos psi - sin lat0 * sin lambda) / (cos lat0 * cos lambda).
    // Minimise f over [lo, hi]: the interior critical point solves
    // sin(lambda*) = sin(lat0) / cos(psi); evaluate it plus both endpoints.
    double min_f = std::numeric_limits<double>::max();
    bool all_lon = false;
    const auto eval = [&](double lambda) {
      const double denom = cos0 * std::cos(lambda);
      const double numer = cos_psi - sin0 * std::sin(lambda);
      if (denom <= 1e-12) {
        // Cap centred at a pole, or the band touches one: every longitude is
        // within reach unless the cap provably misses the whole latitude
        // (numer > 0 with a vanishing denominator) — keep it conservative.
        if (numer <= 1e-12) all_lon = true;
        return;
      }
      min_f = std::min(min_f, numer / denom);
    };
    eval(lo);
    eval(hi);
    if (cos_psi > 1e-12) {
      const double s = sin0 / cos_psi;
      if (s >= -1.0 && s <= 1.0) {
        const double crit = std::asin(s);
        if (crit > lo && crit < hi) eval(crit);
      }
    } else {
      // psi >= 90 deg: f is monotone in tan(lambda) only for cos_psi > 0;
      // cover the wide-cap case by accepting all longitudes in this band.
      all_lon = true;
    }

    const std::uint32_t cell_begin = band_cell_begin_[b];
    const std::uint32_t cells_b = band_cell_begin_[b + 1] - cell_begin;
    const auto emit_cells = [&](std::uint32_t c0, std::uint32_t c1) {
      const std::uint32_t first = cell_offsets_[cell_begin + c0];
      const std::uint32_t last = cell_offsets_[cell_begin + c1 + 1];
      if (first < last) out.push_back({first, last});
    };
    if (all_lon || min_f <= -1.0 + 1e-12) {
      emit_cells(0, cells_b - 1);
      continue;
    }
    if (min_f > 1.0) continue;  // band corner outside the cap entirely
    const double dlon = std::acos(clamp_unit(min_f)) + kQuerySlack;
    // lon0 is in [0, 2*pi) and dlon within a slack of [0, pi], so both
    // floors lie within one of [-cells_b, 2 * cells_b).
    const double width = kTwoPi / static_cast<double>(cells_b);
    const auto c_lo = static_cast<long>(std::floor((lon0 - dlon) / width));
    const auto c_hi = static_cast<long>(std::floor((lon0 + dlon) / width));
    if (c_hi - c_lo + 1 >= static_cast<long>(cells_b)) {
      emit_cells(0, cells_b - 1);
      continue;
    }
    const auto wrap = [&](long c) {
      long m = c % static_cast<long>(cells_b);
      if (m < 0) m += static_cast<long>(cells_b);
      return static_cast<std::uint32_t>(m);
    };
    const std::uint32_t w_lo = wrap(c_lo);
    const std::uint32_t w_hi = wrap(c_hi);
    if (w_lo <= w_hi) {
      emit_cells(w_lo, w_hi);
    } else {
      // Dateline wrap: two ascending, disjoint runs.
      emit_cells(0, w_hi);
      emit_cells(w_lo, cells_b - 1);
    }
  }
}

}  // namespace mpleo::cov
