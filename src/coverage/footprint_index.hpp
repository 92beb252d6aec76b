// Spatial index over ground sites for mega-constellation visibility.
//
// At 30k satellites x 1M terminals the O(sats x sites) pair enumeration that
// feeds the visibility cull is itself the bottleneck (3e10 pairs before a
// single mask word is written). FootprintIndex buckets sites by geocentric
// latitude band and longitude cell (cells per band scaled by cos(latitude),
// the same equal-area scheme as cov::EarthGrid) so a satellite's footprint
// swath — a spherical cap of conservative half-angle psi around the
// subsatellite direction — touches only the handful of cells its bounding
// box intersects. Everything here is a PRUNING structure in the
// VisibilityCuller tradition: a queried superset always contains every site
// the exact visible_above test would accept, so consumers that re-test
// survivors exactly stay bit-identical to the exhaustive pair scan.
#pragma once

#include <cstdint>
#include <numbers>
#include <span>
#include <vector>

#include "orbit/ephemeris.hpp"
#include "orbit/geodesy.hpp"
#include "util/vec3.hpp"

namespace mpleo::cov {

struct GroundSite;

// The conservative footprint cone, the one derivation of the zenith cone
// behind every visibility prune. A satellite at radius r and central angle
// psi from a site at radius R sits at geocentric elevation el with psi =
// acos((R/r) cos el) - el, so geodetic elevation >= mask implies
//   psi <= acos((R/r_max) cos m_eff) - theta,
//   m_eff = mask - kVerticalDeflection,  theta = m_eff - kAngularSlack:
// the deflection bounds the angle between the geodetic vertical and the
// geocentric radial, and the slack absorbs the numeric approximations
// downstream. Over satellites within [r_min, r_max] and sites at radius >=
// site_r_min the family extremes only widen the cone, so it contains every
// member's exact cone, and pruning with it or any widening of it only skips
// work, never flips bits.
struct FootprintCone {
  // The mask half of the derivation, computed once per elevation mask: every
  // cone under the mask then builds without a libm call.
  struct Mask {
    explicit Mask(double elevation_mask_deg);
    double cos_m_eff = 1.0;  // cos(m_eff)
    double cos_theta = 1.0;  // cos(theta), theta = m_eff - kAngularSlack
    double sin_theta = 0.0;
    bool exhaustive = true;  // mask outside [0, 90): no cone
  };

  // An angle to widen a cone by, with its cosine and sine computed once.
  struct Widening {
    explicit Widening(double rad);
    double angle_rad;
    double cos_a;
    double sin_a;
  };

  // The half-angle psi: a site more than psi of central angle away from the
  // satellite's geocentric direction cannot see it above the mask.
  double cos_psi = -1.0;
  double sin_psi = 0.0;
  // psi in radians, for cap and latitude queries. Only make pays the acos
  // that sets it; a cone built from a Mask keeps pi, which prunes nothing.
  double psi_rad = std::numbers::pi;
  // Degenerate geometry (mask outside [0, 90), non-positive radii, satellite
  // family not safely above the sites) or a widening past pi: the cone is
  // the whole sphere, psi_rad is at least pi and dot_threshold passes
  // everything.
  bool exhaustive = true;

  FootprintCone() = default;  // exhaustive
  // The cone over satellites within [r_min_m, r_max_m] and sites at radius
  // >= site_r_min_m, in cos/sin form only: no libm call, so a per-pair test
  // can build one per (table, site).
  FootprintCone(const Mask& mask, double r_min_m, double r_max_m, double site_r_min_m);
  // The same cone with psi_rad set.
  [[nodiscard]] static FootprintCone make(double r_min_m, double r_max_m,
                                          double site_r_min_m,
                                          double elevation_mask_deg);

  // Dot-product form of the cone over satellite radii in [r_min_m, r_max_m]:
  // a site with unit direction u can see a satellite at ECEF position p only
  // if dot(u, p) >= the threshold. -infinity when exhaustive.
  [[nodiscard]] double dot_threshold(double r_min_m, double r_max_m) const;

  // The cone of half-angle psi + angle. Exhaustive once that reaches pi (or
  // the angle is not in [0, pi)), where the cos comparison would flip.
  [[nodiscard]] FootprintCone widened(const Widening& angle) const;
};

// Upper bound on |sin(geocentric latitude)| over the table's sampled steps
// (visibility is only ever evaluated there), valid for any orbit shape:
// max|z| / r_min from the extremes every fill records, so O(1) per table.
// Never below max_k |z_k| / r_k; within a few ulps of it when the radius is
// constant (circular orbits), up to the radius spread r_max / r_min - 1
// above it for eccentric ones. 0 for an empty table, 1 when the smallest
// radius is not positive. A step with a NaN coordinate, which no visibility
// test accepts, may be left out of the bound.
[[nodiscard]] double max_abs_sin_latitude(const orbit::EphemerisTable& table);

// The site-latitude prune, built once per site list from each site's
// geocentric |latitude| and the list's smallest radius. A satellite whose
// |latitude| never exceeds lat_sat sees no site beyond lat_sat plus its
// footprint cone's half-angle, so such a site's mask is provably empty.
class SiteLatitudePrune {
 public:
  SiteLatitudePrune(std::span<const orbit::TopocentricFrame> sites, double elevation_mask_deg);
  SiteLatitudePrune(std::span<const GroundSite> sites, double elevation_mask_deg);

  // The highest site |latitude| (radians) the table's satellite can reach;
  // +infinity once the cone's half-angle reaches a quarter turn.
  [[nodiscard]] double reach_rad(const orbit::EphemerisTable& table) const;

  // False when `site` provably sees nothing of a table with this reach.
  [[nodiscard]] bool reachable(double reach_rad, std::size_t site) const {
    return abs_latitude_rad_[site] <= reach_rad;
  }

 private:
  explicit SiteLatitudePrune(double elevation_mask_deg) : mask_deg_(elevation_mask_deg) {}
  void add_site(const util::Vec3& origin);

  double mask_deg_ = 0.0;
  double site_r_min_m_ = 0.0;
  std::vector<double> abs_latitude_rad_;
};

class FootprintIndex {
 public:
  // A contiguous [begin, end) slice of the index's SoA arrays — one run of
  // sites sharing a (band, cell) neighbourhood.
  struct Range {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  FootprintIndex() = default;

  // Buckets the sites behind `frames` (their ECEF origins) into 4-degree
  // latitude bands, each split into longitude cells scaled by cos(latitude).
  explicit FootprintIndex(std::span<const orbit::TopocentricFrame> frames);

  [[nodiscard]] std::size_t site_count() const noexcept { return site_ids_.size(); }
  // Smallest site geocentric radius — the site_r_min_m a conservative
  // FootprintCone over these sites needs. 0 for an empty index.
  [[nodiscard]] double min_site_radius_m() const noexcept { return min_site_radius_m_; }

  // SoA views over the bucketed sites, sorted by (band, cell) so a cap query
  // yields contiguous runs the cone dot-test can stream through. unit_*()
  // are the sites' unit ECEF directions; site_ids()[j] maps slot j back to
  // the index of the frame it was built from.
  [[nodiscard]] std::span<const double> unit_x() const noexcept { return ux_; }
  [[nodiscard]] std::span<const double> unit_y() const noexcept { return uy_; }
  [[nodiscard]] std::span<const double> unit_z() const noexcept { return uz_; }
  [[nodiscard]] std::span<const std::uint32_t> site_ids() const noexcept {
    return site_ids_;
  }

  // Appends to `out` the SoA ranges of every cell whose latitude/longitude
  // bounds intersect the spherical cap of half-angle `psi_rad` centred on
  // `center` (need not be normalised; a zero vector yields everything).
  // Conservative: the union of the ranges covers every site within psi_rad
  // of the cap centre. Ranges are disjoint and ascending.
  void query_cap(const util::Vec3& center, double psi_rad,
                 std::vector<Range>& out) const;

 private:
  [[nodiscard]] std::size_t band_of(double lat_rad) const noexcept;

  double band_height_rad_ = 0.0;
  double min_site_radius_m_ = 0.0;
  std::size_t band_count_ = 0;
  // Flat cell table: band b owns cells [band_cell_begin_[b],
  // band_cell_begin_[b + 1]); cell_offsets_[c] is the first SoA slot of flat
  // cell c (one-past table, size total_cells + 1).
  std::vector<std::uint32_t> band_cell_begin_;
  std::vector<std::uint32_t> cell_offsets_;
  std::vector<double> ux_, uy_, uz_;
  std::vector<std::uint32_t> site_ids_;
};

}  // namespace mpleo::cov
