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
#include <span>
#include <vector>

#include "orbit/ephemeris.hpp"
#include "orbit/geodesy.hpp"
#include "util/vec3.hpp"

namespace mpleo::cov {

// Conservative footprint-cone constants for a family of satellites whose
// geocentric radius stays within [r_min_m, r_max_m], over sites at radius
// >= site_r_min_m, under an elevation mask. Mirrors the VisibilityCuller's
// zenith-cone derivation (same vertical-deflection and angular slacks), with
// the family bounds substituted for the per-satellite/per-site values — every
// substitution widens the cone, so the cap is a superset of each member's
// exact cap and pruning with it can only skip work, never flip bits.
struct FootprintCone {
  // Cap half-angle: a site more than psi_rad of central angle away from the
  // satellite's geocentric direction cannot clear the elevation mask.
  double psi_rad = 0.0;
  // Dot-product form of the same test: a site with unit direction u can see
  // a satellite at ECEF position p only if dot(u, p) >= dot_threshold.
  double dot_threshold = 0.0;
  // Degenerate geometry (mask outside [0, 90), non-positive radii, satellite
  // family not safely above the sites): psi_rad is pi and dot_threshold
  // passes everything, i.e. no pruning.
  bool exhaustive = false;

  [[nodiscard]] static FootprintCone make(double r_min_m, double r_max_m,
                                          double site_r_min_m,
                                          double elevation_mask_deg);
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

// Latitude-band reachability: can a satellite whose |sin(latitude)| never
// exceeds `max_abs_sin_lat` place a site whose geocentric sin(latitude) is
// `site_sin_lat` inside a cap of half-angle psi_rad? False means the site's
// visibility mask over that satellite is provably empty. Conservative (small
// angular pad), so callers may skip the fill entirely on false.
[[nodiscard]] bool latitude_reachable(double max_abs_sin_lat, double psi_rad,
                                      double site_sin_lat);

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
