// Population-gridded terminal sampling.
//
// Mega-scale workloads need millions of user terminals whose geography looks
// like demand, not like a uniform sphere: terminals cluster around the
// paper's metro areas and thin out over oceans and poles. PopulationSampler
// builds a latitude-band / longitude-cell density grid (the cov::EarthGrid
// equal-area scheme), splats city populations onto it with a linear falloff,
// mixes in an area-weighted uniform floor so no inhabited latitude is empty,
// and then draws deterministic site locations from the resulting discrete
// distribution — same seed, same terminals, regardless of how many are drawn
// by whom.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "coverage/cities.hpp"
#include "orbit/geodesy.hpp"
#include "util/rng.hpp"

namespace mpleo::constellation {

struct PopulationSamplerConfig {
  // Density-grid resolution, in [0.1, 90]; cells are ~band_height_deg on a
  // side at the equator and shrink in longitude with cos(latitude).
  double band_height_deg = 4.0;
  // Terminals are confined to |latitude| <= max_latitude_deg (nobody lives
  // on the ice caps, and LEO broadband shells barely reach them).
  double max_latitude_deg = 70.0;
  // Each city's population is splatted over cells within this great-circle
  // radius with a linear falloff (full weight at the centre, zero at the
  // edge).
  double city_radius_deg = 6.0;
  // Fraction of total mass spread area-uniformly over all cells, so oceans
  // and rural bands get a trickle of terminals instead of exactly zero.
  double uniform_floor_fraction = 0.05;
};

class PopulationSampler {
 public:
  // Builds the density grid from `cities` (defaults to the paper's 21-city
  // list when empty). Throws std::invalid_argument on out-of-range config.
  explicit PopulationSampler(PopulationSamplerConfig config = {},
                             std::span<const cov::City> cities = {});

  [[nodiscard]] std::size_t cell_count() const noexcept { return cdf_.size(); }

  // Draws one site: picks a cell from the population CDF, then an area-
  // uniform point inside it. Deterministic in the RNG stream.
  [[nodiscard]] orbit::Geodetic sample(util::Xoshiro256PlusPlus& rng) const;

  // Draws `count` sites from a fresh stream seeded with `seed` — the bulk
  // entry point the mega bench uses. Same seed + count => same sites.
  [[nodiscard]] std::vector<orbit::Geodetic> sample(std::size_t count,
                                                    std::uint64_t seed) const;

 private:
  struct Cell {
    float sin_lat_lo = 0.0F;
    float sin_lat_hi = 0.0F;
    float lon_lo = 0.0F;
    float lon_width = 0.0F;
  };

  std::vector<Cell> cells_;
  std::vector<double> cdf_;  // inclusive prefix sums of cell mass, ends at 1
};

}  // namespace mpleo::constellation
