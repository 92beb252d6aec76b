// Global coverage grids: an equal-area mesh over Earth for whole-planet
// coverage fractions, coverage-hole finding (§3.2's "reduce coverage holes
// in space-time"), and ASCII coverage maps.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "constellation/shell.hpp"
#include "coverage/step_mask.hpp"
#include "orbit/geodesy.hpp"
#include "orbit/time.hpp"

namespace mpleo::cov {

class CoverageEngine;

// An approximately equal-area grid: latitude bands of `band_height_deg`,
// each band split into cells scaled by cos(latitude). Throws
// std::invalid_argument unless band_height_deg is in [0.1, 180] and
// max_latitude_deg in (0, 90].
class EarthGrid {
 public:
  struct Cell {
    orbit::Geodetic center;
    double area_weight = 0.0;  // normalised, sums to 1 over the grid
  };

  explicit EarthGrid(double band_height_deg = 10.0,
                     double max_latitude_deg = 80.0);

  [[nodiscard]] const std::vector<Cell>& cells() const noexcept { return cells_; }
  [[nodiscard]] std::size_t size() const noexcept { return cells_.size(); }

 private:
  std::vector<Cell> cells_;
};

// Time-averaged coverage of each grid cell by the satellite set: result[i]
// is the fraction of the engine's window during which cell i sees at least
// one satellite.
[[nodiscard]] std::vector<double> cell_coverage(
    const CoverageEngine& engine, const EarthGrid& grid,
    std::span<const constellation::Satellite> satellites);

// Area-weighted global coverage fraction in [0, 1].
[[nodiscard]] double global_coverage_fraction(const EarthGrid& grid,
                                              std::span<const double> cell_fractions);

// Indices of the k worst-covered cells (the coverage holes a gap-filling
// reward schedule should target), worst first.
[[nodiscard]] std::vector<std::size_t> worst_cells(std::span<const double> cell_fractions,
                                                   std::size_t k);

// Renders a small ASCII world map of the per-cell coverage — '#': >=90%,
// '+': >=60%, '-': >=30%, '.': >0, ' ': none. One row per latitude band,
// north at the top.
[[nodiscard]] std::string ascii_coverage_map(const EarthGrid& grid,
                                             std::span<const double> cell_fractions);

}  // namespace mpleo::cov
