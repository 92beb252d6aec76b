#include "coverage/grid.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "coverage/engine.hpp"
#include "util/units.hpp"

namespace mpleo::cov {

EarthGrid::EarthGrid(double band_height_deg, double max_latitude_deg) {
  if (!(band_height_deg >= 0.1 && band_height_deg <= 180.0) ||
      !(max_latitude_deg > 0.0 && max_latitude_deg <= 90.0)) {
    throw std::invalid_argument("EarthGrid: invalid band height or latitude cap");
  }
  // Cells per band at the equator, at most 3600; scaled down by cos(lat)
  // toward the poles.
  const auto equator_cells =
      static_cast<int>(std::lround(360.0 / band_height_deg));

  double total_weight = 0.0;
  for (double lat = -max_latitude_deg + band_height_deg / 2.0; lat < max_latitude_deg;
       lat += band_height_deg) {
    const double cos_lat = std::cos(util::deg_to_rad(lat));
    const int cells_in_band =
        std::max(1, static_cast<int>(std::lround(equator_cells * cos_lat)));
    const double lon_step = 360.0 / cells_in_band;
    for (int c = 0; c < cells_in_band; ++c) {
      Cell cell;
      cell.center = orbit::Geodetic::from_degrees(lat, -180.0 + lon_step * (c + 0.5));
      cell.area_weight = cos_lat;  // proportional to band area per cell count
      cells_.push_back(cell);
      total_weight += cos_lat;
    }
  }
  for (Cell& cell : cells_) cell.area_weight /= total_weight;
}

std::vector<double> cell_coverage(const CoverageEngine& engine, const EarthGrid& grid,
                                  std::span<const constellation::Satellite> satellites) {
  std::vector<GroundSite> sites;
  sites.reserve(grid.size());
  for (const EarthGrid::Cell& cell : grid.cells()) {
    sites.push_back({"cell", orbit::TopocentricFrame(cell.center), cell.area_weight});
  }

  std::vector<StepMask> unions(sites.size(), StepMask(engine.grid().count));
  for (const constellation::Satellite& sat : satellites) {
    const std::vector<StepMask> per_cell = engine.visibility_masks(sat, sites);
    for (std::size_t i = 0; i < sites.size(); ++i) unions[i] |= per_cell[i];
  }

  std::vector<double> fractions;
  fractions.reserve(sites.size());
  for (const StepMask& mask : unions) fractions.push_back(mask.fraction());
  return fractions;
}

double global_coverage_fraction(const EarthGrid& grid,
                                std::span<const double> cell_fractions) {
  if (cell_fractions.size() != grid.size()) {
    throw std::invalid_argument("global_coverage_fraction: arity mismatch");
  }
  double total = 0.0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    total += grid.cells()[i].area_weight * cell_fractions[i];
  }
  return total;
}

std::vector<std::size_t> worst_cells(std::span<const double> cell_fractions,
                                     std::size_t k) {
  std::vector<std::size_t> order(cell_fractions.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  k = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      return cell_fractions[a] < cell_fractions[b];
                    });
  order.resize(k);
  return order;
}

std::string ascii_coverage_map(const EarthGrid& grid,
                               std::span<const double> cell_fractions) {
  if (cell_fractions.size() != grid.size()) {
    throw std::invalid_argument("ascii_coverage_map: arity mismatch");
  }
  auto glyph = [](double f) {
    if (f >= 0.9) return '#';
    if (f >= 0.6) return '+';
    if (f >= 0.3) return '-';
    if (f > 0.0) return '.';
    return ' ';
  };

  // Group cells by latitude band (cells are generated south->north, each
  // band contiguous); render north at the top.
  std::string out;
  std::vector<std::string> rows;
  std::size_t i = 0;
  while (i < grid.size()) {
    const double lat = grid.cells()[i].center.latitude_rad;
    std::string row;
    while (i < grid.size() && grid.cells()[i].center.latitude_rad == lat) {
      row += glyph(cell_fractions[i]);
      ++i;
    }
    rows.push_back(std::move(row));
  }
  for (auto it = rows.rbegin(); it != rows.rend(); ++it) {
    out += *it;
    out += '\n';
  }
  return out;
}

}  // namespace mpleo::cov
