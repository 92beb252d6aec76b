#include "constellation/population.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "util/units.hpp"

namespace mpleo::constellation {
namespace {

constexpr double kPi = std::numbers::pi;
constexpr double kTwoPi = 2.0 * std::numbers::pi;

[[nodiscard]] double wrap_lon(double lon) {
  lon = std::fmod(lon, kTwoPi);
  if (lon < 0.0) lon += kTwoPi;
  return lon;
}

// Great-circle central angle between two (lat, lon) points.
[[nodiscard]] double central_angle(double lat_a, double lon_a, double lat_b,
                                   double lon_b) {
  const double c = std::sin(lat_a) * std::sin(lat_b) +
                   std::cos(lat_a) * std::cos(lat_b) * std::cos(lon_a - lon_b);
  return std::acos(std::clamp(c, -1.0, 1.0));
}

}  // namespace

PopulationSampler::PopulationSampler(PopulationSamplerConfig config,
                                     std::span<const cov::City> cities) {
  if (!(config.band_height_deg >= 0.1) || config.band_height_deg > 90.0) {
    throw std::invalid_argument("PopulationSampler: band_height_deg out of [0.1, 90]");
  }
  if (!(config.max_latitude_deg > 0.0) || config.max_latitude_deg > 90.0) {
    throw std::invalid_argument("PopulationSampler: max_latitude_deg out of (0, 90]");
  }
  if (!(config.city_radius_deg > 0.0) || config.city_radius_deg > 90.0) {
    throw std::invalid_argument("PopulationSampler: city_radius_deg out of (0, 90]");
  }
  if (!(config.uniform_floor_fraction >= 0.0) ||
      config.uniform_floor_fraction > 1.0) {
    throw std::invalid_argument(
        "PopulationSampler: uniform_floor_fraction out of [0, 1]");
  }
  const std::vector<cov::City>& default_cities = cov::paper_cities();
  if (cities.empty()) cities = default_cities;

  // A band height of at least 0.1 degrees bounds the rounded counts below:
  // at most 1800 bands of at most 3600 cells.
  const double band_height = util::deg_to_rad(config.band_height_deg);
  const double lat_max = util::deg_to_rad(config.max_latitude_deg);
  const double lat_min = -lat_max;
  const auto band_count = static_cast<std::size_t>(
      std::max(1.0, std::ceil(2.0 * lat_max / band_height)));

  // Lay out the cells: equal-area bands, cos-scaled cell counts.
  const double base_cells = std::ceil(kTwoPi / band_height);
  std::vector<std::uint32_t> band_cell_begin(band_count + 1, 0);
  for (std::size_t b = 0; b < band_count; ++b) {
    const double lo = lat_min + static_cast<double>(b) * band_height;
    const double hi = std::min(lo + band_height, lat_max);
    const double center = 0.5 * (lo + hi);
    const auto cells = static_cast<std::uint32_t>(
        std::max(1.0, std::round(base_cells * std::cos(center))));
    band_cell_begin[b + 1] = band_cell_begin[b] + cells;
  }
  const std::size_t total = band_cell_begin[band_count];
  cells_.resize(total);
  std::vector<double> mass(total, 0.0);
  std::vector<double> area(total, 0.0);
  double area_total = 0.0;
  for (std::size_t b = 0; b < band_count; ++b) {
    const double lo = lat_min + static_cast<double>(b) * band_height;
    const double hi = std::min(lo + band_height, lat_max);
    const std::uint32_t cells_b = band_cell_begin[b + 1] - band_cell_begin[b];
    const double width = kTwoPi / static_cast<double>(cells_b);
    const double cell_area = (std::sin(hi) - std::sin(lo)) * width;  // sphere area
    for (std::uint32_t c = 0; c < cells_b; ++c) {
      Cell& cell = cells_[band_cell_begin[b] + c];
      cell.sin_lat_lo = static_cast<float>(std::sin(lo));
      cell.sin_lat_hi = static_cast<float>(std::sin(hi));
      cell.lon_lo = static_cast<float>(static_cast<double>(c) * width);
      cell.lon_width = static_cast<float>(width);
      area[band_cell_begin[b] + c] = cell_area;
      area_total += cell_area;
    }
  }

  // Splat each city onto nearby cells with a linear falloff in great-circle
  // distance; population scales the splat.
  const double radius = util::deg_to_rad(config.city_radius_deg);
  double city_total = 0.0;
  for (const cov::City& city : cities) {
    if (!(city.population > 0.0)) continue;
    const double c_lat = city.location.latitude_rad;
    const double c_lon = wrap_lon(city.location.longitude_rad);
    for (std::size_t b = 0; b < band_count; ++b) {
      const double lo = lat_min + static_cast<double>(b) * band_height;
      const double hi = std::min(lo + band_height, lat_max);
      const double band_center = 0.5 * (lo + hi);
      if (std::abs(band_center - c_lat) > radius + band_height) continue;
      const std::uint32_t cells_b = band_cell_begin[b + 1] - band_cell_begin[b];
      const double width = kTwoPi / static_cast<double>(cells_b);
      for (std::uint32_t c = 0; c < cells_b; ++c) {
        const double cell_lon = (static_cast<double>(c) + 0.5) * width;
        const double d = central_angle(band_center, cell_lon, c_lat, c_lon);
        if (d >= radius) continue;
        const double w = city.population * (1.0 - d / radius);
        mass[band_cell_begin[b] + c] += w;
        city_total += w;
      }
    }
  }

  // Mix: (1 - floor) of the mass follows the cities, `floor` is spread
  // area-uniformly. With no city mass at all (e.g. cities outside the
  // latitude belt), everything falls back to area-uniform.
  double floor_fraction = config.uniform_floor_fraction;
  if (!(city_total > 0.0)) floor_fraction = 1.0;
  double total_mass = 0.0;
  for (std::size_t i = 0; i < total; ++i) {
    const double city_part =
        city_total > 0.0 ? (1.0 - floor_fraction) * mass[i] / city_total : 0.0;
    const double floor_part = floor_fraction * area[i] / area_total;
    mass[i] = city_part + floor_part;
    total_mass += mass[i];
  }

  cdf_.resize(total);
  double acc = 0.0;
  for (std::size_t i = 0; i < total; ++i) {
    acc += mass[i] / total_mass;
    cdf_[i] = acc;
  }
  cdf_.back() = 1.0;
}

orbit::Geodetic PopulationSampler::sample(util::Xoshiro256PlusPlus& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  const std::size_t idx = std::min<std::size_t>(
      static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
  const Cell& cell = cells_[idx];
  // Area-uniform point in the cell: uniform in sin(lat) and in longitude.
  const double s =
      rng.uniform(static_cast<double>(cell.sin_lat_lo), static_cast<double>(cell.sin_lat_hi));
  const double lon =
      static_cast<double>(cell.lon_lo) + rng.uniform() * static_cast<double>(cell.lon_width);
  orbit::Geodetic g;
  g.latitude_rad = std::asin(std::clamp(s, -1.0, 1.0));
  g.longitude_rad = lon > kPi ? lon - kTwoPi : lon;  // back to (-pi, pi]
  g.altitude_m = 0.0;
  return g;
}

std::vector<orbit::Geodetic> PopulationSampler::sample(std::size_t count,
                                                       std::uint64_t seed) const {
  util::Xoshiro256PlusPlus rng(seed);
  std::vector<orbit::Geodetic> sites;
  sites.reserve(count);
  for (std::size_t i = 0; i < count; ++i) sites.push_back(sample(rng));
  return sites;
}

}  // namespace mpleo::constellation
