#include "coverage/latency.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "coverage/engine.hpp"
#include "coverage/step_mask.hpp"
#include "coverage/visibility_cull.hpp"
#include "orbit/propagator.hpp"
#include "util/units.hpp"

namespace mpleo::cov {

double one_way_delay_ms(double range_m) noexcept {
  return range_m / util::kSpeedOfLightMPerSec * 1000.0;
}

double geo_zenith_one_way_delay_ms() noexcept { return one_way_delay_ms(35786e3); }

LatencyStats propagation_latency_stats(const orbit::EphemerisTable& ephemeris,
                                       const orbit::TopocentricFrame& site,
                                       const orbit::TimeGrid& grid,
                                       double elevation_mask_deg) {
  const VisibilityCuller culler(grid, elevation_mask_deg);
  StepMask visible(ephemeris.size());
  culler.fill(ephemeris, site, visible);

  LatencyStats stats;
  double sum_ms = 0.0;
  const std::span<const std::uint64_t> words = visible.words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    std::uint64_t bits = words[w];
    while (bits != 0) {
      const std::size_t step = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      const double delay = one_way_delay_ms(site.range_m(ephemeris.position_ecef(step)));
      if (stats.visible_steps == 0) {
        stats.min_one_way_ms = delay;
        stats.max_one_way_ms = delay;
      } else {
        stats.min_one_way_ms = std::min(stats.min_one_way_ms, delay);
        stats.max_one_way_ms = std::max(stats.max_one_way_ms, delay);
      }
      sum_ms += delay;
      ++stats.visible_steps;
    }
  }
  if (stats.visible_steps > 0) {
    stats.mean_one_way_ms = sum_ms / static_cast<double>(stats.visible_steps);
  }
  return stats;
}

LatencyStats propagation_latency_stats(const constellation::Satellite& satellite,
                                       const orbit::TopocentricFrame& site,
                                       const orbit::TimeGrid& grid,
                                       double elevation_mask_deg,
                                       orbit::PropagatorBackend backend) {
  return propagation_latency_stats(
      orbit::EphemerisTable::compute(orbit::make_propagator(ephemeris_spec(satellite, backend)),
                                     grid),
      site, grid, elevation_mask_deg);
}

}  // namespace mpleo::cov
