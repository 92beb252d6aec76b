// Quickstart: build a Walker constellation, compute coverage for a city,
// and inspect satellite passes — the five-minute tour of the library.
//
//   ./quickstart [--days=1 --step=60 --mask=25]
#include <cstdio>

#include "core/mpleo.hpp"

using namespace mpleo;

int main(int argc, char** argv) {
  // 1. Describe the evaluation window (defaults: paper epoch, 1 week, 60 s).
  sim::Scenario scenario;
  try {
    // one day is plenty for a demo
    scenario = sim::parse_scenario(argc, argv, sim::Scenario{.duration_s = 86400.0});
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  std::printf("scenario: %s\n\n", sim::describe(scenario).c_str());

  // 2. Build a small Walker-delta shell: 8 planes x 8 satellites at 550 km.
  constellation::WalkerShell shell;
  shell.label = "DEMO";
  shell.altitude_m = 550e3;
  shell.inclination_deg = 53.0;
  shell.plane_count = 8;
  shell.sats_per_plane = 8;
  shell.phasing_factor = 3;
  const std::vector<constellation::Satellite> sats = shell.build(scenario.epoch);
  std::printf("built %zu satellites (%s...)\n\n", sats.size(), sats.front().name.c_str());

  // 3. Coverage of Taipei across the window. The engine propagates with the
  // scenario's backend (--propagator=sgp4 switches every consumer below).
  const cov::CoverageEngine engine(scenario.grid(), scenario.elevation_mask_deg,
                                   scenario.propagator);
  const orbit::TopocentricFrame taipei_frame(cov::taipei().location);
  const cov::StepMask mask = engine.coverage_mask(sats, taipei_frame);
  std::fputs(cov::site_report("Taipei", engine.stats(mask)).c_str(), stdout);

  // 4. The first few passes of one satellite, from its shared ephemeris.
  std::printf("\nfirst passes of %s over Taipei:\n", sats.front().name.c_str());
  const auto passes = cov::find_passes(engine.ephemeris(sats.front()), taipei_frame,
                                       engine.grid(), scenario.elevation_mask_deg);
  std::size_t shown = 0;
  for (const cov::Pass& p : passes) {
    std::printf("  +%7.0fs for %4.0fs, peak elevation %4.1f deg\n", p.start_offset_s,
                p.duration_s(), util::rad_to_deg(p.max_elevation_rad));
    if (++shown == 5) break;
  }
  if (passes.empty()) std::printf("  (none in this window)\n");

  // 5. Population-weighted global coverage over the paper's 21 cities.
  const auto sites = cov::sites_from_cities(cov::paper_cities());
  const double weighted = engine.weighted_coverage_seconds(sats, sites);
  std::printf("\npopulation-weighted coverage: %s of %s (%.1f%%)\n",
              util::Table::duration(weighted).c_str(),
              util::Table::duration(engine.grid().duration_seconds()).c_str(),
              100.0 * weighted / engine.grid().duration_seconds());

  // 6. Emit the first satellite as a TLE (interoperability with other tools).
  const orbit::Tle tle =
      orbit::Tle::from_elements(sats.front().elements, scenario.epoch, 90001,
                                sats.front().name);
  const orbit::TleLines lines = orbit::format_tle(tle);
  std::printf("\nTLE of %s:\n%s\n%s\n", sats.front().name.c_str(), lines.line1.c_str(),
              lines.line2.c_str());
  return 0;
}
