// Ablation: power limits on spare capacity (§3.2 financial viability meets
// physics). A satellite can only sell the transponder time its energy
// balance affords: eclipse season and battery depth-of-discharge cap the
// sellable duty cycle.
#include "bench_common.hpp"
#include "net/power.hpp"
#include "orbit/sun.hpp"

using namespace mpleo;

int main(int argc, char** argv) {
  sim::Scenario defaults;
  defaults.duration_s = 2.0 * 86400.0;
  const sim::Scenario scenario = bench::start(
      argc, argv, "Ablation: power-limited spare capacity",
      "panel size and battery DoD bound the sellable transponder duty cycle",
      defaults);

  const orbit::TimeGrid grid = scenario.grid();
  const cov::CoverageEngine engine(grid, scenario.elevation_mask_deg, scenario.propagator);
  const auto sites = cov::sites_from_cities(cov::paper_cities());

  // One Starlink-like satellite; transmit whenever any city is in footprint.
  constellation::Satellite sat;
  sat.name = "PWR-1";
  sat.elements = orbit::ClassicalElements::circular(550e3, 53.0, 40.0, 10.0);
  sat.epoch = scenario.epoch;

  const orbit::KeplerianPropagator prop(sat.elements, sat.epoch);
  cov::StepMask sunlit(grid.count);
  for (std::size_t i = 0; i < grid.count; ++i) {
    const orbit::TimePoint t = grid.at(i);
    if (!orbit::is_eclipsed(prop.state_at(t).position, orbit::sun_direction_eci(t))) {
      sunlit.set(i);
    }
  }
  cov::StepMask wanted(grid.count);
  for (const cov::StepMask& mask : engine.visibility_masks(sat, sites)) wanted |= mask;

  const double sunlit_frac = sunlit.fraction();
  std::printf("orbit sunlit fraction: %.1f%%; transponder demanded %.1f%% of time\n\n",
              sunlit_frac * 100.0, wanted.fraction() * 100.0);

  util::Table table({"panel W", "battery Wh", "served %", "denied steps",
                     "min charge Wh", "sustainable duty"});
  for (const double panel_w : {150.0, 250.0, 400.0}) {
    for (const double battery_wh : {200.0, 600.0}) {
      net::PowerConfig cfg;
      cfg.solar_panel_w = panel_w;
      cfg.battery_capacity_wh = battery_wh;
      const net::PowerTimelineResult result =
          net::simulate_power(cfg, sunlit, wanted, grid.step_seconds);
      const double served =
          wanted.count() > 0
              ? static_cast<double>(result.transmitted.count()) /
                    static_cast<double>(wanted.count())
              : 0.0;
      table.add_row({util::Table::num(panel_w, 0), util::Table::num(battery_wh, 0),
                     util::Table::pct(served), std::to_string(result.denied_steps),
                     util::Table::num(result.min_charge_wh, 0),
                     util::Table::pct(net::sustainable_transmit_duty(cfg, sunlit_frac))});
    }
  }
  std::fputs(table.to_string().c_str(), stdout);
  return 0;
}
