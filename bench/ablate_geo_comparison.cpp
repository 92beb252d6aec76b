// Ablation (§2): "why not use geostationary satellites that do not move
// with respect to earth? Such satellites operate at heights of around
// 36000 km, leading to orders of magnitude degradation in network latency
// (second-level) and capacity compared to LEO satellites."
//
// This bench puts numbers on that sentence: propagation latency and link
// budget for the LEO constellation vs a GEO satellite, same terminal class.
#include "bench_common.hpp"
#include "coverage/latency.hpp"
#include "net/bent_pipe.hpp"

using namespace mpleo;

int main(int argc, char** argv) {
  sim::Scenario defaults;
  defaults.duration_s = 86400.0;
  const sim::Scenario scenario = bench::start(
      argc, argv, "Ablation: LEO vs GEO latency and capacity",
      "GEO: ~120 ms one-way, ~0.5 s bent-pipe RTT; LEO: a few ms — orders of "
      "magnitude apart",
      defaults);

  const orbit::TimeGrid grid = scenario.grid();
  const orbit::TopocentricFrame taipei_frame(cov::taipei().location);

  // LEO: one Starlink-like satellite sampled where it passes over Taipei.
  constellation::Satellite leo;
  leo.elements = orbit::ClassicalElements::circular(550e3, 53.0, 121.0, 25.0);
  leo.epoch = scenario.epoch;
  const cov::LatencyStats leo_stats = cov::propagation_latency_stats(
      leo, taipei_frame, grid, scenario.elevation_mask_deg, scenario.propagator);

  // GEO reference at zenith (best case for GEO).
  const double geo_one_way = cov::geo_zenith_one_way_delay_ms();

  util::Table latency({"system", "one-way min", "one-way mean", "one-way max",
                       "bent-pipe RTT (mean)"});
  latency.add_row({"LEO 550 km", util::Table::num(leo_stats.min_one_way_ms, 2) + " ms",
                   util::Table::num(leo_stats.mean_one_way_ms, 2) + " ms",
                   util::Table::num(leo_stats.max_one_way_ms, 2) + " ms",
                   util::Table::num(leo_stats.mean_bent_pipe_rtt_ms(), 1) + " ms"});
  latency.add_row({"GEO 35786 km", util::Table::num(geo_one_way, 1) + " ms",
                   util::Table::num(geo_one_way, 1) + " ms",
                   util::Table::num(geo_one_way, 1) + " ms",
                   util::Table::num(4.0 * geo_one_way, 1) + " ms"});
  std::fputs(latency.to_string().c_str(), stdout);
  std::printf("\nlatency ratio (GEO/LEO mean): %.0fx\n\n",
              geo_one_way / leo_stats.mean_one_way_ms);

  // Capacity at the same terminal: free-space loss alone costs
  // 20*log10(35786/ ~700) ~ 34 dB against GEO.
  const net::RadioConfig terminal = net::default_user_terminal();
  const net::TransponderConfig transponder = net::default_transponder();
  const net::RadioConfig gateway = net::default_ground_station();

  util::Table capacity({"system", "slant range", "uplink SNR", "end-to-end capacity"});
  for (const auto& [name, range_m] :
       std::initializer_list<std::pair<const char*, double>>{
           {"LEO 550 km (typ. 700 km slant)", 700e3},
           {"GEO 35786 km", 35786e3}}) {
    const net::RelayBudget budget = net::compute_relay(
        terminal, transponder, gateway, range_m, range_m, net::RelayMode::kTransparent);
    capacity.add_row({name, util::Table::num(range_m / 1000.0, 0) + " km",
                      util::Table::num(budget.uplink.snr_db, 1) + " dB",
                      util::Table::num(budget.end_to_end_capacity_bps / 1e6, 1) +
                          " Mbps"});
  }
  std::fputs(capacity.to_string().c_str(), stdout);
  return 0;
}
