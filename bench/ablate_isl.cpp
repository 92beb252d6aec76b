// Ablation (§4 "Bent-pipe architectures and ISLs"): how much coverage do
// inter-satellite links buy when ground stations are scarce?
//
// Setup: a terminal in Taipei, a 100-satellite Walker shell, and gateways
// drawn from the global GSaaS teleport inventory. Bent-pipe (0 hops) needs a
// satellite that sees both the terminal and a gateway at once; each extra
// ISL hop relaxes that.
#include "bench_common.hpp"
#include "net/ground_station.hpp"
#include "net/isl.hpp"

using namespace mpleo;

int main(int argc, char** argv) {
  sim::Scenario defaults;
  defaults.duration_s = 86400.0;
  defaults.step_s = 120.0;
  const sim::Scenario scenario = bench::start(
      argc, argv, "Ablation: ISL hops vs gateway count (Taipei terminal)",
      "ISLs substitute for ground stations: few gateways + hops ~ many gateways",
      defaults);

  const cov::CoverageEngine engine(scenario.grid(), scenario.elevation_mask_deg,
                                   scenario.propagator);
  constellation::WalkerShell shell;
  shell.label = "ISL";
  shell.plane_count = 10;
  shell.sats_per_plane = 10;
  shell.phasing_factor = 3;
  const auto sats = shell.build(scenario.epoch);
  const orbit::TopocentricFrame terminal(cov::taipei().location);

  // Gateway pools of increasing size from the teleport inventory.
  const auto listings = net::GsaasInventory::global_default().listings();
  auto gateways_of = [&](std::size_t count) {
    std::vector<cov::GroundSite> gws;
    for (std::size_t i = 0; i < std::min(count, listings.size()); ++i) {
      gws.push_back({listings[i].station.name,
                     orbit::TopocentricFrame(listings[i].station.location), 1.0});
    }
    return gws;
  };

  util::Table table({"gateways", "hops=0 (bent-pipe)", "hops=1", "hops=2", "hops=4"});
  for (const std::size_t gw_count : {1UL, 3UL, 6UL, 12UL}) {
    const auto gateways = gateways_of(gw_count);
    std::vector<std::string> row{std::to_string(gateways.size())};
    for (const int hops : {0, 1, 2, 4}) {
      net::IslConfig cfg;
      cfg.max_hops = hops;
      const cov::StepMask mask =
          net::isl_coverage_mask(engine, sats, terminal, gateways, cfg);
      row.push_back(util::Table::pct(mask.fraction()));
    }
    table.add_row(std::move(row));
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf("\nreading: each column is Taipei coverage; moving right adds ISL\n"
              "hops, moving down adds rented gateways. ISLs and gateways are\n"
              "substitutes — the paper's no-ISL design works once the gateway\n"
              "pool is dense enough.\n");
  return 0;
}
