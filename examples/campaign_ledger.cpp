// A week in the life of an MP-LEO consortium, via the core::Campaign facade:
// daily epochs of scheduling, settlement, proof-of-coverage and token
// emission — with the largest party rage-quitting on day 4 and the network
// degrading proportionally instead of dying (§3.4).
//
//   ./campaign_ledger [--step=180]
#include <cstdio>

#include "core/mpleo.hpp"

using namespace mpleo;

int main(int argc, char** argv) {
  sim::Scenario scenario;
  try {
    scenario = sim::parse_scenario(argc, argv, sim::Scenario{.step_s = 180.0});
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  // Three parties of uneven size.
  core::Consortium consortium;
  struct Founder {
    const char* name;
    double lat, lon;
    int sats;
    double raan;
  };
  const Founder founders[] = {
      {"MegaCorp", 37.77, -122.42, 12, 0.0},
      {"Taiwan", 25.03, 121.56, 6, 120.0},
      {"Kenya", -1.29, 36.82, 4, 240.0},
  };
  std::vector<net::Terminal> terminals;
  std::vector<net::GroundStation> stations;
  for (std::size_t i = 0; i < std::size(founders); ++i) {
    const Founder& f = founders[i];
    core::Party party;
    party.name = f.name;
    party.home_region = orbit::Geodetic::from_degrees(f.lat, f.lon);
    const auto id = consortium.add_party(party);
    consortium.contribute(id, constellation::single_plane(550e3, 53.0, f.raan, f.sats,
                                                          scenario.epoch, f.raan / 5.0));

    net::Terminal t;
    t.id = static_cast<net::TerminalId>(i);
    t.location = party.home_region;
    t.owner_party = id;
    t.radio = net::default_user_terminal();
    terminals.push_back(t);
    net::GroundStation gs;
    gs.id = static_cast<net::GroundStationId>(i);
    gs.location = orbit::Geodetic::from_degrees(f.lat + 0.5, f.lon - 0.5);
    gs.owner_party = id;
    gs.radio = net::default_ground_station();
    stations.push_back(gs);
  }

  core::CampaignConfig config;
  config.start = scenario.epoch;
  config.step_s = scenario.step_s;
  config.settlement.dynamic = true;
  core::Campaign campaign(std::move(consortium), terminals, stations, config,
                          scenario.seed);
  sim::RunContext context(scenario);

  std::printf("campaign: 7 daily epochs; MegaCorp (largest) withdraws before day 4\n\n");
  util::Table table({"day", "sats", "served", "unserved", "fairness", "cleared",
                     "poc ok/rej", "MegaCorp", "Taiwan", "Kenya"});
  for (int day = 1; day <= 7; ++day) {
    if (day == 4) {
      const std::size_t removed = campaign.withdraw_party(0);
      std::printf("!! MegaCorp withdraws %zu satellites at the start of day 4\n\n",
                  removed);
    }
    const core::EpochReport r = campaign.run_epoch(context);
    table.add_row({std::to_string(day), std::to_string(r.active_satellites),
                   util::Table::duration(r.total_served_seconds),
                   util::Table::duration(r.total_unserved_seconds),
                   util::Table::num(r.service_fairness, 2),
                   util::Table::num(r.settlement.total_cleared, 1),
                   std::to_string(r.poc_valid) + "/" + std::to_string(r.poc_rejected),
                   util::Table::num(r.balances[0], 1),
                   util::Table::num(r.balances[1], 1),
                   util::Table::num(r.balances[2], 1)});
  }
  std::fputs(table.to_string().c_str(), stdout);

  std::printf("\nafter the largest party leaves, service shrinks but continues —\n"
              "remaining parties keep earning; the ledger conserves: sum=%.1f of\n"
              "%.1f minted.\n",
              campaign.ledger().sum_of_balances(), campaign.ledger().total_minted());

  std::printf("\nrun context observed %llu epochs; campaign trace:\n%s",
              static_cast<unsigned long long>(
                  context.metrics().counter_value("campaign.epochs")),
              context.trace().to_string().c_str());
  return 0;
}
