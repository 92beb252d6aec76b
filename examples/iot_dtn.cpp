// Bootstrapping an MP-LEO with delay-tolerant IoT service (§4).
//
// An early consortium with just a handful of satellites cannot offer
// broadband, but it CAN sell store-and-forward data collection: sensors in
// remote regions uplink when a satellite passes, the satellite delivers at
// the next gateway pass, and early contributors earn emission-weighted
// token rewards plus multi-party-governed satellite control.
//
//   ./iot_dtn [--days=7 --step=60]
#include <cstdio>

#include "core/mpleo.hpp"

using namespace mpleo;

int main(int argc, char** argv) {
  sim::Scenario scenario;
  try {
    scenario = sim::parse_scenario(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  std::printf("scenario: %s\n\n", sim::describe(scenario).c_str());

  // Two founding parties contribute four satellites each, in different
  // planes — the §3.3 spread-out placement.
  core::Consortium consortium;
  core::Party a;
  a.name = "ArcticData";
  a.kind = core::PartyKind::kCompany;
  core::Party b;
  b.name = "AmazonasNet";
  b.kind = core::PartyKind::kCompany;
  const auto party_a = consortium.add_party(a);
  const auto party_b = consortium.add_party(b);
  consortium.contribute(party_a,
                        constellation::single_plane(550e3, 97.6, 0.0, 4, scenario.epoch));
  consortium.contribute(party_b,
                        constellation::single_plane(550e3, 53.0, 90.0, 4, scenario.epoch));
  const auto sats = consortium.active_satellites();
  std::printf("founding constellation: %zu satellites from %zu parties\n\n", sats.size(),
              consortium.parties().size());

  // IoT collection routes: remote sensor -> gateway city.
  struct Route {
    const char* name;
    double src_lat, src_lon;
    double dst_lat, dst_lon;
  };
  const Route routes[] = {
      {"Svalbard research -> Oslo", 78.2, 15.6, 59.9, 10.7},
      {"Amazon sensors -> Sao Paulo", -3.1, -60.0, -23.55, -46.63},
      {"Outback telemetry -> Melbourne", -23.7, 133.9, -37.81, 144.96},
  };

  const cov::CoverageEngine engine(scenario.grid(), 10.0);  // IoT mask: 10 deg
  util::Table table({"route", "delivered %", "mean latency", "p95 latency"});
  for (const Route& route : routes) {
    const std::vector<cov::GroundSite> endpoints{
        {"src",
         orbit::TopocentricFrame(orbit::Geodetic::from_degrees(route.src_lat,
                                                               route.src_lon)),
         1.0},
        {"dst",
         orbit::TopocentricFrame(orbit::Geodetic::from_degrees(route.dst_lat,
                                                               route.dst_lon)),
         1.0}};
    cov::StepMask up(engine.grid().count), down(engine.grid().count);
    for (const auto& sat : sats) {
      const auto masks = engine.visibility_masks(sat, endpoints);
      up |= masks[0];
      down |= masks[1];
    }
    const core::DtnStats stats = core::dtn_stats(up, down, scenario.step_s);
    const double total = static_cast<double>(stats.delivered + stats.stranded);
    table.add_row({route.name,
                   util::Table::pct(total > 0 ? stats.delivered / total : 0.0),
                   util::Table::duration(stats.mean_latency_s),
                   util::Table::duration(stats.p95_latency_s)});
  }
  std::fputs(table.to_string().c_str(), stdout);

  // Early-adopter rewards: epoch 0 contributors split the richest emission.
  core::EmissionSchedule emission;
  core::Ledger ledger;
  const auto acct_a = ledger.open_account("ArcticData");
  const auto acct_b = ledger.open_account("AmazonasNet");
  for (std::size_t epoch = 0; epoch < 12; ++epoch) {
    const double minted = emission.epoch_reward(epoch);
    ledger.mint(minted, "epoch emission");
    // Split by stake (equal here: 4 sats each).
    (void)ledger.reward(acct_a, minted * consortium.stake(party_a), "epoch reward");
    (void)ledger.reward(acct_b, minted * consortium.stake(party_b), "epoch reward");
  }
  std::printf("\nfirst-year emission: %s tokens to each founder (of %.0f total supply)\n",
              util::Table::num(ledger.balance(acct_a), 0).c_str(),
              emission.total_supply());

  // Multi-party control: deorbiting a shared satellite takes both founders.
  core::QuorumPolicy policy;
  policy.council = {party_a, party_b};
  policy.required = 2;
  core::CommandAuthority authority(policy, scenario.seed);
  const auto cmd = authority.propose(sats.front().id, core::CommandAction::kDeorbit);
  auto status = authority.approve(
      cmd, core::CommandAuthority::sign(cmd, sats.front().id,
                                        core::CommandAction::kDeorbit, party_a,
                                        authority.party_key(party_a)));
  std::printf("\ndeorbit request by one founder alone: %s\n",
              status == core::CommandStatus::kAuthorized ? "EXECUTED" : "held for quorum");
  status = authority.approve(
      cmd, core::CommandAuthority::sign(cmd, sats.front().id,
                                        core::CommandAction::kDeorbit, party_b,
                                        authority.party_key(party_b)));
  std::printf("after the second founder approves: %s\n",
              status == core::CommandStatus::kAuthorized ? "EXECUTED" : "held for quorum");
  return 0;
}
