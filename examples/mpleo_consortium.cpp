// Full MP-LEO consortium walkthrough: four parties contribute satellites,
// terminals ride each other's spare capacity through transparent bent-pipes,
// usage settles on the token ledger, proof-of-coverage receipts earn
// rewards, leftover capacity clears on the open market — and then one party
// withdraws mid-simulation and the constellation degrades gracefully.
//
//   ./mpleo_consortium [--days=1 --step=120]
#include <cstdio>

#include "core/mpleo.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"

using namespace mpleo;

namespace {

net::Terminal terminal_at(double lat, double lon, core::PartyId party,
                          net::TerminalId id) {
  net::Terminal t;
  t.id = id;
  t.name = "T" + std::to_string(id);
  t.location = orbit::Geodetic::from_degrees(lat, lon);
  t.owner_party = party;
  t.radio = net::default_user_terminal();
  return t;
}

net::GroundStation station_at(double lat, double lon, core::PartyId party,
                              net::GroundStationId id) {
  net::GroundStation gs;
  gs.id = id;
  gs.name = "G" + std::to_string(id);
  gs.location = orbit::Geodetic::from_degrees(lat, lon);
  gs.owner_party = party;
  gs.radio = net::default_ground_station();
  return gs;
}

}  // namespace

int main(int argc, char** argv) {
  sim::Scenario scenario;
  try {
    scenario = sim::parse_scenario(argc, argv,
                                   sim::Scenario{.duration_s = 86400.0, .step_s = 120.0});
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  std::printf("scenario: %s\n\n", sim::describe(scenario).c_str());

  // --- 1. Membership --------------------------------------------------------
  core::Consortium consortium;
  struct Member {
    const char* name;
    core::PartyKind kind;
    double lat, lon;
    int sats;
    double raan;
  };
  const Member members[] = {
      {"Taiwan", core::PartyKind::kCountry, 25.03, 121.56, 10, 0.0},
      {"KoreaISP", core::PartyKind::kCompany, 37.57, 126.98, 8, 60.0},
      {"BrazilTel", core::PartyKind::kCompany, -23.55, -46.63, 6, 120.0},
      {"Nigeria", core::PartyKind::kCountry, 6.52, 3.38, 4, 240.0},
  };
  for (const Member& m : members) {
    core::Party party;
    party.name = m.name;
    party.kind = m.kind;
    party.home_region = orbit::Geodetic::from_degrees(m.lat, m.lon);
    const core::PartyId id = consortium.add_party(party);
    consortium.contribute(id, constellation::single_plane(
                                  550e3, 53.0, m.raan, m.sats, scenario.epoch,
                                  m.raan / 3.0));
  }
  std::printf("consortium: %zu parties, %zu satellites\n",
              consortium.parties().size(), consortium.active_satellite_count());
  for (const core::Party& p : consortium.parties()) {
    std::printf("  %-10s %-8s stake %5.1f%%\n", p.name.c_str(), to_string(p.kind),
                100.0 * consortium.stake(p.id));
  }

  // --- 2. Ground segment (own + one rented GSaaS teleport each) -------------
  std::vector<net::Terminal> terminals;
  std::vector<net::GroundStation> stations;
  const net::GsaasInventory teleports = net::GsaasInventory::global_default();
  for (std::size_t i = 0; i < std::size(members); ++i) {
    const Member& m = members[i];
    const auto party = static_cast<core::PartyId>(i);
    terminals.push_back(terminal_at(m.lat, m.lon, party,
                                    static_cast<net::TerminalId>(i)));
    stations.push_back(station_at(m.lat + 0.4, m.lon - 0.4, party,
                                  static_cast<net::GroundStationId>(i)));
    // Rent the cheapest teleport within 3000 km (§3.1's GSaaS path).
    if (const auto rented = teleports.cheapest_near(
            orbit::Geodetic::from_degrees(m.lat, m.lon), 3000e3)) {
      net::GroundStation gs = rented->station;
      gs.owner_party = party;
      stations.push_back(gs);
      std::printf("  %-10s rents %s at %.1f tokens/min\n", m.name,
                  gs.name.c_str(), rented->price_per_minute);
    }
  }

  // --- 3. Spectrum ----------------------------------------------------------
  net::ChannelTable channels(net::standard_band_plans()[1]);  // Ku band
  for (std::size_t i = 0; i < std::size(members); ++i) {
    const auto grant = channels.grant(62.5e6, static_cast<std::uint32_t>(i));
    if (grant) {
      std::printf("  %-10s granted Ku channel #%u (uplink %.4f GHz)\n",
                  members[i].name, grant->id, grant->uplink_center_hz / 1e9);
    }
  }

  // --- 4. A day of bent-pipe scheduling -------------------------------------
  const net::BentPipeScheduler scheduler(net::SchedulerConfig{},
                                         consortium.active_satellites(), terminals,
                                         stations);
  sim::RunContext context(scenario);
  const net::ScheduleResult usage =
      scheduler.run(scenario.grid(), consortium.parties().size(), context);

  std::printf("\nusage over %s:\n",
              util::Table::duration(scenario.grid().duration_seconds()).c_str());
  util::Table usage_table({"party", "own link", "spare used", "spare provided",
                           "unserved"});
  for (std::size_t p = 0; p < usage.per_party.size(); ++p) {
    const net::PartyUsage& u = usage.per_party[p];
    usage_table.add_row({consortium.parties()[p].name,
                         util::Table::duration(u.own_link_seconds),
                         util::Table::duration(u.spare_used_seconds),
                         util::Table::duration(u.spare_provided_seconds),
                         util::Table::duration(u.unserved_terminal_seconds)});
  }
  std::fputs(usage_table.to_string().c_str(), stdout);

  // --- 5. Settlement on the ledger ------------------------------------------
  core::Ledger ledger;
  ledger.mint(4000.0, "genesis");
  std::vector<core::AccountId> accounts;
  for (const core::Party& p : consortium.parties()) {
    accounts.push_back(ledger.open_account(p.name));
    (void)ledger.reward(accounts.back(), 800.0, "bootstrap grant");
  }
  core::SettlementConfig settle_cfg;
  settle_cfg.dynamic = true;
  settle_cfg.dynamic_config.base = settle_cfg.pricing;
  const core::SettlementReport settlement = settle(usage, accounts, settle_cfg, ledger);
  std::printf("\nsettlement: %.2f tokens cleared, utilization %.0f%%, price x%.2f\n",
              settlement.total_cleared, settlement.utilization * 100.0,
              settlement.price_multiplier);

  // --- 6. Proof-of-coverage spot checks --------------------------------------
  core::ProofOfCoverage poc{core::ProofOfCoverage::Config{}};
  sim::TraceRecorder trace;
  const auto sats = consortium.active_satellites();
  std::vector<std::uint64_t> keys;
  keys.reserve(sats.size());
  for (const auto& sat : sats) keys.push_back(poc.register_satellite(sat, scenario.seed));
  // A verifier under each party's home region pings whatever passes overhead.
  std::size_t valid = 0, rejected = 0;
  for (const Member& m : members) {
    const auto verifier =
        poc.register_verifier(orbit::Geodetic::from_degrees(m.lat, m.lon));
    for (std::size_t s = 0; s < sats.size(); ++s) {
      for (int hour = 0; hour < 24; hour += 6) {
        const auto t = scenario.epoch.plus_seconds(hour * 3600.0);
        const auto receipt = core::ProofOfCoverage::answer_challenge(
            sats[s].id, keys[s], verifier, t, static_cast<std::uint64_t>(hour));
        const auto verdict =
            poc.verify_and_reward(receipt, ledger, accounts[sats[s].owner_party]);
        if (verdict == core::ReceiptVerdict::kValid) {
          ++valid;
          trace.record(hour * 3600.0, "poc",
                       sats[s].name + " verified over " + m.name);
        } else {
          ++rejected;
        }
      }
    }
  }
  std::printf("proof-of-coverage: %zu receipts valid, %zu rejected (not overhead)\n",
              valid, rejected);

  // --- 7. Market for tomorrow's spare capacity -------------------------------
  core::CapacityMarket market;
  for (std::size_t p = 0; p < accounts.size(); ++p) {
    const double spare_gb = usage.per_party[p].spare_provided_seconds / 60.0;
    if (spare_gb > 0.0) {
      market.post_ask({static_cast<std::uint32_t>(p), accounts[p], spare_gb, 3.0});
    }
    const double need_gb = usage.per_party[p].unserved_terminal_seconds / 120.0;
    if (need_gb > 0.0) {
      market.post_bid({static_cast<std::uint32_t>(p), accounts[p], need_gb, 6.0});
    }
  }
  const core::ClearingResult cleared = market.clear(ledger);
  std::printf("market: %.1f GB cleared at avg %.2f tokens/GB (%zu trades)\n",
              cleared.cleared_gb, cleared.average_price(), cleared.trades.size());

  // --- 8. Withdrawal drill ----------------------------------------------------
  const cov::CoverageEngine engine(scenario.grid(), scenario.elevation_mask_deg);
  const auto sites = cov::sites_from_cities(cov::paper_cities());
  const double before =
      engine.weighted_coverage_seconds(consortium.active_satellites(), sites);
  const core::PartyId biggest = consortium.largest_party();
  const std::string biggest_name = consortium.parties()[biggest].name;
  const double stake = consortium.stake(biggest);
  consortium.withdraw_party(biggest);
  const double after =
      engine.weighted_coverage_seconds(consortium.active_satellites(), sites);
  std::printf("\nwithdrawal drill: %s (stake %.0f%%) exits\n", biggest_name.c_str(),
              stake * 100.0);
  std::printf("  weighted coverage %s -> %s (%.1f%% drop; network survives)\n",
              util::Table::duration(before).c_str(),
              util::Table::duration(after).c_str(), 100.0 * (before - after) / before);

  std::printf("\nfinal balances:\n");
  for (std::size_t p = 0; p < accounts.size(); ++p) {
    std::printf("  %-10s %8.2f tokens\n", ledger.account_name(accounts[p]).c_str(),
                ledger.balance(accounts[p]));
  }
  return 0;
}
