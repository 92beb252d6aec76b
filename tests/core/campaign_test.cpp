// Campaign behaviour through the RunContext entry point (a serial,
// pool-less context); pool-size identity is pinned by
// run_context_identity_test.cpp.
#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "constellation/shell.hpp"
#include "sim/run_context.hpp"

namespace mpleo::core {
namespace {

const orbit::TimePoint kEpoch = orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z");

struct CampaignFixture : public ::testing::Test {
  CampaignFixture() {
    Party a;
    a.name = "A";
    Party b;
    b.name = "B";
    party_a = consortium.add_party(a);
    party_b = consortium.add_party(b);
    consortium.contribute(party_a,
                          constellation::single_plane(550e3, 53.0, 0.0, 8, kEpoch));
    consortium.contribute(party_b,
                          constellation::single_plane(550e3, 53.0, 90.0, 4, kEpoch, 10.0));

    auto terminal = [](double lat, double lon, std::uint32_t party,
                       net::TerminalId id) {
      net::Terminal t;
      t.id = id;
      t.location = orbit::Geodetic::from_degrees(lat, lon);
      t.owner_party = party;
      t.radio = net::default_user_terminal();
      return t;
    };
    auto station = [](double lat, double lon, std::uint32_t party,
                      net::GroundStationId id) {
      net::GroundStation gs;
      gs.id = id;
      gs.location = orbit::Geodetic::from_degrees(lat, lon);
      gs.owner_party = party;
      gs.radio = net::default_ground_station();
      return gs;
    };
    terminals = {terminal(25.0, 121.5, party_a, 0), terminal(37.5, 127.0, party_b, 1)};
    stations = {station(24.8, 121.2, party_a, 0), station(37.3, 126.8, party_b, 1)};

    config.epoch_duration_s = 6.0 * 3600.0;  // short epochs keep tests fast
    config.step_s = 180.0;
  }

  Consortium consortium;
  PartyId party_a = 0, party_b = 0;
  std::vector<net::Terminal> terminals;
  std::vector<net::GroundStation> stations;
  CampaignConfig config;
  sim::RunContext context;  // serial: no pool, default metrics/trace
};

TEST_F(CampaignFixture, BootstrapGrantsIssued) {
  const Campaign campaign(std::move(consortium), terminals, stations, config, 7);
  EXPECT_DOUBLE_EQ(campaign.ledger().balance(campaign.account_of(party_a)),
                   config.bootstrap_grant);
  EXPECT_DOUBLE_EQ(campaign.ledger().balance(campaign.account_of(party_b)),
                   config.bootstrap_grant);
}

TEST_F(CampaignFixture, EpochAdvancesClockAndCounters) {
  Campaign campaign(std::move(consortium), terminals, stations, config, 7);
  const EpochReport r0 = campaign.run_epoch(context);
  EXPECT_EQ(r0.epoch, 0u);
  EXPECT_EQ(r0.window_start.julian_date(), config.start.julian_date());
  const EpochReport r1 = campaign.run_epoch(context);
  EXPECT_EQ(r1.epoch, 1u);
  EXPECT_NEAR(r1.window_start.seconds_since(r0.window_start), config.epoch_duration_s,
              1e-6);
  EXPECT_EQ(campaign.epochs_run(), 2u);
}

TEST_F(CampaignFixture, LedgerConservedAcrossEpochs) {
  Campaign campaign(std::move(consortium), terminals, stations, config, 7);
  for (int e = 0; e < 3; ++e) {
    (void)campaign.run_epoch(context);
    EXPECT_NEAR(campaign.ledger().sum_of_balances(), campaign.ledger().total_minted(),
                1e-6);
  }
}

TEST_F(CampaignFixture, EmissionDistributedByStake) {
  Campaign campaign(std::move(consortium), terminals, stations, config, 7);
  const EpochReport report = campaign.run_epoch(context);
  EXPECT_GT(report.emission_minted, 0.0);
  // Party A contributed 8 of 12 satellites -> 2/3 stake. PoC rewards and
  // settlement also move balances, so check the emission part dominates:
  // A's balance grows at least as much as B's.
  EXPECT_GE(report.balances[party_a], report.balances[party_b]);
}

TEST_F(CampaignFixture, ServiceHappensAndIsAccounted) {
  Campaign campaign(std::move(consortium), terminals, stations, config, 7);
  const EpochReport report = campaign.run_epoch(context);
  ASSERT_EQ(report.usage.size(), 2u);
  EXPECT_GT(report.total_served_seconds, 0.0);
  EXPECT_NEAR(report.total_served_seconds + report.total_unserved_seconds,
              2.0 * (config.epoch_duration_s + config.step_s), 2.0 * config.step_s);
  EXPECT_GT(report.service_fairness, 0.0);
  EXPECT_LE(report.service_fairness, 1.0);
  EXPECT_EQ(report.active_satellites, 12u);
}

TEST_F(CampaignFixture, PocChallengesRunAndMostlyReject) {
  // Random (satellite, time) pairs rarely coincide with an overhead pass,
  // so most receipts must be rejected by geometry — and all are counted.
  Campaign campaign(std::move(consortium), terminals, stations, config, 7);
  const EpochReport report = campaign.run_epoch(context);
  EXPECT_EQ(report.poc_valid + report.poc_rejected,
            terminals.size() * config.poc_challenges_per_terminal_per_epoch);
  EXPECT_GE(report.poc_rejected, report.poc_valid);
}

TEST_F(CampaignFixture, WithdrawalShrinksNextEpoch) {
  Campaign campaign(std::move(consortium), terminals, stations, config, 7);
  const EpochReport before = campaign.run_epoch(context);
  EXPECT_EQ(campaign.withdraw_party(party_b), 4u);
  const EpochReport after = campaign.run_epoch(context);
  EXPECT_EQ(after.active_satellites, 8u);
  EXPECT_LT(after.active_satellites, before.active_satellites);
  // Party B's terminal now rides spare capacity only; the network still
  // serves someone across the following day (no total shutdown). A single
  // 6-hour epoch can legitimately contain no pass, so accumulate a day.
  double served = after.total_served_seconds;
  for (int e = 0; e < 3; ++e) served += campaign.run_epoch(context).total_served_seconds;
  EXPECT_GT(served, 0.0);
}

TEST_F(CampaignFixture, EmissionDecaysAcrossHalvings) {
  config.emission.epochs_per_halving = 2;
  Campaign campaign(std::move(consortium), terminals, stations, config, 7);
  const double e0 = campaign.run_epoch(context).emission_minted;
  (void)campaign.run_epoch(context);
  const double e2 = campaign.run_epoch(context).emission_minted;
  EXPECT_DOUBLE_EQ(e2, e0 * config.emission.decay);
}

TEST_F(CampaignFixture, InvalidOwnersRejected) {
  terminals[0].owner_party = 9;
  EXPECT_THROW(Campaign(std::move(consortium), terminals, stations, config, 7),
               std::invalid_argument);
}

TEST(Campaign, RequiresParties) {
  Consortium empty;
  EXPECT_THROW(Campaign(std::move(empty), {}, {}, CampaignConfig{}, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace mpleo::core
