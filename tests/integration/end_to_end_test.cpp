// Integration tests: the full MP-LEO stack — consortium membership,
// bent-pipe scheduling, settlement, proof-of-coverage, withdrawal — wired
// together the way the examples and benches use it.
#include <gtest/gtest.h>

#include <numeric>

#include "core/mpleo.hpp"

namespace mpleo {
namespace {

const orbit::TimePoint kEpoch = orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z");

class MpLeoStack : public ::testing::Test {
 protected:
  MpLeoStack() {
    // Two parties: Taiwan contributes a 12-sat shell slice, KoreaISP 6 sats
    // in a different plane.
    core::Party taiwan;
    taiwan.name = "Taiwan";
    taiwan.kind = core::PartyKind::kCountry;
    taiwan.home_region = orbit::Geodetic::from_degrees(25.03, 121.56);
    taiwan_ = consortium_.add_party(taiwan);

    core::Party korea;
    korea.name = "KoreaISP";
    korea.kind = core::PartyKind::kCompany;
    korea.objective = core::Objective::kProfit;
    korea.home_region = orbit::Geodetic::from_degrees(37.57, 126.98);
    korea_ = consortium_.add_party(korea);

    consortium_.contribute(taiwan_,
                           constellation::single_plane(550e3, 53.0, 0.0, 12, kEpoch));
    consortium_.contribute(korea_,
                           constellation::single_plane(550e3, 53.0, 90.0, 6, kEpoch, 15.0));
  }

  core::Consortium consortium_;
  core::PartyId taiwan_ = 0;
  core::PartyId korea_ = 0;
};

TEST_F(MpLeoStack, StakesReflectContributions) {
  EXPECT_EQ(consortium_.active_satellite_count(), 18u);
  EXPECT_NEAR(consortium_.stake(taiwan_), 12.0 / 18.0, 1e-12);
  EXPECT_NEAR(consortium_.stake(korea_), 6.0 / 18.0, 1e-12);
  EXPECT_EQ(consortium_.largest_party(), taiwan_);
}

TEST_F(MpLeoStack, ScheduleSettleAndAudit) {
  // Terminals and ground stations for both parties near their home regions.
  std::vector<net::Terminal> terminals;
  net::Terminal t0;
  t0.id = 0;
  t0.location = orbit::Geodetic::from_degrees(25.0, 121.5);
  t0.owner_party = taiwan_;
  t0.radio = net::default_user_terminal();
  terminals.push_back(t0);
  net::Terminal t1 = t0;
  t1.id = 1;
  t1.location = orbit::Geodetic::from_degrees(37.5, 127.0);
  t1.owner_party = korea_;
  terminals.push_back(t1);

  std::vector<net::GroundStation> stations;
  net::GroundStation g0;
  g0.id = 0;
  g0.location = orbit::Geodetic::from_degrees(24.8, 121.0);
  g0.owner_party = taiwan_;
  g0.radio = net::default_ground_station();
  stations.push_back(g0);
  net::GroundStation g1 = g0;
  g1.id = 1;
  g1.location = orbit::Geodetic::from_degrees(37.4, 127.1);
  g1.owner_party = korea_;
  stations.push_back(g1);

  const net::BentPipeScheduler scheduler(net::SchedulerConfig{},
                                         consortium_.active_satellites(), terminals,
                                         stations);
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(kEpoch, 86400.0, 120.0);
  sim::RunContext context;
  const net::ScheduleResult usage = scheduler.run(grid, consortium_.parties().size(), context);

  // Both parties got some service across a day.
  const auto& taiwan_usage = usage.per_party[taiwan_];
  const auto& korea_usage = usage.per_party[korea_];
  EXPECT_GT(taiwan_usage.own_link_seconds + taiwan_usage.spare_used_seconds, 0.0);
  EXPECT_GT(korea_usage.own_link_seconds + korea_usage.spare_used_seconds, 0.0);

  // Settle through the ledger.
  core::Ledger ledger;
  ledger.mint(10000.0);
  std::vector<core::AccountId> accounts;
  for (const core::Party& p : consortium_.parties()) {
    accounts.push_back(ledger.open_account(p.name));
    ASSERT_TRUE(ledger.reward(accounts.back(), 1000.0));
  }
  core::SettlementConfig cfg;
  const core::SettlementReport report = settle(usage, accounts, cfg, ledger);
  EXPECT_EQ(report.failed_transfers, 0u);

  // Payments conserve tokens.
  EXPECT_NEAR(ledger.sum_of_balances(), ledger.total_minted(), 1e-6);

  // Whoever used spare capacity paid; whoever provided it earned.
  for (std::size_t p = 0; p < usage.per_party.size(); ++p) {
    if (usage.per_party[p].spare_used_seconds > 0.0) {
      EXPECT_GT(report.per_party[p].paid, 0.0) << "party " << p;
    }
    if (usage.per_party[p].spare_provided_seconds > 0.0 && report.total_cleared > 0.0) {
      EXPECT_GT(report.per_party[p].earned, 0.0) << "party " << p;
    }
  }
}

TEST_F(MpLeoStack, WithdrawalDegradesProportionallyNotTotally) {
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(kEpoch, 86400.0, 120.0);
  const cov::CoverageEngine engine(grid, 25.0);
  const auto sites = cov::sites_from_cities(cov::paper_cities());

  const double before =
      engine.weighted_coverage_seconds(consortium_.active_satellites(), sites);
  consortium_.withdraw_party(korea_);
  const double after =
      engine.weighted_coverage_seconds(consortium_.active_satellites(), sites);

  EXPECT_GT(before, 0.0);
  EXPECT_LE(after, before);
  // Robustness: the network survives the exit (coverage does not collapse
  // below the remaining stake share of the original).
  EXPECT_GT(after, 0.3 * before);
}

TEST_F(MpLeoStack, ProofOfCoverageEarnsOnlyForRealCoverage) {
  core::ProofOfCoverage poc{core::ProofOfCoverage::Config{}};
  core::Ledger ledger;
  ledger.mint(100.0);
  const core::AccountId owner = ledger.open_account("Taiwan");

  const auto sats = consortium_.party_satellites(taiwan_);
  const auto key = poc.register_satellite(sats.front(), 42);

  // Verifier directly under the satellite at epoch.
  const orbit::KeplerianPropagator prop(sats.front().elements, sats.front().epoch);
  const auto ecef = orbit::eci_to_ecef(prop.state_at(kEpoch).position, kEpoch);
  const auto below = orbit::ecef_to_geodetic(ecef);
  const auto verifier =
      poc.register_verifier({below.latitude_rad, below.longitude_rad, 0.0});

  const auto receipt =
      core::ProofOfCoverage::answer_challenge(sats.front().id, key, verifier, kEpoch, 99);
  EXPECT_EQ(poc.verify_and_reward(receipt, ledger, owner),
            core::ReceiptVerdict::kValid);
  EXPECT_GT(ledger.balance(owner), 0.0);

  // Six hours later the satellite is elsewhere; the same claim must fail.
  const auto stale = core::ProofOfCoverage::answer_challenge(
      sats.front().id, key, verifier, kEpoch.plus_seconds(6 * 3600.0), 100);
  EXPECT_EQ(poc.verify(stale), core::ReceiptVerdict::kNotOverhead);
}

TEST_F(MpLeoStack, MarketClearsSpareCapacityBetweenParties) {
  core::Ledger ledger;
  ledger.mint(1000.0);
  const auto taiwan_acct = ledger.open_account("Taiwan");
  const auto korea_acct = ledger.open_account("KoreaISP");
  ASSERT_TRUE(ledger.reward(korea_acct, 400.0));

  core::CapacityMarket market;
  // Taiwan (more satellites) offers spare capacity; Korea buys.
  market.post_ask({taiwan_, taiwan_acct, 50.0, 3.0});
  market.post_bid({korea_, korea_acct, 20.0, 5.0});
  const core::ClearingResult result = market.clear(ledger);

  ASSERT_EQ(result.trades.size(), 1u);
  EXPECT_TRUE(result.trades.front().settled);
  EXPECT_DOUBLE_EQ(result.cleared_gb, 20.0);
  EXPECT_DOUBLE_EQ(ledger.balance(taiwan_acct), 20.0 * 4.0);
  EXPECT_DOUBLE_EQ(result.unmatched_supply_gb, 30.0);
}

TEST(EndToEnd, TlePipelineFeedsCoverageEngine) {
  // Elements -> TLE text -> parse -> coverage, as a real deployment would
  // ingest a published catalog.
  const auto coe = orbit::ClassicalElements::circular(550e3, 53.0, 120.0, 40.0);
  const orbit::Tle tle = orbit::Tle::from_elements(coe, kEpoch, 70001, "MPLEO-1");
  const orbit::TleLines lines = orbit::format_tle(tle);
  const orbit::TleParseResult parsed = orbit::parse_tle("MPLEO-1", lines.line1, lines.line2);
  ASSERT_TRUE(parsed.ok) << parsed.error;

  constellation::Satellite sat;
  sat.name = parsed.tle.name;
  sat.elements = parsed.tle.to_elements();
  sat.epoch = parsed.tle.epoch;

  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(kEpoch, 86400.0, 60.0);
  const cov::CoverageEngine engine(grid, 25.0);

  // Compare coverage from the TLE round-trip against the original elements.
  constellation::Satellite original;
  original.elements = coe;
  original.epoch = kEpoch;
  const orbit::TopocentricFrame taipei_frame(cov::taipei().location);
  const auto mask_tle = engine.visibility_mask(sat, taipei_frame);
  const auto mask_orig = engine.visibility_mask(original, taipei_frame);
  // TLE fields quantise elements slightly; pass structure must agree within
  // a couple of steps per pass.
  const auto diff = static_cast<double>(mask_tle.count()) -
                    static_cast<double>(mask_orig.count());
  EXPECT_LE(std::abs(diff), 6.0);
  EXPECT_GT(mask_orig.count(), 0u);
}

}  // namespace
}  // namespace mpleo
