// Byzantine-robustness integration: the acceptance contracts of the
// adversary subsystem against the full campaign stack.
//
//   * Bit-identity: arming with an empty BehaviorBook leaves the campaign
//     bit-identical to never arming — same ledger entries, same allocations,
//     same scheduler output (the adversary analogue of
//     FaultTimeline::empty()).
//   * Detection: with a pinned seed, audited fraud evidence is at least the
//     injected fraud — no Byzantine submission slips through un-verdicted.
//   * Sanctions bite: a quarantined party draws zero spare capacity and is
//     withheld from emission until reinstated.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "constellation/shell.hpp"
#include "core/campaign.hpp"
#include "sim/run_context.hpp"

namespace mpleo::core {
namespace {

const orbit::TimePoint kEpoch = orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z");

const std::vector<adversary::Behavior> kFullMix =
    adversary::mix_for_mode(sim::AdversaryMode::kMixed);

// Four parties so a 0.5 Byzantine fraction arms two of them; geometry and
// epochs mirror the campaign suite (6 h epochs, 180 s steps keep it fast).
struct AdversaryCampaignFixture : public ::testing::Test {
  AdversaryCampaignFixture() {
    for (std::uint32_t p = 0; p < 4; ++p) {
      Party party;
      party.name = std::string("party-") + static_cast<char>('A' + p);
      parties.push_back(consortium.add_party(party));
      consortium.contribute(
          parties.back(),
          constellation::single_plane(550e3 + 10e3 * p, 53.0, 90.0 * p, 4, kEpoch,
                                      10.0 * p));
    }
    const double lats[] = {25.0, 37.5, -33.9, 51.5};
    const double lons[] = {121.5, 127.0, 18.4, -0.1};
    for (std::uint32_t p = 0; p < 4; ++p) {
      net::Terminal t;
      t.id = static_cast<net::TerminalId>(p);
      t.location = orbit::Geodetic::from_degrees(lats[p], lons[p]);
      t.owner_party = p;
      t.radio = net::default_user_terminal();
      terminals.push_back(t);
      net::GroundStation gs;
      gs.id = static_cast<net::GroundStationId>(p);
      gs.location = orbit::Geodetic::from_degrees(lats[p] - 0.2, lons[p] - 0.3);
      gs.owner_party = p;
      gs.radio = net::default_ground_station();
      stations.push_back(gs);
    }
    config.epoch_duration_s = 6.0 * 3600.0;
    config.step_s = 180.0;
  }

  [[nodiscard]] Campaign make_campaign(std::uint64_t seed = 7) {
    Consortium copy = consortium;
    return Campaign(std::move(copy), terminals, stations, config, seed);
  }

  Consortium consortium;
  std::vector<PartyId> parties;
  std::vector<net::Terminal> terminals;
  std::vector<net::GroundStation> stations;
  CampaignConfig config;
};

TEST_F(AdversaryCampaignFixture, EmptyBookIsBitIdenticalToUnarmed) {
  sim::RunContext context;
  Campaign plain = make_campaign();
  Campaign armed = make_campaign();
  armed.arm_adversaries(adversary::BehaviorBook());
  ASSERT_TRUE(armed.armed());

  for (int e = 0; e < 2; ++e) {
    const EpochReport rp = plain.run_epoch(context);
    const EpochReport ra = armed.run_epoch(context);
    // Scheduler output, settlement, PoC verdicts and balances all identical.
    EXPECT_EQ(rp.usage, ra.usage);
    EXPECT_EQ(rp.balances, ra.balances);
    EXPECT_EQ(rp.poc_valid, ra.poc_valid);
    EXPECT_EQ(rp.poc_rejected, ra.poc_rejected);
    EXPECT_DOUBLE_EQ(rp.total_served_seconds, ra.total_served_seconds);
    EXPECT_DOUBLE_EQ(rp.emission_minted, ra.emission_minted);
    // The armed report carries a (all-quiet) summary; the plain one none.
    EXPECT_FALSE(rp.adversary.has_value());
    ASSERT_TRUE(ra.adversary.has_value());
    EXPECT_EQ(*ra.adversary, AdversaryEpochSummary{});
  }
  // The strongest check: every ledger entry, bit for bit.
  EXPECT_EQ(plain.ledger(), armed.ledger());
}

TEST_F(AdversaryCampaignFixture, ZeroFractionSampleIsAlsoIdentical) {
  sim::RunContext context;
  Campaign plain = make_campaign();
  Campaign armed = make_campaign();
  armed.arm_adversaries(
      adversary::BehaviorBook::sample(4, 0.0, kFullMix, 1.0, 4, 1042));
  (void)plain.run_epoch(context);
  (void)armed.run_epoch(context);
  EXPECT_EQ(plain.ledger(), armed.ledger());
}

TEST_F(AdversaryCampaignFixture, DetectionCoversInjectionAtPinnedSeed) {
  sim::RunContext context;
  Campaign campaign = make_campaign(/*seed=*/1042);
  campaign.arm_adversaries(
      adversary::BehaviorBook::sample(4, 0.5, kFullMix, 1.0, 6, 1042));

  std::size_t injected = 0;
  std::size_t detected = 0;
  for (int e = 0; e < 3; ++e) {
    const EpochReport report = campaign.run_epoch(context);
    ASSERT_TRUE(report.adversary.has_value());
    injected += report.adversary->receipts_injected +
                report.adversary->misreports_injected;
    detected += report.adversary->fraud_detected;
    EXPECT_EQ(report.adversary->misreports_detected,
              report.adversary->misreports_injected);
  }
  EXPECT_GT(injected, 0u);
  EXPECT_GE(detected, injected);
  EXPECT_EQ(campaign.auditor().totals().fraud_total(), detected);
}

TEST_F(AdversaryCampaignFixture, ForgersGetQuarantinedAndLoseSpareAccess) {
  sim::RunContext context;
  Campaign campaign = make_campaign(/*seed=*/1042);
  adversary::QuarantineConfig quarantine;
  quarantine.quarantine_threshold = 4;  // one forging epoch (6 receipts) trips it
  quarantine.reinstate_after_clean_epochs = 100;  // keep them locked out
  const std::vector<adversary::Behavior> forge_only = {
      adversary::Behavior::kForgeReceipts};
  campaign.arm_adversaries(
      adversary::BehaviorBook::sample(4, 0.5, forge_only, 1.0, 6, 1042),
      adversary::AuditConfig{}, quarantine);

  const EpochReport first = campaign.run_epoch(context);
  ASSERT_TRUE(first.adversary.has_value());
  EXPECT_EQ(first.adversary->quarantined_parties, 2u);
  EXPECT_GT(first.adversary->slashed_total, 0.0);

  // From the next epoch on, sanctioned parties draw nothing from the spare
  // commons and feed nothing into it (graceful, not punitive: own-fleet
  // service continues).
  for (int e = 0; e < 3; ++e) {
    const EpochReport report = campaign.run_epoch(context);
    for (PartyId party = 0; party < 4; ++party) {
      if (campaign.quarantine().state(party) == adversary::TrustState::kTrusted) {
        continue;
      }
      EXPECT_DOUBLE_EQ(report.usage[party].spare_used_seconds, 0.0)
          << "party " << party << " epoch " << report.epoch;
      EXPECT_DOUBLE_EQ(report.usage[party].spare_provided_seconds, 0.0)
          << "party " << party << " epoch " << report.epoch;
    }
  }
  // Fraud moved tokens to the treasury, never destroyed them.
  EXPECT_NEAR(campaign.ledger().sum_of_balances(), campaign.ledger().total_minted(),
              1e-6);
}

TEST_F(AdversaryCampaignFixture, QuarantinedPartiesWithheldFromEmission) {
  sim::RunContext context;
  // No spot checks: the only token flows left for a quarantined party are
  // emission (withheld) and spare settlement (excluded), so its balance
  // cannot rise.
  config.poc_challenges_per_terminal_per_epoch = 0;
  Campaign campaign = make_campaign(/*seed=*/1042);
  adversary::QuarantineConfig quarantine;
  quarantine.quarantine_threshold = 1;
  quarantine.reinstate_after_clean_epochs = 100;
  const std::vector<adversary::Behavior> forge_only = {
      adversary::Behavior::kForgeReceipts};
  campaign.arm_adversaries(
      adversary::BehaviorBook::sample(4, 0.25, forge_only, 1.0, 6, 1042),
      adversary::AuditConfig{}, quarantine);

  (void)campaign.run_epoch(context);  // quarantine lands here
  PartyId sanctioned = 0;
  bool found = false;
  for (PartyId party = 0; party < 4; ++party) {
    if (campaign.quarantine().state(party) == adversary::TrustState::kQuarantined) {
      sanctioned = party;
      found = true;
    }
  }
  ASSERT_TRUE(found);

  // The sanctioned party's balance can only fall (settlement debits) while
  // quarantined: no emission, no PoC rewards reach a party whose standing is
  // not kActive.
  const double before = campaign.ledger().balance(campaign.account_of(sanctioned));
  const EpochReport report = campaign.run_epoch(context);
  EXPECT_GT(report.emission_minted, 0.0);
  EXPECT_LE(campaign.ledger().balance(campaign.account_of(sanctioned)), before);
}

TEST_F(AdversaryCampaignFixture, AccessorsThrowWhenUnarmed) {
  Campaign campaign = make_campaign();
  EXPECT_FALSE(campaign.armed());
  EXPECT_THROW((void)campaign.behavior_book(), std::logic_error);
  EXPECT_THROW((void)campaign.auditor(), std::logic_error);
  EXPECT_THROW((void)campaign.quarantine(), std::logic_error);
  EXPECT_THROW((void)campaign.adversary_reputation(), std::logic_error);
}

TEST_F(AdversaryCampaignFixture, ArmRfRequiresAnArmedCampaign) {
  Campaign campaign = make_campaign();
  EXPECT_FALSE(campaign.rf_armed());
  EXPECT_EQ(campaign.rf_environment(), nullptr);
  EXPECT_THROW(campaign.arm_rf(rf::SpectrumConfig{}), std::logic_error);

  campaign.arm_adversaries(adversary::BehaviorBook());
  rf::SpectrumConfig bad;
  bad.channel_bandwidth_hz = -1.0;
  EXPECT_THROW(campaign.arm_rf(bad), std::invalid_argument);

  campaign.arm_rf(rf::SpectrumConfig{});
  EXPECT_TRUE(campaign.rf_armed());
  ASSERT_NE(campaign.rf_environment(), nullptr);
  // An all-honest book has nothing to jam with: the scheduler never sees the
  // environment.
  EXPECT_FALSE(campaign.rf_environment()->any_interferer());
}

TEST_F(AdversaryCampaignFixture, RfOverEmptyBookIsBitIdenticalToPlain) {
  // Arming the RF layer over a book with no jammer or squatter must leave
  // every epoch bit-identical to the never-armed campaign: the spectrum
  // partition is disjoint, so the clean path never engages.
  sim::RunContext context;
  Campaign plain = make_campaign();
  Campaign armed = make_campaign();
  armed.arm_adversaries(adversary::BehaviorBook());
  armed.arm_rf(rf::SpectrumConfig{});
  for (int e = 0; e < 2; ++e) {
    const EpochReport rp = plain.run_epoch(context);
    const EpochReport ra = armed.run_epoch(context);
    EXPECT_EQ(rp.usage, ra.usage);
    EXPECT_EQ(rp.balances, ra.balances);
    ASSERT_TRUE(ra.adversary.has_value());
    EXPECT_EQ(*ra.adversary, AdversaryEpochSummary{});
  }
  EXPECT_EQ(plain.ledger(), armed.ledger());
}

TEST_F(AdversaryCampaignFixture, ArmRfWithoutRfBehaviorsPerturbsNothing) {
  // The full classic mix holds no jamming or squatting party, so the same
  // book runs identically with and without the RF layer armed (the Doppler
  // audit stage stays off by default).
  sim::RunContext context;
  Campaign classic = make_campaign(/*seed=*/1042);
  Campaign with_rf = make_campaign(/*seed=*/1042);
  classic.arm_adversaries(
      adversary::BehaviorBook::sample(4, 0.5, kFullMix, 1.0, 6, 1042));
  with_rf.arm_adversaries(
      adversary::BehaviorBook::sample(4, 0.5, kFullMix, 1.0, 6, 1042));
  with_rf.arm_rf(rf::SpectrumConfig{});
  EXPECT_FALSE(with_rf.rf_environment()->any_interferer());
  for (int e = 0; e < 2; ++e) {
    const EpochReport rc = classic.run_epoch(context);
    const EpochReport rr = with_rf.run_epoch(context);
    EXPECT_EQ(rc.usage, rr.usage);
    EXPECT_EQ(rc.balances, rr.balances);
    ASSERT_TRUE(rr.adversary.has_value());
    EXPECT_EQ(rc.adversary->fraud_detected, rr.adversary->fraud_detected);
    EXPECT_EQ(rr.adversary->rf_forgeries_injected, 0u);
    EXPECT_EQ(rr.adversary->rf_interference_violations, 0u);
  }
  EXPECT_EQ(classic.ledger(), with_rf.ledger());
}

TEST_F(AdversaryCampaignFixture, JammingDegradesCapacityAndGetsAttributed) {
  sim::RunContext context;
  Campaign campaign = make_campaign(/*seed=*/1042);
  adversary::QuarantineConfig quarantine;
  quarantine.quarantine_threshold = 2;  // one jamming epoch (2 events) trips it
  quarantine.reinstate_after_clean_epochs = 100;
  const std::vector<adversary::Behavior> jam_only = {adversary::Behavior::kJamming};
  campaign.arm_adversaries(
      adversary::BehaviorBook::sample(4, 0.5, jam_only, 1.0, 6, 1042),
      adversary::AuditConfig{}, quarantine);
  campaign.arm_rf(rf::SpectrumConfig{});
  ASSERT_TRUE(campaign.rf_environment()->any_interferer());

  const EpochReport report = campaign.run_epoch(context);
  ASSERT_TRUE(report.adversary.has_value());
  // Interference bled granted capacity and the plan violations were
  // attributed as fraud evidence (2 events per jamming party per epoch).
  EXPECT_GT(report.adversary->rf_nominal_bps, 0.0);
  EXPECT_GT(report.adversary->rf_capacity_lost_bps, 0.0);
  EXPECT_LT(report.adversary->rf_capacity_lost_bps, report.adversary->rf_nominal_bps);
  EXPECT_EQ(report.adversary->rf_interference_violations, 4u);
  EXPECT_EQ(campaign.auditor().totals().rf_interference_violations, 4u);
  // Continuous emission is attributable: both jammers are sanctioned already.
  EXPECT_EQ(report.adversary->quarantined_parties, 2u);
  EXPECT_GT(report.adversary->slashed_total, 0.0);
}

TEST_F(AdversaryCampaignFixture, DopplerAuditRejectsRfForgeriesNotHonestTraffic) {
  sim::RunContext context;
  Campaign campaign = make_campaign(/*seed=*/1042);
  adversary::AuditConfig audit;
  audit.doppler.enabled = true;
  const std::vector<adversary::Behavior> forge_only = {
      adversary::Behavior::kForgeReceipts};
  campaign.arm_adversaries(
      adversary::BehaviorBook::sample(4, 0.5, forge_only, 1.0, 6, 1042), audit);
  campaign.arm_rf(rf::SpectrumConfig{}, rf::ForgeryLevel::kFlatTone);

  std::size_t rf_forged = 0;
  std::size_t rf_rejected = 0;
  std::size_t poc_valid = 0;
  for (int e = 0; e < 3; ++e) {
    const EpochReport report = campaign.run_epoch(context);
    ASSERT_TRUE(report.adversary.has_value());
    rf_forged += report.adversary->rf_forgeries_injected;
    rf_rejected += report.adversary->rf_doppler_rejections;
    poc_valid += report.poc_valid;
  }
  // Forgers with ephemeris access picked overhead steps — geometry passes,
  // only the fabricated track gives them away.
  EXPECT_GT(rf_forged, 0u);
  // Every fabricated track was rejected and no honest receipt was flagged:
  // rejections match forgeries exactly.
  EXPECT_EQ(rf_rejected, rf_forged);
  EXPECT_EQ(campaign.auditor().totals().rf_doppler_rejections, rf_forged);
  // Honest challenge receipts kept crediting with their noisy-but-true
  // tracks, and more tracks were checked than forged (honest ones too).
  EXPECT_GT(poc_valid, 0u);
  EXPECT_GT(campaign.auditor().totals().doppler_checked, rf_forged);
}

}  // namespace
}  // namespace mpleo::core
