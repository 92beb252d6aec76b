#include "adversary/quarantine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/validation.hpp"
#include "obs/metrics.hpp"

namespace mpleo::adversary {
namespace {

// Drives the trust ladder with synthetic fraud evidence: each
// audit_sla_claim overclaim is exactly one fraud event, so tests control the
// per-epoch evidence stream without orbital geometry.
struct QuarantineFixture {
  QuarantineConfig config;
  core::Consortium consortium;
  core::Ledger ledger;
  std::vector<core::AccountId> accounts;
  ReceiptAuditor auditor{AuditConfig{}, /*party_count=*/2};
  core::ReputationTracker reputation{2};

  QuarantineFixture() {
    config.suspect_threshold = 1;
    config.quarantine_threshold = 4;
    config.expel_after_quarantined_epochs = 2;
    config.reinstate_after_clean_epochs = 2;
    config.stake_slash_fraction = 0.5;
    for (int p = 0; p < 2; ++p) {
      core::Party party;
      party.name = "party-" + std::to_string(p);
      (void)consortium.add_party(party);
      accounts.push_back(ledger.open_account(party.name));
    }
    ledger.mint(200.0);
    EXPECT_TRUE(ledger.transfer(core::Ledger::kTreasury, accounts[0], 80.0, "stake"));
    EXPECT_TRUE(ledger.transfer(core::Ledger::kTreasury, accounts[1], 80.0, "stake"));
  }

  void inject_fraud(core::PartyId party, std::uint64_t events) {
    for (std::uint64_t i = 0; i < events; ++i) {
      ASSERT_TRUE(auditor.audit_sla_claim(party, 1000.0, 1.0));
    }
  }

  void observe(QuarantineManager& manager, std::size_t epoch) {
    manager.observe_epoch(epoch, auditor, ledger, accounts, consortium, &reputation);
  }
};

TEST(QuarantineManager, CleanPartiesStayTrusted) {
  QuarantineFixture fx;
  QuarantineManager manager(fx.config, 2);
  for (std::size_t epoch = 0; epoch < 3; ++epoch) fx.observe(manager, epoch);
  EXPECT_EQ(manager.state(0), TrustState::kTrusted);
  EXPECT_EQ(manager.state(1), TrustState::kTrusted);
  EXPECT_EQ(manager.spare_exclusion(), (std::vector<std::uint8_t>{0, 0}));
  EXPECT_DOUBLE_EQ(manager.total_slashed(), 0.0);
}

TEST(QuarantineManager, FreshEvidenceSuspects) {
  QuarantineFixture fx;
  QuarantineManager manager(fx.config, 2);
  fx.inject_fraud(0, 1);
  fx.observe(manager, 0);
  EXPECT_EQ(manager.state(0), TrustState::kSuspected);
  EXPECT_EQ(manager.state(1), TrustState::kTrusted);
  EXPECT_EQ(manager.record(0).first_fraud_epoch, 0u);
  // Suspicion alone does not sanction.
  EXPECT_EQ(fx.consortium.party_status(0), core::PartyStatus::kActive);
  EXPECT_DOUBLE_EQ(fx.ledger.balance(fx.accounts[0]), 80.0);
}

TEST(QuarantineManager, CumulativeEvidenceQuarantinesAndSlashes) {
  QuarantineFixture fx;
  obs::MetricsRegistry metrics;
  QuarantineManager manager(fx.config, 2, &metrics);
  fx.inject_fraud(0, 1);
  fx.observe(manager, 0);  // suspected
  fx.inject_fraud(0, 3);   // cumulative 4 >= threshold
  fx.observe(manager, 1);

  EXPECT_EQ(manager.state(0), TrustState::kQuarantined);
  EXPECT_EQ(fx.consortium.party_status(0), core::PartyStatus::kQuarantined);
  EXPECT_DOUBLE_EQ(fx.ledger.balance(fx.accounts[0]), 40.0);  // 50% slashed
  EXPECT_DOUBLE_EQ(manager.total_slashed(), 40.0);
  EXPECT_DOUBLE_EQ(manager.record(0).slashed_total, 40.0);
  EXPECT_EQ(manager.quarantined_count(), 1u);
  EXPECT_EQ(manager.spare_exclusion(), (std::vector<std::uint8_t>{1, 0}));
  // First evidence epoch 0, quarantined epoch 1.
  EXPECT_DOUBLE_EQ(manager.mean_detection_epochs(), 1.0);
  EXPECT_EQ(metrics.counter_value("quarantine.quarantined"), 1u);
  // The slash moved value, never destroyed it.
  EXPECT_DOUBLE_EQ(fx.ledger.sum_of_balances(), fx.ledger.total_minted());
}

TEST(QuarantineManager, BurstEvidenceQuarantinesInOneEpoch) {
  QuarantineFixture fx;
  QuarantineManager manager(fx.config, 2);
  fx.inject_fraud(0, 5);  // >= quarantine_threshold at once
  fx.observe(manager, 0);
  EXPECT_EQ(manager.state(0), TrustState::kQuarantined);
  EXPECT_DOUBLE_EQ(manager.mean_detection_epochs(), 0.0);
}

TEST(QuarantineManager, PersistentFraudExpels) {
  QuarantineFixture fx;
  QuarantineManager manager(fx.config, 2);
  fx.inject_fraud(0, 4);
  fx.observe(manager, 0);  // quarantined
  fx.inject_fraud(0, 1);
  fx.observe(manager, 1);  // fraud epoch 1 of 2 while quarantined
  EXPECT_EQ(manager.state(0), TrustState::kQuarantined);
  fx.inject_fraud(0, 1);
  fx.observe(manager, 2);  // fraud epoch 2 -> expelled

  EXPECT_EQ(manager.state(0), TrustState::kExpelled);
  EXPECT_EQ(fx.consortium.party_status(0), core::PartyStatus::kWithdrawn);
  EXPECT_EQ(manager.expelled_count(), 1u);
  EXPECT_EQ(manager.quarantined_count(), 0u);
  // Terminal: further clean epochs never reinstate.
  for (std::size_t epoch = 3; epoch < 8; ++epoch) fx.observe(manager, epoch);
  EXPECT_EQ(manager.state(0), TrustState::kExpelled);
}

TEST(QuarantineManager, CleanQuarantineReinstatesOnProbation) {
  QuarantineFixture fx;
  QuarantineManager manager(fx.config, 2);
  fx.inject_fraud(0, 4);
  fx.observe(manager, 0);  // quarantined
  fx.observe(manager, 1);  // clean 1 of 2
  EXPECT_EQ(manager.state(0), TrustState::kQuarantined);
  fx.observe(manager, 2);  // clean 2 -> reinstated

  EXPECT_EQ(manager.state(0), TrustState::kSuspected);  // probation, not absolution
  EXPECT_EQ(fx.consortium.party_status(0), core::PartyStatus::kActive);
  EXPECT_EQ(manager.record(0).fraud_seen, 0u);  // evidence counter reset

  // A relapse must re-run the full escalation from the reset counter.
  fx.inject_fraud(0, 1);
  fx.observe(manager, 3);
  EXPECT_EQ(manager.state(0), TrustState::kSuspected);
  fx.inject_fraud(0, 3);
  fx.observe(manager, 4);
  EXPECT_EQ(manager.state(0), TrustState::kQuarantined);
}

TEST(QuarantineManager, FraudPenalisesReputation) {
  QuarantineFixture fx;
  QuarantineManager manager(fx.config, 2);
  const double before = fx.reputation.score(0);
  fx.inject_fraud(0, 2);
  fx.observe(manager, 0);
  EXPECT_LT(fx.reputation.score(0), before);
  EXPECT_DOUBLE_EQ(fx.reputation.score(1), before);
}

TEST(QuarantineManager, ValidatesConfigAndBounds) {
  QuarantineConfig bad;
  bad.stake_slash_fraction = 1.5;
  EXPECT_THROW(QuarantineManager(bad, 2), core::ValidationError);

  QuarantineManager manager(QuarantineConfig{}, 2);
  EXPECT_THROW((void)manager.state(99), std::out_of_range);
}

}  // namespace
}  // namespace mpleo::adversary
