#include "core/sla.hpp"

#include <gtest/gtest.h>

namespace mpleo::core {
namespace {

cov::CoverageStats stats_of(double covered_fraction, double max_gap_s) {
  cov::CoverageStats stats;
  stats.covered_fraction = covered_fraction;
  stats.max_gap_seconds = max_gap_s;
  return stats;
}

TEST(Sla, CompliantServicePassesAllClauses) {
  SlaTerms terms;
  terms.min_coverage_fraction = 0.95;
  terms.max_gap_seconds = 3600.0;
  const SlaReport report = evaluate_sla(terms, stats_of(0.97, 1200.0));
  EXPECT_TRUE(report.compliant);
  EXPECT_TRUE(report.violations.empty());
  EXPECT_EQ(report.total_penalty, 0.0);
}

TEST(Sla, CoverageShortfallViolates) {
  SlaTerms terms;
  terms.min_coverage_fraction = 0.95;
  terms.penalty_per_violation = 25.0;
  const SlaReport report = evaluate_sla(terms, stats_of(0.90, 0.0));
  EXPECT_FALSE(report.compliant);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].clause, SlaClause::kCoverageFraction);
  EXPECT_DOUBLE_EQ(report.violations[0].required, 0.95);
  EXPECT_DOUBLE_EQ(report.violations[0].delivered, 0.90);
  EXPECT_DOUBLE_EQ(report.total_penalty, 25.0);
}

TEST(Sla, GapAndCoverageStackPenalties) {
  SlaTerms terms;
  terms.min_coverage_fraction = 0.99;
  terms.max_gap_seconds = 600.0;
  terms.penalty_per_violation = 10.0;
  const SlaReport report = evaluate_sla(terms, stats_of(0.5, 7200.0));
  EXPECT_EQ(report.violations.size(), 2u);
  EXPECT_DOUBLE_EQ(report.total_penalty, 20.0);
}

TEST(Sla, PenaltySettlesOnLedger) {
  Ledger ledger;
  ledger.mint(100.0);
  const AccountId provider = ledger.open_account("provider");
  const AccountId customer = ledger.open_account("customer");
  ASSERT_TRUE(ledger.reward(provider, 100.0));

  SlaTerms terms;
  terms.penalty_per_violation = 30.0;
  const SlaReport report = evaluate_sla(terms, stats_of(0.0, 1e9));
  ASSERT_FALSE(report.compliant);
  EXPECT_TRUE(settle_sla_penalty(report, ledger, provider, customer));
  EXPECT_DOUBLE_EQ(ledger.balance(customer), report.total_penalty);
  EXPECT_NEAR(ledger.sum_of_balances(), ledger.total_minted(), 1e-9);
}

TEST(Sla, InsolventProviderReportsFailure) {
  Ledger ledger;
  const AccountId provider = ledger.open_account("broke");
  const AccountId customer = ledger.open_account("customer");
  SlaTerms terms;
  const SlaReport report = evaluate_sla(terms, stats_of(0.0, 1e9));
  EXPECT_FALSE(settle_sla_penalty(report, ledger, provider, customer));
  EXPECT_DOUBLE_EQ(ledger.balance(customer), 0.0);
}

TEST(Sla, CompliantReportSettlesAsNoop) {
  Ledger ledger;
  const AccountId a = ledger.open_account("a");
  const AccountId b = ledger.open_account("b");
  SlaReport report;  // compliant, zero penalty
  EXPECT_TRUE(settle_sla_penalty(report, ledger, a, b));
}

TEST(Sla, ClauseNames) {
  EXPECT_STREQ(to_string(SlaClause::kCoverageFraction), "coverage-fraction");
  EXPECT_STREQ(to_string(SlaClause::kMaxGap), "max-gap");
}

}  // namespace
}  // namespace mpleo::core
