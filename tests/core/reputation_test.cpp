#include "core/reputation.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace mpleo::core {
namespace {

TEST(Reputation, StartsAtInitial) {
  const ReputationTracker tracker(3);
  for (PartyId p = 0; p < 3; ++p) EXPECT_DOUBLE_EQ(tracker.score(p), 0.5);
}

TEST(Reputation, FraudEvidenceMovesScore) {
  ReputationTracker tracker(2);
  tracker.record_fraud(0, 1);
  EXPECT_DOUBLE_EQ(tracker.score(0), 0.3);
  // Zero count is a no-op; the other party is untouched either way.
  tracker.record_fraud(1, 0);
  EXPECT_DOUBLE_EQ(tracker.score(1), 0.5);
  // Each confirmed event costs the configured penalty.
  ReputationTracker::Config config;
  config.fraud_penalty = 0.05;
  ReputationTracker light(1, config);
  light.record_fraud(0, 3);
  EXPECT_DOUBLE_EQ(light.score(0), 0.35);
}

TEST(Reputation, ScoresClampToBounds) {
  ReputationTracker tracker(1);
  tracker.record_fraud(0, 100);
  EXPECT_DOUBLE_EQ(tracker.score(0), 0.0);
  // A custom floor holds too.
  ReputationTracker::Config config;
  config.floor = 0.2;
  ReputationTracker floored(1, config);
  floored.record_fraud(0, 100);
  EXPECT_DOUBLE_EQ(floored.score(0), 0.2);
}

TEST(Reputation, PriorityWeightNeverStarves) {
  ReputationTracker tracker(1);
  EXPECT_DOUBLE_EQ(tracker.priority_weight(0), 0.55);
  tracker.record_fraud(0, 100);
  // Even a zero-reputation party keeps 10% weight: degradation stays
  // proportional, not a blackout (the paper's §1 design goal).
  EXPECT_DOUBLE_EQ(tracker.priority_weight(0), 0.1);
  ReputationTracker::Config config;
  config.initial = 1.0;
  EXPECT_DOUBLE_EQ(ReputationTracker(1, config).priority_weight(0), 1.0);
}

TEST(Reputation, OutageSecondsErodeScore) {
  ReputationTracker tracker(2);
  // 10 asset-hours down at the default 0.005/hour: score drops by 0.05.
  tracker.record_outage(0, 10.0 * 3600.0);
  EXPECT_DOUBLE_EQ(tracker.score(0), 0.45);
  // Zero downtime is a no-op; the other party is untouched either way.
  tracker.record_outage(1, 0.0);
  EXPECT_DOUBLE_EQ(tracker.score(1), 0.5);
  // Massive downtime clamps at the floor instead of going negative.
  tracker.record_outage(0, 1e9);
  EXPECT_DOUBLE_EQ(tracker.score(0), 0.0);
  EXPECT_DOUBLE_EQ(tracker.priority_weight(0), 0.1);
}

TEST(Reputation, OutageRejectsNegativeSeconds) {
  ReputationTracker tracker(1);
  EXPECT_THROW(tracker.record_outage(0, -1.0), std::invalid_argument);
}

TEST(Reputation, UnknownPartyThrows) {
  ReputationTracker tracker(2);
  EXPECT_THROW(tracker.record_fraud(5, 1), std::out_of_range);
  EXPECT_THROW((void)tracker.score(5), std::out_of_range);
  EXPECT_THROW(tracker.record_outage(5, 60.0), std::out_of_range);
}

TEST(Reputation, InvalidConfigRejected) {
  EXPECT_THROW(ReputationTracker(0), std::invalid_argument);
  ReputationTracker::Config bad;
  bad.initial = 2.0;
  EXPECT_THROW(ReputationTracker(1, bad), std::invalid_argument);
}

}  // namespace
}  // namespace mpleo::core
