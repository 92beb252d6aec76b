#include "core/fairness.hpp"

#include <gtest/gtest.h>

namespace mpleo::core {
namespace {

net::ScheduleResult usage_of(std::initializer_list<net::PartyUsage> parties) {
  net::ScheduleResult usage;
  usage.per_party.assign(parties.begin(), parties.end());
  return usage;
}

net::PartyUsage party(double own, double spare_used, double spare_provided) {
  net::PartyUsage u;
  u.own_link_seconds = own;
  u.spare_used_seconds = spare_used;
  u.spare_provided_seconds = spare_provided;
  return u;
}

TEST(Jain, PerfectlyEqualIsOne) {
  const std::vector<double> equal{5.0, 5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(jain_fairness_index(equal), 1.0);
}

TEST(Jain, SingleHogApproachesOneOverN) {
  const std::vector<double> hog{10.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_fairness_index(hog), 0.25);
}

TEST(Jain, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(jain_fairness_index({}), 1.0);
  const std::vector<double> zeros{0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_fairness_index(zeros), 1.0);
}

TEST(Jain, BoundedAndOrdered) {
  const std::vector<double> mild{4.0, 5.0, 6.0};
  const std::vector<double> skewed{1.0, 5.0, 12.0};
  const double mild_index = jain_fairness_index(mild);
  const double skewed_index = jain_fairness_index(skewed);
  EXPECT_GT(mild_index, skewed_index);
  EXPECT_LE(mild_index, 1.0);
  EXPECT_GE(skewed_index, 1.0 / 3.0);
}

TEST(ServiceFairness, EqualServiceIsFair) {
  const auto usage = usage_of({party(500.0, 100.0, 0.0), party(100.0, 500.0, 0.0)});
  EXPECT_DOUBLE_EQ(service_fairness(usage), 1.0);
}

TEST(ServiceFairness, SkewedServiceScoresLower) {
  const auto fair = usage_of({party(300.0, 0.0, 0.0), party(300.0, 0.0, 0.0)});
  const auto skewed = usage_of({party(590.0, 0.0, 0.0), party(10.0, 0.0, 0.0)});
  EXPECT_GT(service_fairness(fair), service_fairness(skewed));
}

}  // namespace
}  // namespace mpleo::core
