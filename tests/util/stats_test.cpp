#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace mpleo::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_EQ(rs.mean(), 0.0);
  EXPECT_EQ(rs.variance(), 0.0);
  EXPECT_EQ(rs.stddev(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats rs;
  rs.add(5.0);
  EXPECT_EQ(rs.count(), 1u);
  EXPECT_EQ(rs.mean(), 5.0);
  EXPECT_EQ(rs.variance(), 0.0);
  EXPECT_EQ(rs.min(), 5.0);
  EXPECT_EQ(rs.max(), 5.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats rs;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.add(v);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  // Sample variance with n-1: sum sq dev = 32, / 7.
  EXPECT_NEAR(rs.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(rs.min(), 2.0);
  EXPECT_EQ(rs.max(), 9.0);
  EXPECT_NEAR(rs.sum(), 40.0, 1e-12);
}

TEST(RunningStats, OnlineMomentsMatchTwoPass) {
  Xoshiro256PlusPlus rng(5);
  std::vector<double> values;
  RunningStats rs;
  for (int i = 0; i < 1000; ++i) {
    values.push_back(rng.normal(3.0, 2.0));
    rs.add(values.back());
  }
  const double mean = mean_of(values);
  double sum_sq = 0.0;
  for (double v : values) sum_sq += (v - mean) * (v - mean);
  EXPECT_EQ(rs.count(), values.size());
  EXPECT_NEAR(rs.mean(), mean, 1e-10);
  EXPECT_NEAR(rs.variance(), sum_sq / 999.0, 1e-8);
  EXPECT_EQ(rs.min(), *std::min_element(values.begin(), values.end()));
  EXPECT_EQ(rs.max(), *std::max_element(values.begin(), values.end()));
}

TEST(Percentile, Basics) {
  std::vector<double> values{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(values, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(values, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(values, 25.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile(values, 62.5), 3.5);  // interpolation
}

TEST(Percentile, SingleElement) {
  EXPECT_DOUBLE_EQ(percentile({7.0}, 13.0), 7.0);
}

TEST(Percentile, Errors) {
  EXPECT_THROW((void)percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW((void)percentile({1.0}, -1.0), std::invalid_argument);
  EXPECT_THROW((void)percentile({1.0}, 101.0), std::invalid_argument);
  // NaN fails both bounds instead of reaching the rank's integer cast.
  EXPECT_THROW((void)percentile({1.0, 2.0}, std::nan("")), std::invalid_argument);
}

TEST(MeanOf, MatchesRunningStats) {
  const std::vector<double> values{1.5, 2.5, 3.5, 10.0};
  RunningStats rs;
  for (double v : values) rs.add(v);
  EXPECT_NEAR(mean_of(values), rs.mean(), 1e-12);
  EXPECT_EQ(mean_of({}), 0.0);
}

}  // namespace
}  // namespace mpleo::util
