#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

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

TEST(RunningStats, MergeMatchesSequential) {
  Xoshiro256PlusPlus rng(5);
  RunningStats whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal(3.0, 2.0);
    whole.add(v);
    (i < 400 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-8);
  EXPECT_EQ(left.min(), whole.min());
  EXPECT_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptyIsNoop) {
  RunningStats a;
  a.add(1.0);
  a.add(3.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
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
}

TEST(MeanStddevOf, MatchRunningStats) {
  const std::vector<double> values{1.5, 2.5, 3.5, 10.0};
  RunningStats rs;
  for (double v : values) rs.add(v);
  EXPECT_NEAR(mean_of(values), rs.mean(), 1e-12);
  EXPECT_NEAR(stddev_of(values), rs.stddev(), 1e-12);
  EXPECT_EQ(mean_of({}), 0.0);
}

}  // namespace
}  // namespace mpleo::util
