#include "core/robustness.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "constellation/shell.hpp"
#include "coverage/cities.hpp"
#include "sim/run_context.hpp"

namespace mpleo::core {
namespace {

orbit::TimeGrid test_grid() {
  return orbit::TimeGrid::over_duration(
      orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z"), 86400.0, 120.0);
}

TEST(PartitionByRatio, EqualSplitMatchesPaper) {
  // 1000 satellites across 11 equal parties: 91 each (paper's Fig-6 anchor),
  // with the remainder folded into the largest.
  const auto sizes = partition_by_ratio(1000, 1, 10);
  ASSERT_EQ(sizes.size(), 11u);
  EXPECT_EQ(sizes.front(), 100u);  // 90 + remainder 10
  for (std::size_t i = 1; i < sizes.size(); ++i) EXPECT_EQ(sizes[i], 90u);
  EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}), 1000u);
}

TEST(PartitionByRatio, SkewedSplitMatchesPaper) {
  // Ratio 10:1:...:1 over 1000 -> largest 500, others 50 each.
  const auto sizes = partition_by_ratio(1000, 10, 10);
  ASSERT_EQ(sizes.size(), 11u);
  EXPECT_EQ(sizes.front(), 500u);
  for (std::size_t i = 1; i < sizes.size(); ++i) EXPECT_EQ(sizes[i], 50u);
}

TEST(PartitionByRatio, SumAlwaysEqualsTotal) {
  for (std::size_t ratio = 1; ratio <= 10; ++ratio) {
    const auto sizes = partition_by_ratio(997, ratio, 10);
    EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}), 997u);
    // Largest party really is largest.
    for (std::size_t i = 1; i < sizes.size(); ++i) EXPECT_GE(sizes.front(), sizes[i]);
  }
}

TEST(PartitionByRatio, RejectsDegenerateInputs) {
  EXPECT_THROW(partition_by_ratio(100, 0, 10), std::invalid_argument);
  EXPECT_THROW(partition_by_ratio(0, 1, 10), std::invalid_argument);
  EXPECT_THROW(partition_by_ratio(5, 10, 10), std::invalid_argument);  // unit would be 0
}

TEST(AssignToParties, SplitsInOrder) {
  const std::vector<std::size_t> indices{9, 8, 7, 6, 5};
  const std::vector<std::size_t> sizes{2, 3};
  const auto parties = assign_to_parties(indices, sizes);
  ASSERT_EQ(parties.size(), 2u);
  EXPECT_EQ(parties[0], (std::vector<std::size_t>{9, 8}));
  EXPECT_EQ(parties[1], (std::vector<std::size_t>{7, 6, 5}));
}

TEST(AssignToParties, RejectsSizeMismatch) {
  const std::vector<std::size_t> indices{1, 2, 3};
  const std::vector<std::size_t> sizes{2, 2};
  EXPECT_THROW(assign_to_parties(indices, sizes), std::invalid_argument);
}

class WithdrawalFixture : public ::testing::Test {
 protected:
  WithdrawalFixture()
      : engine_(test_grid(), 25.0),
        sites_(cov::sites_from_cities(cov::paper_cities())) {
    // Three orthogonal planes of 8 satellites each.
    for (double raan : {0.0, 60.0, 120.0}) {
      auto plane = constellation::single_plane(
          550e3, 53.0, raan, 8, orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z"),
          raan / 2.0);
      catalog_.insert(catalog_.end(), plane.begin(), plane.end());
    }
    cache_ = std::make_unique<cov::VisibilityCache>(engine_, catalog_, sites_);
    base_.resize(catalog_.size());
    std::iota(base_.begin(), base_.end(), std::size_t{0});
  }

  cov::CoverageEngine engine_;
  std::vector<cov::GroundSite> sites_;
  std::vector<constellation::Satellite> catalog_;
  std::unique_ptr<cov::VisibilityCache> cache_;
  std::vector<std::size_t> base_;
};

TEST_F(WithdrawalFixture, NoWithdrawalNoDrop) {
  const WithdrawalImpact impact = withdrawal_impact(*cache_, base_, {});
  EXPECT_DOUBLE_EQ(impact.drop_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(impact.relative_drop(), 0.0);
}

TEST_F(WithdrawalFixture, FullWithdrawalDropsToZero) {
  const WithdrawalImpact impact = withdrawal_impact(*cache_, base_, base_);
  EXPECT_GT(impact.before_fraction, 0.0);
  EXPECT_DOUBLE_EQ(impact.after_fraction, 0.0);
  EXPECT_DOUBLE_EQ(impact.relative_drop(), 1.0);
}

TEST_F(WithdrawalFixture, DropGrowsWithWithdrawalSize) {
  const std::vector<std::size_t> few(base_.begin(), base_.begin() + 4);
  const std::vector<std::size_t> many(base_.begin(), base_.begin() + 16);
  const double drop_few = withdrawal_impact(*cache_, base_, few).drop_fraction();
  const double drop_many = withdrawal_impact(*cache_, base_, many).drop_fraction();
  EXPECT_GE(drop_many, drop_few);
  EXPECT_GE(drop_few, 0.0);
}

TEST_F(WithdrawalFixture, CoverageNeverIncreasesOnWithdrawal) {
  util::Xoshiro256PlusPlus rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    const auto count = 1 + rng.uniform_index(base_.size() - 1);
    auto shuffled = rng.sample_without_replacement(base_.size(), count);
    const WithdrawalImpact impact = withdrawal_impact(*cache_, base_, shuffled);
    EXPECT_LE(impact.after_fraction, impact.before_fraction + 1e-12);
  }
}

TEST_F(WithdrawalFixture, FractionsAreBitIdenticalToWeightedCoverage) {
  // The fixture's cities plus a zero-weight site, which every weighted sum
  // must skip.
  std::vector<cov::GroundSite> sites = sites_;
  const orbit::TopocentricFrame frame(orbit::Geodetic::from_degrees(10.0, 20.0));
  sites.insert(sites.begin() + 1, {"unweighted", frame, 0.0});
  cov::VisibilityCache cache(engine_, catalog_, sites);
  ASSERT_EQ(cache.site_weight(1), 0.0);
  ASSERT_GT(cache.union_mask(base_, 1).count(), 0u);

  // The per-site sum withdrawal_impact computed before the one-pass union.
  const auto per_site_sum = [&](std::span<const std::size_t> indices) {
    double weighted = 0.0;
    for (std::size_t j = 0; j < cache.site_count(); ++j) {
      if (cache.site_weight(j) <= 0.0) continue;
      weighted += cache.site_weight(j) * cache.union_mask(indices, j).fraction();
    }
    return weighted;
  };
  const auto expect_identity = [&](const std::vector<std::size_t>& base,
                                   const std::vector<std::size_t>& withdrawn) {
    std::vector<std::size_t> survivors;
    for (const std::size_t idx : base) {
      if (std::find(withdrawn.begin(), withdrawn.end(), idx) == withdrawn.end()) {
        survivors.push_back(idx);
      }
    }
    const WithdrawalImpact impact = withdrawal_impact(cache, base, withdrawn);
    // EXPECT_EQ, not EXPECT_DOUBLE_EQ: the same doubles, bit for bit.
    EXPECT_EQ(impact.before_fraction, cache.weighted_coverage_fraction(base));
    EXPECT_EQ(impact.after_fraction, cache.weighted_coverage_fraction(survivors));
    EXPECT_EQ(impact.before_fraction, per_site_sum(base));
    EXPECT_EQ(impact.after_fraction, per_site_sum(survivors));
  };

  expect_identity(base_, {});
  expect_identity(base_, base_);
  util::Xoshiro256PlusPlus rng(13);
  for (int trial = 0; trial < 8; ++trial) {
    // A random base in random order, and a random part of it withdrawn.
    std::vector<std::size_t> base;
    for (const std::size_t p : rng.sample_without_replacement(
             base_.size(), 8 + rng.uniform_index(base_.size() - 7))) {
      base.push_back(base_[p]);
    }
    std::vector<std::size_t> withdrawn;
    for (const std::size_t p :
         rng.sample_without_replacement(base.size(), 1 + rng.uniform_index(base.size()))) {
      withdrawn.push_back(base[p]);
    }
    expect_identity(base, withdrawn);
  }
}

TEST_F(WithdrawalFixture, NonSubsetWithdrawalThrows) {
  const std::vector<std::size_t> not_in_base{base_.size() + 5};
  EXPECT_THROW((void)withdrawal_impact(*cache_, base_, not_in_base), std::invalid_argument);
}

TEST_F(WithdrawalFixture, ResilienceSweepRejectsDegenerateConfigs) {
  sim::RunContext context;
  ResilienceConfig config;
  config.failure_rates_per_sat_day.clear();
  EXPECT_THROW(resilience_sweep(*cache_, base_, config, context), std::invalid_argument);
  config.failure_rates_per_sat_day = {-1.0};
  EXPECT_THROW(resilience_sweep(*cache_, base_, config, context), std::invalid_argument);
  config = ResilienceConfig{};
  config.mttr_seconds = 0.0;
  EXPECT_THROW(resilience_sweep(*cache_, base_, config, context), std::invalid_argument);
  config = ResilienceConfig{};
  config.runs = 0;
  EXPECT_THROW(resilience_sweep(*cache_, base_, config, context), std::invalid_argument);
}

TEST_F(WithdrawalFixture, ResilienceSweepBaselineAndRateZero) {
  ResilienceConfig config;
  config.failure_rates_per_sat_day = {0.0, 8.0};
  config.mttr_seconds = 7200.0;
  config.runs = 2;
  sim::RunContext context;
  const std::vector<ResiliencePoint> points =
      resilience_sweep(*cache_, base_, config, context);
  ASSERT_EQ(points.size(), 2u);
  // Rate zero is exactly the healthy constellation.
  EXPECT_DOUBLE_EQ(points[0].mean_coverage_fraction,
                   cache_->weighted_coverage_fraction(base_));
  EXPECT_DOUBLE_EQ(points[0].mean_served_fraction, 1.0);
  EXPECT_DOUBLE_EQ(points[0].mttr_seconds, 7200.0);
  // Eight failures per satellite-day with two-hour repairs must cost coverage
  // on a 24-satellite fleet.
  EXPECT_LT(points[1].mean_coverage_fraction, points[0].mean_coverage_fraction);
}

}  // namespace
}  // namespace mpleo::core
