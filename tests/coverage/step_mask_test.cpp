#include "coverage/step_mask.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace mpleo::cov {
namespace {

TEST(StepMask, EmptyMask) {
  StepMask m(100);
  EXPECT_EQ(m.step_count(), 100u);
  EXPECT_EQ(m.count(), 0u);
  EXPECT_EQ(m.fraction(), 0.0);
  EXPECT_EQ(m.longest_zero_run(), 100u);
}

TEST(StepMask, ZeroStepMask) {
  StepMask m;
  EXPECT_EQ(m.step_count(), 0u);
  EXPECT_EQ(m.fraction(), 0.0);
}

TEST(StepMask, SetTestReset) {
  StepMask m(130);  // spans three words
  m.set(0);
  m.set(63);
  m.set(64);
  m.set(129);
  EXPECT_TRUE(m.test(0));
  EXPECT_TRUE(m.test(63));
  EXPECT_TRUE(m.test(64));
  EXPECT_TRUE(m.test(129));
  EXPECT_FALSE(m.test(1));
  EXPECT_EQ(m.count(), 4u);
  m.reset(63);
  EXPECT_FALSE(m.test(63));
  EXPECT_EQ(m.count(), 3u);
}

TEST(StepMask, FractionAndCount) {
  StepMask m(10);
  for (std::size_t i = 0; i < 10; i += 2) m.set(i);
  EXPECT_EQ(m.count(), 5u);
  EXPECT_DOUBLE_EQ(m.fraction(), 0.5);
}

TEST(StepMask, OrAndSubtract) {
  StepMask a(70), b(70);
  a.set(1);
  a.set(65);
  b.set(2);
  b.set(65);
  const StepMask u = a | b;
  EXPECT_EQ(u.count(), 3u);
  const StepMask i = a & b;
  EXPECT_EQ(i.count(), 1u);
  EXPECT_TRUE(i.test(65));
  StepMask d = a;
  d.subtract(b);
  EXPECT_EQ(d.count(), 1u);
  EXPECT_TRUE(d.test(1));
  EXPECT_FALSE(d.test(65));
}

TEST(StepMask, LongestZeroRun) {
  StepMask m(20);
  m.set(3);
  m.set(10);
  // Runs: [0,2]=3, [4,9]=6, [11,19]=9.
  EXPECT_EQ(m.longest_zero_run(), 9u);
  StepMask full(5);
  for (std::size_t i = 0; i < 5; ++i) full.set(i);
  EXPECT_EQ(full.longest_zero_run(), 0u);
}

TEST(StepMask, ToIntervals) {
  StepMask m(10);
  m.set(0);
  m.set(1);
  m.set(5);
  m.set(9);
  const IntervalSet set = m.to_intervals(60.0);
  ASSERT_EQ(set.size(), 3u);
  EXPECT_DOUBLE_EQ(set.intervals()[0].start, 0.0);
  EXPECT_DOUBLE_EQ(set.intervals()[0].end, 120.0);
  EXPECT_DOUBLE_EQ(set.intervals()[1].start, 300.0);
  EXPECT_DOUBLE_EQ(set.intervals()[2].end, 600.0);  // trailing run closes at end
}

TEST(StepMask, ToIntervalsEmptyAndFull) {
  StepMask empty(8);
  EXPECT_TRUE(empty.to_intervals(1.0).empty());
  StepMask full(8);
  for (std::size_t i = 0; i < 8; ++i) full.set(i);
  const IntervalSet set = full.to_intervals(2.0);
  ASSERT_EQ(set.size(), 1u);
  EXPECT_DOUBLE_EQ(set.total_length(), 16.0);
}

TEST(StepMask, EqualityOperator) {
  StepMask a(12), b(12);
  a.set(7);
  EXPECT_NE(a, b);
  b.set(7);
  EXPECT_EQ(a, b);
}

class StepMaskProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static StepMask random_mask(util::Xoshiro256PlusPlus& rng, std::size_t steps,
                              double density = 0.3) {
    StepMask m(steps);
    for (std::size_t i = 0; i < steps; ++i) {
      if (rng.uniform() < density) m.set(i);
    }
    return m;
  }
};

TEST_P(StepMaskProperty, CountMatchesIntervalLength) {
  util::Xoshiro256PlusPlus rng(GetParam());
  const StepMask m = random_mask(rng, 500);
  const IntervalSet set = m.to_intervals(1.0);
  EXPECT_NEAR(set.total_length(), static_cast<double>(m.count()), 1e-9);
}

TEST_P(StepMaskProperty, DeMorganOnMasks) {
  util::Xoshiro256PlusPlus rng(GetParam() ^ 0xFEED);
  const StepMask a = random_mask(rng, 300);
  const StepMask b = random_mask(rng, 300);
  // |a| + |b| == |a|b| + |a&b|.
  EXPECT_EQ(a.count() + b.count(), (a | b).count() + (a & b).count());
  // subtract == a & ~b: |a - b| == |a| - |a & b|.
  StepMask d = a;
  d.subtract(b);
  EXPECT_EQ(d.count(), a.count() - (a & b).count());
}

TEST_P(StepMaskProperty, OrNeverShrinksCoverage) {
  // The physical monotonicity the paper relies on: adding satellites never
  // reduces coverage.
  util::Xoshiro256PlusPlus rng(GetParam() ^ 0xBEE);
  StepMask acc(400);
  for (int sat = 0; sat < 8; ++sat) {
    const double before = acc.fraction();
    acc |= random_mask(rng, 400);
    EXPECT_GE(acc.fraction(), before);
  }
}

TEST_P(StepMaskProperty, SparseOrMatchesDenseOr) {
  util::Xoshiro256PlusPlus rng(GetParam() ^ 0x5A5E);
  // 300 steps: the last word is partial. Densities from mostly-empty words
  // to a mask set at every step.
  for (const double density : {0.002, 0.02, 0.3, 1.0}) {
    const StepMask acc = random_mask(rng, 300);
    const StepMask visible = random_mask(rng, 300, density);
    const StepMask outage = random_mask(rng, 300, 0.5);
    std::vector<std::uint32_t> index;
    std::vector<std::uint64_t> bits;
    for (std::size_t w = 0; w < visible.words().size(); ++w) {
      if (visible.words()[w] == 0) continue;
      index.push_back(static_cast<std::uint32_t>(w));
      bits.push_back(visible.words()[w]);
    }

    StepMask sparse = acc;
    sparse.or_words(index, bits);
    EXPECT_EQ(sparse, acc | visible) << "density " << density;

    StepMask copied = visible;
    copied.subtract(outage);
    copied |= acc;
    StepMask sparse_and_not = acc;
    sparse_and_not.or_words_and_not(index, bits, outage);
    EXPECT_EQ(sparse_and_not, copied) << "density " << density;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StepMaskProperty,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

}  // namespace
}  // namespace mpleo::cov
