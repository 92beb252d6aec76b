#include "coverage/step_mask.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace mpleo::cov {
namespace {

// a | b through the in-place union the programs use.
StepMask union_of(StepMask a, const StepMask& b) { return a |= b; }

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

TEST(StepMask, SetAndTest) {
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
  const StepMask u = union_of(a, b);
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
  const std::vector<Interval> runs = m.to_intervals(60.0);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_DOUBLE_EQ(runs[0].start, 0.0);
  EXPECT_DOUBLE_EQ(runs[0].end, 120.0);
  EXPECT_DOUBLE_EQ(runs[1].start, 300.0);
  EXPECT_DOUBLE_EQ(runs[2].end, 600.0);  // trailing run closes at end
}

TEST(StepMask, ToIntervalsEmptyAndFull) {
  StepMask empty(8);
  EXPECT_TRUE(empty.to_intervals(1.0).empty());
  StepMask full(8);
  for (std::size_t i = 0; i < 8; ++i) full.set(i);
  const std::vector<Interval> runs = full.to_intervals(2.0);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_DOUBLE_EQ(runs[0].length(), 16.0);
}

StepMask mask_of_runs(std::size_t steps,
                      std::initializer_list<std::pair<std::size_t, std::size_t>> runs) {
  StepMask m(steps);
  for (const auto& [begin, end] : runs) {
    for (std::size_t i = begin; i < end; ++i) m.set(i);
  }
  return m;
}

StepMask full_mask(std::size_t steps) { return mask_of_runs(steps, {{0, steps}}); }

TEST(StepMask, RunsMergeAcrossWordBoundaries) {
  // Set steps on either side of a 64-step word edge form one run, and a run
  // reaching into the partial last word closes at step_count.
  const StepMask m = mask_of_runs(130, {{60, 64}, {64, 70}, {127, 128}, {128, 130}});
  const std::vector<Interval> runs = m.to_intervals(1.0);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0], (Interval{60.0, 70.0}));
  EXPECT_EQ(runs[1], (Interval{127.0, 130.0}));
}

TEST(StepMask, IntersectionRunsAreTheOverlaps) {
  const StepMask a = mask_of_runs(10, {{0, 2}, {4, 8}});
  const StepMask b = mask_of_runs(10, {{1, 5}, {7, 9}});
  const std::vector<Interval> runs = (a & b).to_intervals(1.0);
  EXPECT_EQ(runs, (std::vector<Interval>{{1.0, 2.0}, {4.0, 5.0}, {7.0, 8.0}}));
  EXPECT_TRUE((mask_of_runs(10, {{0, 1}}) & mask_of_runs(10, {{2, 3}})).to_intervals(1.0).empty());
}

TEST(StepMask, SubtractSplitsARun) {
  StepMask d = full_mask(10);
  d.subtract(mask_of_runs(10, {{2, 3}, {5, 7}}));
  EXPECT_EQ(d.to_intervals(1.0),
            (std::vector<Interval>{{0.0, 2.0}, {3.0, 5.0}, {7.0, 10.0}}));
  EXPECT_EQ(d.count(), 7u);
}

TEST(StepMask, ComplementRunsAreTheGaps) {
  // The gaps of a timeline are the runs of the full mask minus it.
  StepMask gaps = full_mask(8);
  gaps.subtract(mask_of_runs(8, {{2, 3}, {5, 6}}));
  EXPECT_EQ(gaps.to_intervals(2.0),
            (std::vector<Interval>{{0.0, 4.0}, {6.0, 10.0}, {12.0, 16.0}}));

  StepMask window = full_mask(8);
  window.subtract(StepMask(8));
  EXPECT_EQ(window.to_intervals(2.0), (std::vector<Interval>{{0.0, 16.0}}));
  StepMask none = full_mask(8);
  none.subtract(full_mask(8));
  EXPECT_TRUE(none.to_intervals(2.0).empty());
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
  double total = 0.0;
  double previous_end = -1.0;
  for (const Interval& run : m.to_intervals(1.0)) {
    EXPECT_GT(run.start, previous_end);  // ascending, disjoint, never adjacent
    EXPECT_GT(run.length(), 0.0);
    total += run.length();
    previous_end = run.end;
  }
  EXPECT_NEAR(total, static_cast<double>(m.count()), 1e-9);
}

TEST_P(StepMaskProperty, DeMorganOnMasks) {
  util::Xoshiro256PlusPlus rng(GetParam() ^ 0xFEED);
  const StepMask a = random_mask(rng, 300);
  const StepMask b = random_mask(rng, 300);
  // |a| + |b| == |a|b| + |a&b|.
  EXPECT_EQ(a.count() + b.count(), union_of(a, b).count() + (a & b).count());
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
    EXPECT_EQ(sparse, union_of(acc, visible)) << "density " << density;

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

// Algebraic identities on the runs of masks shaped like visibility
// timelines: up to 11 passes of random length on a 150-step grid (the last
// word partial), overlapping passes merging into one run.
class IntervalAlgebraProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static constexpr std::size_t kSteps = 150;
  static constexpr double kStepSeconds = 60.0;
  static constexpr double kWindow = static_cast<double>(kSteps) * kStepSeconds;

  static StepMask random_timeline(util::Xoshiro256PlusPlus& rng) {
    StepMask m(kSteps);
    const std::size_t passes = rng.uniform_index(12);
    for (std::size_t p = 0; p < passes; ++p) {
      const std::size_t begin = rng.uniform_index(kSteps);
      const std::size_t end = std::min(kSteps, begin + rng.uniform_index(20));
      for (std::size_t i = begin; i < end; ++i) m.set(i);
    }
    return m;
  }

  static double run_length(const StepMask& m) {
    double total = 0.0;
    for (const Interval& run : m.to_intervals(kStepSeconds)) total += run.length();
    return total;
  }
};

TEST_P(IntervalAlgebraProperty, UnionLengthBounds) {
  util::Xoshiro256PlusPlus rng(GetParam());
  const StepMask a = random_timeline(rng);
  const StepMask b = random_timeline(rng);
  const double u = run_length(union_of(a, b));
  EXPECT_GE(u, std::max(run_length(a), run_length(b)));
  EXPECT_LE(u, run_length(a) + run_length(b));
}

TEST_P(IntervalAlgebraProperty, InclusionExclusion) {
  util::Xoshiro256PlusPlus rng(GetParam() ^ 0xABCDEF);
  const StepMask a = random_timeline(rng);
  const StepMask b = random_timeline(rng);
  // Run lengths are whole multiples of the step, so the sums are exact.
  EXPECT_EQ(run_length(union_of(a, b)) + run_length(a & b), run_length(a) + run_length(b));
}

TEST_P(IntervalAlgebraProperty, ComplementPartitionsWindow) {
  util::Xoshiro256PlusPlus rng(GetParam() ^ 0x123456);
  const StepMask a = random_timeline(rng);
  StepMask gaps = full_mask(kSteps);
  gaps.subtract(a);
  EXPECT_EQ(run_length(a) + run_length(gaps), kWindow);
  EXPECT_TRUE((a & gaps).to_intervals(kStepSeconds).empty());

  // Passes and gaps alternate and tile [0, window) edge to edge.
  std::vector<Interval> tiles = a.to_intervals(kStepSeconds);
  const std::vector<Interval> gap_runs = gaps.to_intervals(kStepSeconds);
  tiles.insert(tiles.end(), gap_runs.begin(), gap_runs.end());
  std::sort(tiles.begin(), tiles.end(),
            [](const Interval& x, const Interval& y) { return x.start < y.start; });
  double cursor = 0.0;
  for (std::size_t k = 0; k < tiles.size(); ++k) {
    EXPECT_EQ(tiles[k].start, cursor) << "tile " << k;
    if (k > 0) {
      EXPECT_NE(a.test(static_cast<std::size_t>(tiles[k].start / kStepSeconds)),
                a.test(static_cast<std::size_t>(tiles[k - 1].start / kStepSeconds)))
          << "tiles " << k - 1 << " and " << k << " are both passes or both gaps";
    }
    cursor = tiles[k].end;
  }
  EXPECT_EQ(cursor, kWindow);
}

TEST_P(IntervalAlgebraProperty, UnionIsIdempotentAndCommutative) {
  util::Xoshiro256PlusPlus rng(GetParam() ^ 0x777);
  const StepMask a = random_timeline(rng);
  const StepMask b = random_timeline(rng);
  EXPECT_EQ(union_of(a, a).to_intervals(kStepSeconds), a.to_intervals(kStepSeconds));
  EXPECT_EQ(union_of(a, b).to_intervals(kStepSeconds),
            union_of(b, a).to_intervals(kStepSeconds));
  EXPECT_EQ((a & b).to_intervals(kStepSeconds), (b & a).to_intervals(kStepSeconds));
}

TEST_P(IntervalAlgebraProperty, RunsRebuildTheMask) {
  // to_intervals loses nothing: setting every step of every run gives back
  // the mask, and the runs are maximal (no two touch).
  util::Xoshiro256PlusPlus rng(GetParam() ^ 0x5EED);
  const StepMask a = random_timeline(rng);
  StepMask rebuilt(kSteps);
  double previous_end = -1.0;
  for (const Interval& run : a.to_intervals(kStepSeconds)) {
    EXPECT_GT(run.start, previous_end);
    previous_end = run.end;
    const auto begin = static_cast<std::size_t>(run.start / kStepSeconds);
    const auto end = static_cast<std::size_t>(run.end / kStepSeconds);
    for (std::size_t i = begin; i < end; ++i) rebuilt.set(i);
  }
  EXPECT_EQ(rebuilt, a);
}

TEST_P(IntervalAlgebraProperty, LongestZeroRunIsTheLongestGap) {
  // The outage CoverageEngine::stats reports (longest_zero_run) is the
  // longest gap between passes, counting the window's two ends.
  util::Xoshiro256PlusPlus rng(GetParam() ^ 0x6A9);
  const StepMask a = random_timeline(rng);
  double longest = 0.0;
  double cursor = 0.0;
  for (const Interval& run : a.to_intervals(kStepSeconds)) {
    longest = std::max(longest, run.start - cursor);
    cursor = run.end;
  }
  longest = std::max(longest, kWindow - cursor);
  EXPECT_EQ(static_cast<double>(a.longest_zero_run()) * kStepSeconds, longest);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalAlgebraProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u));

}  // namespace
}  // namespace mpleo::cov
