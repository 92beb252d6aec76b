#include "core/placement.hpp"

#include <gtest/gtest.h>

#include "constellation/designer.hpp"
#include "coverage/cities.hpp"

namespace mpleo::core {
namespace {

orbit::TimeGrid test_grid() {
  // One day at 120 s keeps these tests fast while preserving geometry.
  return orbit::TimeGrid::over_duration(
      orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z"), 86400.0, 120.0);
}

std::vector<constellation::Satellite> plane_of(int count, double phase_offset = 0.0) {
  return constellation::single_plane(546e3, 53.0, 0.0, count,
                                     orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z"),
                                     phase_offset);
}

class PlacementFixture : public ::testing::Test {
 protected:
  PlacementFixture()
      : engine_(test_grid(), 25.0),
        sites_(cov::sites_from_cities(cov::paper_cities())),
        optimizer_(engine_, sites_) {}

  cov::CoverageEngine engine_;
  std::vector<cov::GroundSite> sites_;
  PlacementOptimizer optimizer_;
};

TEST_F(PlacementFixture, MarginalGainIsPositiveForNewOrbit) {
  const auto base = plane_of(4);
  const std::vector<constellation::CandidateSlot> candidate{
      {"sun-synchronous", orbit::ClassicalElements::circular(546e3, 97.6, 90.0, 45.0)}};
  const auto evals = optimizer_.evaluate(base, candidate, base.front().epoch);
  ASSERT_EQ(evals.size(), 1u);
  EXPECT_GT(evals[0].gained_weighted_seconds, 0.0);
}

TEST_F(PlacementFixture, DuplicateSatelliteAddsNothing) {
  const auto base = plane_of(4);
  const std::vector<constellation::CandidateSlot> duplicate{
      {"duplicate", base.front().elements}};
  const auto evals = optimizer_.evaluate(base, duplicate, base.front().epoch);
  ASSERT_EQ(evals.size(), 1u);
  EXPECT_NEAR(evals[0].gained_weighted_seconds, 0.0, 1e-9);
}

TEST_F(PlacementFixture, MidpointPhaseBeatsAdjacentPhase) {
  // The Fig-4b mechanism: between two satellites 30 deg apart, the midpoint
  // (15 deg) gains more coverage than a slot right next to an existing one.
  const auto base = plane_of(12);
  const auto candidates =
      constellation::phase_offset_candidates(base.front().elements, {1.0, 15.0});
  const auto evals = optimizer_.evaluate(base, candidates, base.front().epoch);
  ASSERT_EQ(evals.size(), 2u);
  EXPECT_GT(evals[1].gained_weighted_seconds, evals[0].gained_weighted_seconds);
}

TEST_F(PlacementFixture, EvaluateReportsConsistentBase) {
  const auto base = plane_of(4);
  const auto candidates = constellation::factor_candidates(base.front().elements, 43.0,
                                                           25e3, 45.0);
  const auto evals = optimizer_.evaluate(base, candidates, base.front().epoch);
  ASSERT_EQ(evals.size(), 3u);
  for (const auto& e : evals) {
    EXPECT_DOUBLE_EQ(e.base_weighted_seconds, evals.front().base_weighted_seconds);
    EXPECT_GE(e.gained_weighted_seconds, 0.0);
  }
}

TEST_F(PlacementFixture, GreedyPlanImprovesMonotonically) {
  auto base = plane_of(3);
  constellation::SlotGrid grid;
  grid.raan_values_deg = {0.0, 90.0, 180.0, 270.0};
  grid.phase_values_deg = {0.0, 120.0, 240.0};
  grid.inclination_values_deg = {53.0, 97.6};
  grid.altitude_values_m = {550e3};
  const auto slots = constellation::enumerate_slots(grid);

  const auto picks = optimizer_.plan_incremental(base, slots, base.front().epoch, 3);
  ASSERT_EQ(picks.size(), 3u);
  // Base coverage grows with each pick.
  EXPECT_GT(picks[1].base_weighted_seconds, picks[0].base_weighted_seconds);
  EXPECT_GT(picks[2].base_weighted_seconds, picks[1].base_weighted_seconds);
  // Greedy property: each pick's gain is at least the next pick's gain
  // against a strictly larger base... not guaranteed in general, but each
  // gain must be positive here (plenty of uncovered sky).
  for (const auto& pick : picks) EXPECT_GT(pick.gained_weighted_seconds, 0.0);
}

TEST_F(PlacementFixture, GreedyNeverPicksSameSlotTwice) {
  auto base = plane_of(2);
  const auto slots =
      constellation::phase_offset_candidates(base.front().elements, {30.0, 90.0, 150.0});
  const auto picks = optimizer_.plan_incremental(base, slots, base.front().epoch, 3);
  ASSERT_EQ(picks.size(), 3u);
  EXPECT_NE(picks[0].slot.label, picks[1].slot.label);
  EXPECT_NE(picks[1].slot.label, picks[2].slot.label);
  EXPECT_NE(picks[0].slot.label, picks[2].slot.label);
}

TEST_F(PlacementFixture, PlanStopsWhenCandidatesExhausted) {
  auto base = plane_of(2);
  const auto slots =
      constellation::phase_offset_candidates(base.front().elements, {45.0});
  const auto picks = optimizer_.plan_incremental(base, slots, base.front().epoch, 5);
  EXPECT_EQ(picks.size(), 1u);
}

}  // namespace
}  // namespace mpleo::core
