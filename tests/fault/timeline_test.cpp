#include "fault/timeline.hpp"

#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <stdexcept>

namespace mpleo::fault {
namespace {

orbit::TimeGrid make_grid(double duration_s = 600.0, double step_s = 60.0) {
  return orbit::TimeGrid::over_duration(
      orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z"), duration_s, step_s);
}

TEST(FaultTimeline, DefaultConstructedIsPermanentlyHealthy) {
  const FaultTimeline timeline;
  EXPECT_TRUE(timeline.empty());
  EXPECT_TRUE(timeline.satellite_available(0, 0));
  EXPECT_TRUE(timeline.station_available(7, 123));
  EXPECT_DOUBLE_EQ(timeline.satellite_capacity_factor(0, 0), 1.0);
  EXPECT_EQ(timeline.degraded_beam_count(0, 0, 8), 8);
  EXPECT_EQ(timeline.satellite_outage_steps(0), nullptr);
  EXPECT_EQ(timeline.station_outage_steps(0), nullptr);
}

TEST(FaultTimeline, OutageAffectsStepsWhoseInstantFallsInside) {
  // Steps sample t = k * 60 s; [120, 300) therefore hits steps 2, 3, 4 and
  // nothing else (step 5 samples t = 300, which is past the exclusive end).
  FaultTimeline timeline(make_grid(), 2, 0);
  timeline.add_satellite_outage(0, 120.0, 300.0);
  EXPECT_FALSE(timeline.empty());
  for (std::size_t k = 0; k < 10; ++k) {
    EXPECT_EQ(timeline.satellite_available(0, k), k < 2 || k > 4) << "step " << k;
    EXPECT_TRUE(timeline.satellite_available(1, k)) << "step " << k;
  }
  const cov::StepMask* out = timeline.satellite_outage_steps(0);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->count(), 3u);
  // Satellite 1 never faulted: no mask at all.
  EXPECT_EQ(timeline.satellite_outage_steps(1), nullptr);
}

TEST(FaultTimeline, OffGridBoundariesRoundInward) {
  // [90, 150): only step 2 (t=120) falls inside — 90 rounds up to step 2,
  // and t=60 (step 1) is before the start.
  FaultTimeline timeline(make_grid(), 1, 0);
  timeline.add_satellite_outage(0, 90.0, 150.0);
  EXPECT_TRUE(timeline.satellite_available(0, 1));
  EXPECT_FALSE(timeline.satellite_available(0, 2));
  EXPECT_TRUE(timeline.satellite_available(0, 3));
}

TEST(FaultTimeline, OutagePastWindowEndIsClamped) {
  FaultTimeline timeline(make_grid(600.0, 60.0), 1, 1);
  timeline.add_satellite_outage(0, 480.0, 1e9);
  timeline.add_station_outage(0, 0.0, 1e9);
  const cov::StepMask* sat_out = timeline.satellite_outage_steps(0);
  ASSERT_NE(sat_out, nullptr);
  EXPECT_EQ(sat_out->count(), timeline.grid().count - 8);
  const cov::StepMask* gs_out = timeline.station_outage_steps(0);
  ASSERT_NE(gs_out, nullptr);
  EXPECT_EQ(gs_out->count(), timeline.grid().count);  // out the whole window
  for (std::size_t k = 0; k < timeline.grid().count; ++k) {
    EXPECT_FALSE(timeline.station_available(0, k));
  }
}

TEST(FaultTimeline, OverlappingOutagesUnion) {
  FaultTimeline timeline(make_grid(), 1, 0);
  timeline.add_satellite_outage(0, 60.0, 180.0);
  timeline.add_satellite_outage(0, 120.0, 240.0);
  const cov::StepMask* out = timeline.satellite_outage_steps(0);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->count(), 3u);  // steps 1, 2, 3
  EXPECT_EQ(timeline.outages().size(), 2u);  // but both records are kept
}

TEST(FaultTimeline, OutOfRangeIndicesReportFullHealth) {
  FaultTimeline timeline(make_grid(), 2, 1);
  timeline.add_satellite_outage(0, 0.0, 600.0);
  EXPECT_TRUE(timeline.satellite_available(99, 0));
  EXPECT_TRUE(timeline.station_available(99, 0));
  EXPECT_DOUBLE_EQ(timeline.satellite_capacity_factor(99, 0), 1.0);
  EXPECT_EQ(timeline.satellite_outage_steps(99), nullptr);
  // Steps beyond the grid also report health rather than reading off the end.
  EXPECT_TRUE(timeline.satellite_available(0, 100000));
}

TEST(FaultTimeline, DegradationScalesBeamsAndCapacity) {
  FaultTimeline timeline(make_grid(), 1, 0);
  timeline.add_transponder_degradation(0, 0.0, 300.0, 0.5);
  EXPECT_FALSE(timeline.empty());
  // Degradation is not an outage: the satellite stays available.
  EXPECT_TRUE(timeline.satellite_available(0, 2));
  EXPECT_DOUBLE_EQ(timeline.satellite_capacity_factor(0, 2), 0.5);
  EXPECT_EQ(timeline.degraded_beam_count(0, 2, 8), 4);
  // After the degradation window: nominal again, exactly.
  EXPECT_DOUBLE_EQ(timeline.satellite_capacity_factor(0, 6), 1.0);
  EXPECT_EQ(timeline.degraded_beam_count(0, 6, 8), 8);
}

TEST(FaultTimeline, OverlappingDegradationsMultiplyAndOutageWinsOutright) {
  FaultTimeline timeline(make_grid(), 1, 0);
  timeline.add_transponder_degradation(0, 0.0, 600.0, 0.5);
  timeline.add_transponder_degradation(0, 0.0, 600.0, 0.5);
  EXPECT_DOUBLE_EQ(timeline.satellite_capacity_factor(0, 1), 0.25);
  EXPECT_EQ(timeline.degraded_beam_count(0, 1, 8), 2);
  timeline.add_satellite_outage(0, 60.0, 120.0);
  EXPECT_DOUBLE_EQ(timeline.satellite_capacity_factor(0, 1), 0.0);
  EXPECT_EQ(timeline.degraded_beam_count(0, 1, 8), 0);
}

TEST(FaultTimeline, InterleavedDegradationsOnlyScaleTheirOwnSatellite) {
  FaultTimeline timeline(make_grid(), 3, 0);
  timeline.add_transponder_degradation(1, 0.0, 600.0, 0.7);
  timeline.add_transponder_degradation(0, 0.0, 300.0, 0.9);
  timeline.add_transponder_degradation(1, 120.0, 600.0, 0.3);
  timeline.add_transponder_degradation(0, 0.0, 600.0, 0.6);
  // Each factor is the product of the satellite's own active windows in
  // registration order; satellite 2 has none. A copy answers the same.
  const FaultTimeline copy = timeline;
  for (const FaultTimeline* t : {static_cast<const FaultTimeline*>(&timeline), &copy}) {
    EXPECT_EQ(t->satellite_capacity_factor(0, 1), 1.0 * 0.9 * 0.6);
    EXPECT_EQ(t->satellite_capacity_factor(0, 6), 1.0 * 0.6);
    EXPECT_EQ(t->satellite_capacity_factor(1, 1), 1.0 * 0.7);
    EXPECT_EQ(t->satellite_capacity_factor(1, 3), 1.0 * 0.7 * 0.3);
    EXPECT_EQ(t->satellite_capacity_factor(2, 3), 1.0);
    EXPECT_EQ(t->degraded_beam_count(1, 3, 8), 1);
  }
}

TEST(FaultTimeline, OutageMaskIsComplementOfAvailability) {
  FaultTimeline timeline(make_grid(), 2, 0);
  timeline.add_satellite_outage(0, 120.0, 300.0);
  const cov::StepMask* out = timeline.satellite_outage_steps(0);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->step_count(), timeline.grid().count);
  for (std::size_t k = 0; k < out->step_count(); ++k) {
    EXPECT_EQ(out->test(k), !timeline.satellite_available(0, k)) << "step " << k;
  }
  // A never-faulted satellite has no mask and is available at every step.
  EXPECT_EQ(timeline.satellite_outage_steps(1), nullptr);
  for (std::size_t k = 0; k < timeline.grid().count; ++k) {
    EXPECT_TRUE(timeline.satellite_available(1, k)) << "step " << k;
  }
}

TEST(FaultTimeline, EventsAreSortedAndClamped) {
  FaultTimeline timeline(make_grid(), 2, 1);
  timeline.add_satellite_outage(1, 300.0, 1e9);  // repair beyond the window
  timeline.add_satellite_outage(0, 60.0, 120.0);
  timeline.add_station_outage(0, 240.0, 360.0);
  const std::vector<FaultEvent> events = timeline.events();
  // Every fail edge has a matching repair edge; sat 1's repair is clamped to
  // the window end so SimEngine consumers always see balanced pairs.
  ASSERT_EQ(events.size(), 6u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].time_s, events[i].time_s);
  }
  EXPECT_EQ(events.front().asset_index, 0u);
  EXPECT_TRUE(events.front().failed);
  EXPECT_EQ(events[1].failed, false);  // sat 0 repaired at 120
  EXPECT_EQ(events[2].kind, AssetKind::kGroundStation);
  EXPECT_FALSE(events.back().failed);
  EXPECT_EQ(events.back().asset_index, 1u);
  EXPECT_DOUBLE_EQ(events.back().time_s, timeline.grid().duration_seconds());
}

TEST(FaultTimeline, OutageSecondsByParty) {
  FaultTimeline timeline(make_grid(3600.0, 60.0), 3, 2);
  timeline.add_satellite_outage(0, 0.0, 600.0);     // party 0
  timeline.add_satellite_outage(1, 0.0, 300.0);     // party 1
  timeline.add_satellite_outage(2, 100.0, 200.0);   // unowned -> skipped
  timeline.add_station_outage(1, 0.0, 120.0);       // party 1
  const std::vector<std::uint32_t> sat_owner{0, 1, 0xFFFFFFFFu};
  const std::vector<std::uint32_t> gs_owner{0, 1};
  const std::vector<double> by_party =
      timeline.outage_seconds_by_party(sat_owner, gs_owner, 2);
  ASSERT_EQ(by_party.size(), 2u);
  EXPECT_DOUBLE_EQ(by_party[0], 600.0);
  EXPECT_DOUBLE_EQ(by_party[1], 420.0);
}

TEST(FaultTimeline, RejectsInvalidArguments) {
  FaultTimeline timeline(make_grid(), 1, 1);
  EXPECT_THROW(timeline.add_satellite_outage(1, 0.0, 60.0), std::invalid_argument);
  EXPECT_THROW(timeline.add_station_outage(1, 0.0, 60.0), std::invalid_argument);
  EXPECT_THROW(timeline.add_satellite_outage(0, -1.0, 60.0), std::invalid_argument);
  EXPECT_THROW(timeline.add_satellite_outage(0, 60.0, 60.0), std::invalid_argument);
  EXPECT_THROW(timeline.add_transponder_degradation(0, 0.0, 60.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(timeline.add_transponder_degradation(0, 0.0, 60.0, 1.5),
               std::invalid_argument);
}

TEST(FaultTimeline, NormalizeMergesOverlappingAndTouchingRecords) {
  FaultTimeline timeline(make_grid(600.0, 60.0), 2, 1);
  // Inserted deliberately out of order and overlapping: [180,300) then
  // [60,200), plus a touching [300,360) — one merged [60,360) must survive.
  timeline.add_satellite_outage(0, 180.0, 300.0);
  timeline.add_satellite_outage(0, 60.0, 200.0);
  timeline.add_satellite_outage(0, 300.0, 360.0);
  timeline.add_satellite_outage(1, 0.0, 60.0);  // a different asset: untouched
  timeline.add_station_outage(0, 60.0, 120.0);
  ASSERT_EQ(timeline.outages().size(), 5u);

  // Pin the mask BEFORE normalizing: normalize() canonicalizes the record
  // list only, the step masks (which already union) must not move.
  const std::size_t mask_bits = timeline.satellite_outage_steps(0)->count();
  timeline.normalize();
  EXPECT_EQ(timeline.satellite_outage_steps(0)->count(), mask_bits);

  ASSERT_EQ(timeline.outages().size(), 3u);
  const OutageRecord& merged = timeline.outages()[0];
  EXPECT_EQ(merged.kind, AssetKind::kSatellite);
  EXPECT_EQ(merged.asset_index, 0u);
  EXPECT_DOUBLE_EQ(merged.start_offset_s, 60.0);
  EXPECT_DOUBLE_EQ(merged.end_offset_s, 360.0);
  EXPECT_EQ(timeline.outages()[1].asset_index, 1u);
  EXPECT_EQ(timeline.outages()[2].kind, AssetKind::kGroundStation);

  // events() now emits one balanced fail/repair pair per merged record, and
  // party attribution stops double-counting the overlap.
  std::size_t sat0_edges = 0;
  for (const FaultEvent& e : timeline.events()) {
    if (e.kind == AssetKind::kSatellite && e.asset_index == 0) ++sat0_edges;
  }
  EXPECT_EQ(sat0_edges, 2u);
  const std::vector<std::uint32_t> sat_owner{0, 0};
  const std::vector<std::uint32_t> gs_owner{0};
  EXPECT_DOUBLE_EQ(timeline.outage_seconds_by_party(sat_owner, gs_owner, 1)[0],
                   300.0 + 60.0 + 60.0);
}

TEST(FaultTimeline, NormalizeClipsToWindowAndDropsOutsideRecords) {
  FaultTimeline timeline(make_grid(600.0, 60.0), 2, 0);
  timeline.add_satellite_outage(0, 480.0, 1e9);  // runs past the window end
  timeline.add_satellite_outage(1, 700.0, 900.0);  // entirely outside
  timeline.normalize();
  ASSERT_EQ(timeline.outages().size(), 1u);
  EXPECT_EQ(timeline.outages()[0].asset_index, 0u);
  EXPECT_DOUBLE_EQ(timeline.outages()[0].end_offset_s,
                   timeline.grid().duration_seconds());
}

TEST(FaultTimeline, NormalizeIsInsertionOrderIndependent) {
  const auto build = [](bool reversed) {
    FaultTimeline timeline(make_grid(600.0, 60.0), 2, 0);
    const std::vector<std::array<double, 2>> windows = {
        {60.0, 180.0}, {120.0, 240.0}, {300.0, 420.0}};
    if (reversed) {
      for (auto it = windows.rbegin(); it != windows.rend(); ++it) {
        timeline.add_satellite_outage(0, (*it)[0], (*it)[1]);
      }
    } else {
      for (const auto& w : windows) timeline.add_satellite_outage(0, w[0], w[1]);
    }
    timeline.normalize();
    return timeline;
  };
  const FaultTimeline a = build(false);
  const FaultTimeline b = build(true);
  ASSERT_EQ(a.outages().size(), b.outages().size());
  ASSERT_EQ(a.outages().size(), 2u);
  for (std::size_t i = 0; i < a.outages().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.outages()[i].start_offset_s, b.outages()[i].start_offset_s);
    EXPECT_DOUBLE_EQ(a.outages()[i].end_offset_s, b.outages()[i].end_offset_s);
  }
}

TEST(FaultTimeline, ValidateWindowReportsStructuredIssues) {
  EXPECT_TRUE(FaultTimeline::validate_window(0.0, 60.0).empty());
  const auto inverted = FaultTimeline::validate_window(60.0, 60.0);
  ASSERT_FALSE(inverted.empty());
  EXPECT_EQ(inverted[0].component, "fault.timeline");
  EXPECT_FALSE(FaultTimeline::validate_window(-1.0, 60.0).empty());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(FaultTimeline::validate_window(nan, 60.0).empty());
  EXPECT_FALSE(FaultTimeline::validate_window(0.0, nan).empty());
}

TEST(FaultTimelineStochastic, SameSeedReproducesExactly) {
  const orbit::TimeGrid grid = make_grid(7.0 * 86400.0, 600.0);
  const MtbfMttr sat_model{2.0 * 86400.0, 6.0 * 3600.0};
  const MtbfMttr gs_model{5.0 * 86400.0, 3600.0};
  const FaultTimeline a = FaultTimeline::stochastic(grid, 20, 4, sat_model, gs_model, 7);
  const FaultTimeline b = FaultTimeline::stochastic(grid, 20, 4, sat_model, gs_model, 7);
  ASSERT_EQ(a.outages().size(), b.outages().size());
  EXPECT_GT(a.outages().size(), 0u);  // 2-day MTBF over a week: faults happen
  for (std::size_t i = 0; i < a.outages().size(); ++i) {
    EXPECT_EQ(a.outages()[i].kind, b.outages()[i].kind);
    EXPECT_EQ(a.outages()[i].asset_index, b.outages()[i].asset_index);
    EXPECT_DOUBLE_EQ(a.outages()[i].start_offset_s, b.outages()[i].start_offset_s);
    EXPECT_DOUBLE_EQ(a.outages()[i].end_offset_s, b.outages()[i].end_offset_s);
  }
  const FaultTimeline c = FaultTimeline::stochastic(grid, 20, 4, sat_model, gs_model, 8);
  bool identical = a.outages().size() == c.outages().size();
  for (std::size_t i = 0; identical && i < a.outages().size(); ++i) {
    identical = a.outages()[i].start_offset_s == c.outages()[i].start_offset_s;
  }
  EXPECT_FALSE(identical);  // a different seed produces a different history
}

TEST(FaultTimelineStochastic, AssetHistoryStableUnderOtherCounts) {
  // Satellite 3's fault history must depend only on (seed, index 3) — adding
  // more satellites or stations must not perturb it.
  const orbit::TimeGrid grid = make_grid(7.0 * 86400.0, 600.0);
  const MtbfMttr model{86400.0, 3600.0};
  const FaultTimeline small = FaultTimeline::stochastic(grid, 4, 0, model, model, 42);
  const FaultTimeline large = FaultTimeline::stochastic(grid, 64, 16, model, model, 42);
  std::vector<OutageRecord> small_sat3, large_sat3;
  for (const OutageRecord& r : small.outages()) {
    if (r.kind == AssetKind::kSatellite && r.asset_index == 3) small_sat3.push_back(r);
  }
  for (const OutageRecord& r : large.outages()) {
    if (r.kind == AssetKind::kSatellite && r.asset_index == 3) large_sat3.push_back(r);
  }
  ASSERT_EQ(small_sat3.size(), large_sat3.size());
  ASSERT_GT(small_sat3.size(), 0u);
  for (std::size_t i = 0; i < small_sat3.size(); ++i) {
    EXPECT_DOUBLE_EQ(small_sat3[i].start_offset_s, large_sat3[i].start_offset_s);
    EXPECT_DOUBLE_EQ(small_sat3[i].end_offset_s, large_sat3[i].end_offset_s);
  }
}

TEST(FaultTimelineStochastic, ZeroMtbfDisablesClass) {
  const orbit::TimeGrid grid = make_grid(7.0 * 86400.0, 600.0);
  const FaultTimeline timeline = FaultTimeline::stochastic(
      grid, 16, 4, MtbfMttr{0.0, 3600.0}, MtbfMttr{0.0, 3600.0}, 42);
  EXPECT_TRUE(timeline.empty());
}

}  // namespace
}  // namespace mpleo::fault
