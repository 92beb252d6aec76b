// RunContext facade contracts: pool sizing from Scenario.threads, owned vs
// borrowed pools and fault timelines, and default-construction semantics.
#include "sim/run_context.hpp"

#include <gtest/gtest.h>

namespace mpleo::sim {
namespace {

TEST(RunContext, DefaultIsSerialHealthyAndEmpty) {
  RunContext context;
  EXPECT_EQ(context.pool(), nullptr);
  EXPECT_EQ(context.thread_count(), 1u);
  EXPECT_EQ(context.faults(), nullptr);
  EXPECT_TRUE(context.metrics().empty());
  EXPECT_TRUE(context.trace().events().empty());
  EXPECT_EQ(context.scenario().threads, 1u);
}

TEST(RunContext, ScenarioThreadsSizesThePool) {
  Scenario serial;
  serial.threads = 1;
  EXPECT_EQ(RunContext(serial).pool(), nullptr);

  Scenario three;
  three.threads = 3;
  RunContext pooled(three);
  ASSERT_NE(pooled.pool(), nullptr);
  EXPECT_EQ(pooled.thread_count(), 3u);

  Scenario hardware;
  hardware.threads = 0;
  RunContext hw(hardware);
  ASSERT_NE(hw.pool(), nullptr);
  EXPECT_GE(hw.thread_count(), 1u);
}

TEST(RunContext, GridComesFromScenario) {
  Scenario s;
  s.duration_s = 3600.0;
  s.step_s = 60.0;
  const RunContext context(s);
  EXPECT_EQ(context.grid().count, 61u);
}

TEST(RunContext, UseThreadsReplacesThePool) {
  RunContext context;
  context.use_threads(2);
  ASSERT_NE(context.pool(), nullptr);
  EXPECT_EQ(context.thread_count(), 2u);
  context.use_threads(1);  // back to serial tears the pool down
  EXPECT_EQ(context.pool(), nullptr);
  EXPECT_EQ(context.thread_count(), 1u);
}

TEST(RunContext, UsePoolBorrows) {
  util::ThreadPool external(2);
  RunContext context;
  context.use_pool(&external);
  EXPECT_EQ(context.pool(), &external);
  EXPECT_EQ(context.thread_count(), 2u);
  context.use_pool(nullptr);
  EXPECT_EQ(context.pool(), nullptr);
}

TEST(RunContext, FaultsReadThroughTheContextUntilCleared) {
  const orbit::TimeGrid grid = Scenario{}.grid();
  fault::FaultTimeline timeline(grid, 4, 0);
  timeline.add_satellite_outage(1, 0.0, 3600.0);

  RunContext context;
  context.use_faults(&timeline);
  ASSERT_NE(context.faults(), nullptr);
  EXPECT_FALSE(context.faults()->satellite_available(1, 0));
  context.clear_faults();
  EXPECT_EQ(context.faults(), nullptr);
}

TEST(RunContext, FaultsBorrowedByPointer) {
  const orbit::TimeGrid grid = Scenario{}.grid();
  const fault::FaultTimeline timeline(grid, 4, 0);
  RunContext context;
  context.use_faults(&timeline);
  EXPECT_EQ(context.faults(), &timeline);
  context.use_faults(nullptr);
  EXPECT_EQ(context.faults(), nullptr);
}

TEST(RunContext, BorrowingReplacesTheEarlierTimeline) {
  const orbit::TimeGrid grid = Scenario{}.grid();
  RunContext context;
  const fault::FaultTimeline first(grid, 2, 0);
  const fault::FaultTimeline second(grid, 5, 0);
  context.use_faults(&first);
  context.use_faults(&second);
  EXPECT_EQ(context.faults(), &second);
  EXPECT_EQ(context.faults()->satellite_count(), 5u);
}

TEST(RunContext, MutatorsChain) {
  util::ThreadPool pool(2);
  RunContext context;
  context.use_pool(&pool).use_faults(nullptr).clear_faults();
  EXPECT_EQ(context.pool(), &pool);
}

TEST(RunContext, MetricsAndTraceAreLive) {
  RunContext context;
  context.metrics().counter("test.count").add(3);
  context.trace().record(1.0, "test", "hello");
  EXPECT_EQ(context.metrics().counter_value("test.count"), 3u);
  ASSERT_EQ(context.trace().events().size(), 1u);
  EXPECT_EQ(context.trace().events()[0].category, "test");
}

}  // namespace
}  // namespace mpleo::sim
