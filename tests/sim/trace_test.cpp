#include "sim/trace.hpp"

#include <gtest/gtest.h>

namespace mpleo::sim {
namespace {

TEST(Trace, RecordsEvents) {
  TraceRecorder trace;
  trace.record(1.0, "poc", "receipt verified");
  trace.record(2.0, "market", "trade cleared");
  ASSERT_EQ(trace.events().size(), 2u);
  EXPECT_EQ(trace.events()[0].category, "poc");
  EXPECT_EQ(trace.events()[1].time_s, 2.0);
}

TEST(Trace, ToStringFormatsLines) {
  TraceRecorder trace;
  trace.record(1.5, "withdrawal", "party 3 exits");
  const std::string out = trace.to_string();
  EXPECT_NE(out.find("t=1.5s"), std::string::npos);
  EXPECT_NE(out.find("[withdrawal]"), std::string::npos);
  EXPECT_NE(out.find("party 3 exits"), std::string::npos);
}

TEST(Trace, ClearResets) {
  TraceRecorder trace;
  trace.record(1.0, "a", "x");
  trace.clear();
  EXPECT_TRUE(trace.events().empty());
}

}  // namespace
}  // namespace mpleo::sim
