#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace mpleo::sim {
namespace {

TEST(EventQueue, EmptyByDefault) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_THROW((void)q.next_time(), std::logic_error);
  EXPECT_THROW(q.run_next(), std::logic_error);
}

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoForEqualTimes) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, RunNextReturnsEventTime) {
  EventQueue q;
  q.schedule(4.5, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 4.5);
  EXPECT_DOUBLE_EQ(q.run_next(), 4.5);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  std::vector<double> times;
  q.schedule(1.0, [&] {
    times.push_back(1.0);
    q.schedule(2.0, [&] { times.push_back(2.0); });
  });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
}

TEST(EventQueue, NullCallbackRejected) {
  EventQueue q;
  EXPECT_THROW(q.schedule(1.0, EventCallback{}), std::invalid_argument);
}

}  // namespace
}  // namespace mpleo::sim
