#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace mpleo::sim {
namespace {

TEST(SimEngine, ClockStartsAtZero) {
  SimEngine engine;
  EXPECT_EQ(engine.now(), 0.0);
}

TEST(SimEngine, RunUntilAdvancesClock) {
  SimEngine engine;
  std::vector<double> fired;
  engine.at(5.0, [&] { fired.push_back(5.0); });
  engine.at(15.0, [&] { fired.push_back(15.0); });
  engine.run_until(10.0);
  EXPECT_EQ(fired, (std::vector<double>{5.0}));
  EXPECT_DOUBLE_EQ(engine.now(), 10.0);
  EXPECT_EQ(engine.pending(), 1u);
  engine.run_until(20.0);
  EXPECT_EQ(fired.size(), 2u);
}

TEST(SimEngine, EventScheduledFromAnEventSeesItsOwnTime) {
  SimEngine engine;
  double fired_at = -1.0;
  engine.at(10.0, [&] { engine.at(engine.now() + 5.0, [&] { fired_at = engine.now(); }); });
  engine.run_until(20.0);
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(SimEngine, EveryCreatesPeriodicEvents) {
  SimEngine engine;
  int count = 0;
  engine.every(10.0, 55.0, [&] { ++count; });
  engine.run_until(55.0);
  EXPECT_EQ(count, 5);  // t = 10,20,30,40,50
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(SimEngine, EveryFiresOnExactMultiplesWithoutDrift) {
  // Accumulating t += period drifts by an ulp per firing; 0.1 is the classic
  // non-representable period. Every firing must land on exactly now + k *
  // period, and the count must be exact even near until_s.
  SimEngine engine;
  std::vector<double> fired;
  engine.every(0.1, 10.0, [&] { fired.push_back(engine.now()); });
  engine.run_until(10.0);
  ASSERT_EQ(fired.size(), 99u);  // t = 0.1 .. 9.9; 10.0 is excluded
  for (std::size_t k = 0; k < fired.size(); ++k) {
    EXPECT_EQ(fired[k], 0.1 * static_cast<double>(k + 1)) << "firing " << k;
  }
}

TEST(SimEngine, EveryAnchorsAtCurrentTime) {
  SimEngine engine;
  std::vector<double> fired;
  engine.at(7.0, [&] {
    engine.every(2.0, 14.0, [&] { fired.push_back(engine.now()); });
  });
  engine.run_until(14.0);
  EXPECT_EQ(fired, (std::vector<double>{9.0, 11.0, 13.0}));
}

TEST(SimEngine, RejectsPastAndNegative) {
  SimEngine engine;
  engine.at(10.0, [] {});
  engine.run_until(10.0);
  EXPECT_THROW(engine.at(5.0, [] {}), std::invalid_argument);
  EXPECT_THROW(engine.every(0.0, 10.0, [] {}), std::invalid_argument);
}

TEST(SimEngine, RunUntilWithEmptyQueueStillAdvances) {
  SimEngine engine;
  engine.run_until(42.0);
  EXPECT_DOUBLE_EQ(engine.now(), 42.0);
}

}  // namespace
}  // namespace mpleo::sim
