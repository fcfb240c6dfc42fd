#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace alert::sim {
namespace {

TEST(Simulator, ClockStartsAtZero) {
  Simulator s;
  EXPECT_DOUBLE_EQ(s.now(), 0.0);
}

TEST(Simulator, ScheduleInAdvancesClock) {
  Simulator s;
  double seen = -1.0;
  s.schedule_in(2.5, [&] { seen = s.now(); });
  s.run_until(10.0);
  EXPECT_DOUBLE_EQ(seen, 2.5);
  EXPECT_DOUBLE_EQ(s.now(), 10.0);  // clock lands on the horizon
}

TEST(Simulator, EventsAtHorizonStillFire) {
  Simulator s;
  bool fired = false;
  s.schedule_at(5.0, [&] { fired = true; });
  s.run_until(5.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, EventsPastHorizonDoNotFire) {
  Simulator s;
  bool fired = false;
  s.schedule_at(5.0001, [&] { fired = true; });
  s.run_until(5.0);
  EXPECT_FALSE(fired);
  EXPECT_FALSE(s.idle());  // still pending
}

TEST(Simulator, NestedScheduling) {
  Simulator s;
  std::vector<double> times;
  s.schedule_in(1.0, [&] {
    times.push_back(s.now());
    s.schedule_in(1.0, [&] { times.push_back(s.now()); });
  });
  s.run_until(10.0);
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.0);
}

TEST(Simulator, PeriodicFiresAtFixedCadence) {
  Simulator s;
  std::vector<double> times;
  s.schedule_periodic(0.5, 1.0, [&] { times.push_back(s.now()); });
  s.run_until(4.0);
  ASSERT_EQ(times.size(), 4u);
  EXPECT_DOUBLE_EQ(times[0], 0.5);
  EXPECT_DOUBLE_EQ(times[3], 3.5);
}

TEST(Simulator, RunUntilReturnsEventCount) {
  Simulator s;
  for (int i = 0; i < 5; ++i) s.schedule_in(static_cast<double>(i), [] {});
  EXPECT_EQ(s.run_until(10.0), 5u);
  EXPECT_EQ(s.events_executed(), 5u);
}

TEST(Simulator, ResumableAcrossHorizons) {
  Simulator s;
  std::vector<double> times;
  s.schedule_periodic(1.0, 2.0, [&] { times.push_back(s.now()); });
  s.run_until(3.0);
  EXPECT_EQ(times.size(), 2u);
  s.run_until(7.0);
  EXPECT_EQ(times.size(), 4u);
}

TEST(Simulator, ZeroDelayFiresAtCurrentTime) {
  Simulator s;
  s.schedule_in(1.0, [] {});
  s.run_until(1.0);
  double seen = -1.0;
  s.schedule_in(0.0, [&] { seen = s.now(); });
  s.run_until(1.0);
  EXPECT_DOUBLE_EQ(seen, 1.0);
}

}  // namespace
}  // namespace alert::sim
