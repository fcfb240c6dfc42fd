#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace alert::sim {
namespace {

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().action();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue q;
  q.schedule(7.0, [] {});
  q.schedule(2.5, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 2.5);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.pop().action();
  EXPECT_EQ(q.size(), 1u);
  q.pop().action();
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, ManyInterleavedOperations) {
  EventQueue q;
  std::vector<double> fired;
  for (int i = 0; i < 100; ++i) {
    const double t = static_cast<double>((i * 37) % 100);
    q.schedule(t, [&q, &fired, t] {
      fired.push_back(t);
      // Every third time also schedules a follow-up while the queue drains.
      if (static_cast<int>(t) % 3 == 0) {
        q.schedule(t + 0.5, [&fired, t] { fired.push_back(t + 0.5); });
      }
    });
  }
  double last = -1.0;
  while (!q.empty()) {
    const auto f = q.pop();
    EXPECT_GE(f.time, last);
    last = f.time;
    f.action();
  }
  EXPECT_EQ(fired.size(), 134u);  // 100 + follow-ups at t = 0, 3, ..., 99
}

TEST(EventQueue, PopsInSortedTimeSeqOrder) {
  // The heap must pop exactly the (time, seq) order of a sorted reference,
  // including ties.
  EventQueue q;
  std::vector<std::pair<double, std::uint64_t>> reference;
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  for (std::uint64_t seq = 0; seq < 5000; ++seq) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    // Coarse quantization forces plenty of exact time ties.
    const double t = static_cast<double>((state >> 33) % 4096) * 0.25;
    q.schedule(t, [] {});
    reference.emplace_back(t, seq);
  }
  std::sort(reference.begin(), reference.end());
  ASSERT_EQ(q.size(), reference.size());
  for (const auto& [time, seq] : reference) {
    const auto fired = q.pop();
    ASSERT_EQ(fired.time, time);
    ASSERT_EQ(fired.seq, seq);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SurvivesForeverSentinels) {
  EventQueue q;
  bool near_fired = false;
  const double forever = std::numeric_limits<double>::max() / 4.0;
  q.schedule(forever, [] {});
  q.schedule(1.0, [&] { near_fired = true; });
  q.pop().action();
  EXPECT_TRUE(near_fired);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), forever);
}

}  // namespace
}  // namespace alert::sim
