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

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.schedule(1.0, [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelUnknownIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(0));
  EXPECT_FALSE(q.cancel(999));
}

TEST(EventQueue, CancelAfterFireFails) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  q.pop().action();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, PopSkipsCancelledEntries) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1.0, [&] { order.push_back(1); });
  const EventId id = q.schedule(2.0, [&] { order.push_back(2); });
  q.schedule(3.0, [&] { order.push_back(3); });
  q.cancel(id);
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, NextTimeSkipsCancelledHead) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  q.schedule(5.0, [] {});
  q.cancel(id);
  EXPECT_DOUBLE_EQ(q.next_time(), 5.0);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop().action();
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, ManyInterleavedOperations) {
  EventQueue q;
  std::vector<double> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    const double t = static_cast<double>((i * 37) % 100);
    ids.push_back(q.schedule(t, [&fired, t] { fired.push_back(t); }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 3) q.cancel(ids[i]);
  double last = -1.0;
  while (!q.empty()) {
    const auto f = q.pop();
    EXPECT_GE(f.time, last);
    last = f.time;
    f.action();
  }
  EXPECT_EQ(fired.size(), 66u);
}

TEST(EventQueue, CompactionBoundsTombstones) {
  // Tombstones must never exceed half the physical store: cancelling most
  // of a large batch triggers compaction instead of unbounded lazy growth.
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 10'000; ++i) {
    ids.push_back(q.schedule(static_cast<double>(i), [] {}));
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i % 10 != 0) {
      EXPECT_TRUE(q.cancel(ids[i]));
    }
    EXPECT_LE(q.tombstone_count() * 2, q.physical_size() + 1)
        << "after cancel " << i;
  }
  EXPECT_EQ(q.size(), 1000u);
  // The compacted store is within the bound, not merely the tombstones.
  EXPECT_LE(q.physical_size(), 2 * q.size() + 2);
  double last = -1.0;
  while (!q.empty()) {
    const auto f = q.pop();
    EXPECT_GT(f.time, last);
    last = f.time;
  }
  EXPECT_EQ(q.tombstone_count(), 0u);
}

TEST(EventQueue, CompactionAlsoTriggersOnPop) {
  // pop() shrinks the store, so buried tombstones can cross the half-store
  // bound during a pure drain as well.
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.schedule(static_cast<double>(i), [] {}));
  }
  // Cancel a band in the middle: just under the compaction threshold.
  for (std::size_t i = 600; i < 1000; ++i) EXPECT_TRUE(q.cancel(ids[i]));
  while (!q.empty()) {
    (void)q.pop();
    EXPECT_LE(q.tombstone_count() * 2, q.physical_size() + 1);
  }
}

TEST(EventQueue, PopsInSortedTimeSeqOrder) {
  // The heap must pop exactly the (time, seq) order of a sorted reference,
  // including ties and cancellations.
  EventQueue q;
  std::vector<std::pair<double, std::uint64_t>> reference;
  std::vector<EventId> ids;
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  for (std::uint64_t seq = 0; seq < 5000; ++seq) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    // Coarse quantization forces plenty of exact time ties.
    const double t = static_cast<double>((state >> 33) % 4096) * 0.25;
    ids.push_back(q.schedule(t, [] {}));
    reference.emplace_back(t, seq);
  }
  std::vector<std::pair<double, std::uint64_t>> live;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i % 7 == 0) {
      EXPECT_TRUE(q.cancel(ids[i]));
    } else {
      live.push_back(reference[i]);
    }
  }
  std::sort(live.begin(), live.end());
  ASSERT_EQ(q.size(), live.size());
  for (const auto& [time, seq] : live) {
    const auto fired = q.pop();
    ASSERT_EQ(fired.time, time);
    ASSERT_EQ(fired.seq, seq);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SurvivesForeverSentinels) {
  EventQueue q;
  bool near_fired = false;
  const EventId forever =
      q.schedule(std::numeric_limits<double>::max() / 4.0, [] {});
  q.schedule(1.0, [&] { near_fired = true; });
  q.pop().action();
  EXPECT_TRUE(near_fired);
  EXPECT_TRUE(q.cancel(forever));
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace alert::sim
