#include "src/sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace hdtn::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (q.runNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, EqualTimesFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&order, i] { order.push_back(i); });
  }
  while (q.runNext()) {
  }
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  q.schedule(1, [] {});
  q.schedule(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.runNext();
  EXPECT_EQ(q.size(), 1u);
  q.runNext();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeInfinityWhenEmpty) {
  EventQueue q;
  EXPECT_EQ(q.nextTime(), kTimeInfinity);
  EXPECT_FALSE(q.runNext());
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  EventQueue q;
  std::vector<SimTime> times;
  q.schedule(1, [&] {
    times.push_back(q.now());
    q.schedule(5, [&] { times.push_back(q.now()); });
  });
  q.schedule(3, [&] { times.push_back(q.now()); });
  while (q.runNext()) {
  }
  EXPECT_EQ(times, (std::vector<SimTime>{1, 3, 5}));
}

TEST(EventQueue, SlotsAreReusedAcrossPopCycles) {
  EventQueue q;
  // Schedule/run in waves: the slot pool must stay at the high-water mark of
  // *pending* events, not grow by one slot per event ever scheduled.
  for (int wave = 0; wave < 50; ++wave) {
    for (int i = 0; i < 10; ++i) {
      q.schedule(wave * 10 + i, [] {});
    }
    while (q.runNext()) {
    }
  }
  EXPECT_EQ(q.slotCapacity(), 10u);
}

TEST(EventQueue, ReservePreSizesSlotPool) {
  EventQueue q;
  q.reserve(64);
  for (int i = 0; i < 64; ++i) q.schedule(i, [] {});
  EXPECT_EQ(q.size(), 64u);
  while (q.runNext()) {
  }
}

TEST(EventQueue, SameTimeScheduledFromHandlerRunsAfter) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1, [&] {
    order.push_back(1);
    q.schedule(1, [&] { order.push_back(2); });
  });
  while (q.runNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace hdtn::sim
