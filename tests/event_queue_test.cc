#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

namespace quanto {
namespace {

TEST(EventQueueTest, StartsAtTimeZero) {
  EventQueue queue;
  EXPECT_EQ(queue.Now(), 0u);
  EXPECT_TRUE(queue.Empty());
}

TEST(EventQueueTest, RunsEventsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.Schedule(30, [&] { order.push_back(3); });
  queue.Schedule(10, [&] { order.push_back(1); });
  queue.Schedule(20, [&] { order.push_back(2); });
  queue.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(queue.Now(), 30u);
}

TEST(EventQueueTest, SameTimeEventsRunInScheduleOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.Schedule(5, [&order, i] { order.push_back(i); });
  }
  queue.RunAll();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EventQueueTest, PastEventsClampToNow) {
  EventQueue queue;
  queue.Schedule(100, [] {});
  queue.RunAll();
  ASSERT_EQ(queue.Now(), 100u);
  bool ran = false;
  queue.Schedule(50, [&] { ran = true; });  // In the past.
  queue.RunNext();
  EXPECT_TRUE(ran);
  EXPECT_EQ(queue.Now(), 100u);  // Time never goes backwards.
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue queue;
  bool ran = false;
  auto id = queue.Schedule(10, [&] { ran = true; });
  EXPECT_TRUE(queue.Cancel(id));
  queue.RunAll();
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelTwiceReturnsFalse) {
  EventQueue queue;
  auto id = queue.Schedule(10, [] {});
  EXPECT_TRUE(queue.Cancel(id));
  EXPECT_FALSE(queue.Cancel(id));
}

TEST(EventQueueTest, CancelInvalidIdReturnsFalse) {
  EventQueue queue;
  EXPECT_FALSE(queue.Cancel(EventQueue::kInvalidEvent));
  EXPECT_FALSE(queue.Cancel(12345));  // Never issued.
}

TEST(EventQueueTest, CancelAfterExecutionReturnsFalse) {
  EventQueue queue;
  auto id = queue.Schedule(10, [] {});
  queue.RunAll();
  EXPECT_FALSE(queue.Cancel(id));
}

TEST(EventQueueTest, RunUntilAdvancesClockToBoundary) {
  EventQueue queue;
  int count = 0;
  queue.Schedule(10, [&] { ++count; });
  queue.Schedule(20, [&] { ++count; });
  queue.Schedule(30, [&] { ++count; });
  size_t executed = queue.RunUntil(20);
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(queue.Now(), 20u);
  EXPECT_EQ(queue.PendingCount(), 1u);
}

TEST(EventQueueTest, RunForIsRelative) {
  EventQueue queue;
  queue.RunUntil(100);
  int count = 0;
  queue.ScheduleAfter(50, [&] { ++count; });
  queue.RunFor(49);
  EXPECT_EQ(count, 0);
  queue.RunFor(1);
  EXPECT_EQ(count, 1);
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue queue;
  std::vector<Tick> times;
  std::function<void()> chain = [&] {
    times.push_back(queue.Now());
    if (times.size() < 5) {
      queue.ScheduleAfter(10, chain);
    }
  };
  queue.Schedule(0, chain);
  queue.RunAll();
  EXPECT_EQ(times, (std::vector<Tick>{0, 10, 20, 30, 40}));
}

TEST(EventQueueTest, PendingCountTracksScheduleAndCancel) {
  EventQueue queue;
  auto a = queue.Schedule(10, [] {});
  queue.Schedule(20, [] {});
  EXPECT_EQ(queue.PendingCount(), 2u);
  queue.Cancel(a);
  EXPECT_EQ(queue.PendingCount(), 1u);
  queue.RunAll();
  EXPECT_EQ(queue.PendingCount(), 0u);
  EXPECT_EQ(queue.executed_count(), 1u);
}

TEST(EventQueueTest, SameTickBurstsShareOneWheelNodePool) {
  // 100 bursts of 2 000 same-tick events, each burst at its own wheel
  // bucket, scheduled two bursts at a time and interleaved event by event
  // so the two buckets' lists thread through one pool. Every third event
  // of a burst is cancelled, the head among them, and so is its tail.
  constexpr int kBurst = 2000;
  // Two bursts are pending at a time, cancelled events included.
  constexpr size_t kMostPending = 2 * kBurst;
  EventQueue queue;
  // (time, schedule order) of every event that ran, in run order.
  std::vector<std::pair<Tick, int>> ran;
  std::vector<std::pair<Tick, int>> expected;
  int order = 0;
  for (int round = 0; round < 50; ++round) {
    // Distinct bucket indices: every burst lies within one wheel width
    // (8 192 ticks) of the first.
    Tick ticks[2] = {queue.Now() + 1 + round, queue.Now() + 2 + 2 * round};
    std::vector<EventQueue::EventId> cancelled;
    for (int i = 0; i < kBurst; ++i) {
      for (Tick tick : ticks) {
        int id = order++;
        EventQueue::EventId event = queue.Schedule(
            tick, [&ran, &queue, id] { ran.emplace_back(queue.Now(), id); });
        if (i % 3 == 0 || i == kBurst - 1) {
          cancelled.push_back(event);
        } else {
          expected.emplace_back(tick, id);
        }
      }
    }
    // Cancelled once both lists are whole.
    for (EventQueue::EventId event : cancelled) {
      EXPECT_TRUE(queue.Cancel(event));
    }
    queue.RunUntil(ticks[1]);
    EXPECT_LE(queue.wheel_nodes(), kMostPending) << "round " << round;
  }
  // (time, seq) order: by tick, then by schedule order within a tick.
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(ran, expected);
  EXPECT_TRUE(queue.Empty());
  EXPECT_GT(queue.wheel_nodes(), 0u);
  EXPECT_LE(queue.wheel_nodes(), kMostPending);
}

}  // namespace
}  // namespace quanto
