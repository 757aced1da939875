#include "src/util/ring_buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "src/util/arena.h"

namespace quanto {
namespace {

TEST(RingBufferTest, StartsEmpty) {
  RingBuffer<int> buffer(4);
  EXPECT_TRUE(buffer.empty());
  EXPECT_FALSE(buffer.full());
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.capacity(), 4u);
}

TEST(RingBufferTest, PushPopFifoOrder) {
  RingBuffer<int> buffer(4);
  for (int i = 1; i <= 4; ++i) {
    EXPECT_TRUE(buffer.Push(i));
  }
  for (int i = 1; i <= 4; ++i) {
    EXPECT_EQ(buffer.Pop(), i);
  }
  EXPECT_TRUE(buffer.empty());
}

TEST(RingBufferTest, DropNewestRejectsWhenFull) {
  RingBuffer<int> buffer(2);
  EXPECT_TRUE(buffer.Push(1));
  EXPECT_TRUE(buffer.Push(2));
  EXPECT_FALSE(buffer.Push(3));
  EXPECT_EQ(buffer.dropped(), 1u);
  EXPECT_EQ(buffer.Pop(), 1);  // Oldest retained, newest dropped.
  EXPECT_EQ(buffer.Pop(), 2);
}

TEST(RingBufferTest, OverwriteOldestKeepsNewest) {
  RingBuffer<int> buffer(2, RingBuffer<int>::OverflowPolicy::kOverwriteOldest);
  buffer.Push(1);
  buffer.Push(2);
  EXPECT_TRUE(buffer.Push(3));
  EXPECT_EQ(buffer.dropped(), 1u);
  EXPECT_EQ(buffer.Pop(), 2);
  EXPECT_EQ(buffer.Pop(), 3);
}

TEST(RingBufferTest, WrapsAroundStorage) {
  RingBuffer<int> buffer(3);
  buffer.Push(1);
  buffer.Push(2);
  EXPECT_EQ(buffer.Pop(), 1);
  buffer.Push(3);
  buffer.Push(4);  // Physically wraps.
  EXPECT_EQ(buffer.Pop(), 2);
  EXPECT_EQ(buffer.Pop(), 3);
  EXPECT_EQ(buffer.Pop(), 4);
}

TEST(RingBufferTest, AtIndexesByAge) {
  RingBuffer<int> buffer(3);
  buffer.Push(10);
  buffer.Push(20);
  buffer.Pop();
  buffer.Push(30);
  EXPECT_EQ(buffer.At(0), 20);
  EXPECT_EQ(buffer.At(1), 30);
}

TEST(RingBufferTest, SnapshotIsOldestFirst) {
  RingBuffer<int> buffer(3);
  buffer.Push(1);
  buffer.Push(2);
  buffer.Push(3);
  auto snap = buffer.Snapshot();
  EXPECT_EQ(snap, (std::vector<int>{1, 2, 3}));
  // Snapshot does not consume.
  EXPECT_EQ(buffer.size(), 3u);
}

TEST(RingBufferTest, ClearResetsEverything) {
  RingBuffer<int> buffer(2);
  buffer.Push(1);
  buffer.Push(2);
  buffer.Push(3);  // Dropped.
  buffer.Clear();
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(buffer.dropped(), 0u);
  EXPECT_TRUE(buffer.Push(9));
  EXPECT_EQ(buffer.Front(), 9);
}

// Property sweep: heavy churn keeps size/ordering invariants at any
// capacity.
class RingBufferChurnTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RingBufferChurnTest, FifoInvariantUnderChurn) {
  size_t capacity = GetParam();
  RingBuffer<size_t> buffer(capacity);
  size_t next_in = 0;
  size_t next_out = 0;
  for (int round = 0; round < 1000; ++round) {
    // Push a burst, pop half.
    for (size_t i = 0; i < capacity / 2 + 1; ++i) {
      if (buffer.Push(next_in)) {
        ++next_in;
      }
      ASSERT_LE(buffer.size(), capacity);
    }
    while (buffer.size() > capacity / 2) {
      ASSERT_EQ(buffer.Pop(), next_out);
      ++next_out;
    }
  }
  // Drain the tail: values must still be consecutive.
  while (!buffer.empty()) {
    ASSERT_EQ(buffer.Pop(), next_out);
    ++next_out;
  }
  EXPECT_EQ(next_in, next_out);
}

INSTANTIATE_TEST_SUITE_P(Capacities, RingBufferChurnTest,
                         ::testing::Values(1, 2, 3, 7, 64, 800));

TEST(RingBufferTest, OverwriteOldestKeepsNewestAtNonPow2Capacity) {
  // Regression: with storage rounded up to a power of two, the overwrite
  // path must append at the tail (head and tail no longer coincide when
  // the logical capacity is full).
  RingBuffer<int> buffer(3, RingBuffer<int>::OverflowPolicy::kOverwriteOldest);
  for (int i = 1; i <= 4; ++i) {
    EXPECT_TRUE(buffer.Push(i));
  }
  EXPECT_EQ(buffer.Snapshot(), (std::vector<int>{2, 3, 4}));
  EXPECT_EQ(buffer.dropped(), 1u);
  for (int i = 5; i <= 9; ++i) {
    buffer.Push(i);
  }
  EXPECT_EQ(buffer.Snapshot(), (std::vector<int>{7, 8, 9}));
}

// --- Restart when drained ----------------------------------------------------

TEST(RingBufferTest, DrainThatEmptiesRestartsAtStorageBase) {
  RingBuffer<int> buffer(8);
  buffer.Push(1);
  const int* base = &buffer.Front();
  for (int i = 2; i <= 5; ++i) {
    buffer.Push(i);
  }
  std::vector<int> out;
  EXPECT_EQ(buffer.DrainInto(&out, 2), 2u);  // Partial: head moves on.
  EXPECT_EQ(buffer.DrainInto(&out, 100), 3u);  // Empties the buffer.
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(buffer.Push(6));
  EXPECT_EQ(&buffer.Front(), base);

  // Pop that empties restarts the same way.
  buffer.Push(7);
  EXPECT_EQ(buffer.Pop(), 6);
  EXPECT_EQ(buffer.Pop(), 7);
  EXPECT_TRUE(buffer.Push(8));
  EXPECT_EQ(&buffer.Front(), base);
  EXPECT_EQ(buffer.Front(), 8);
}

TEST(RingBufferTest, PartialDrainKeepsItsPosition) {
  RingBuffer<int> buffer(8);
  for (int i = 1; i <= 5; ++i) {
    buffer.Push(i);
  }
  const int* base = &buffer.At(0);
  std::vector<int> out;
  EXPECT_EQ(buffer.DrainInto(&out, 2), 2u);
  EXPECT_EQ(&buffer.Front(), base + 2);
  EXPECT_EQ(buffer.Front(), 3);
  buffer.Push(6);  // Lands after 5, not at the base.
  EXPECT_EQ(&buffer.At(3), base + 5);
  EXPECT_EQ(buffer.Pop(), 3);
  EXPECT_EQ(&buffer.Front(), base + 3);
  EXPECT_EQ(buffer.Snapshot(), (std::vector<int>{4, 5, 6}));
}

// Entry order across wraps and restarts, against a deque model, for both
// overflow policies and both storage backings.
void CheckOrderAcrossWrapAndRestart(RingBuffer<int>::OverflowPolicy policy,
                                    Arena* arena) {
  const size_t capacity = 6;  // Eight slots: every cycle wraps.
  RingBuffer<int> buffer(capacity, policy, arena);
  std::deque<int> model;
  size_t model_dropped = 0;
  int next = 0;
  auto push = [&](int n) {
    for (int i = 0; i < n; ++i, ++next) {
      if (model.size() == capacity) {
        ++model_dropped;
        if (policy == RingBuffer<int>::OverflowPolicy::kDropNewest) {
          EXPECT_FALSE(buffer.Push(next));
          continue;
        }
        model.pop_front();
      }
      EXPECT_TRUE(buffer.Push(next));
      model.push_back(next);
    }
  };
  auto drain = [&](size_t n) {
    std::vector<int> out;
    size_t moved = buffer.DrainInto(&out, n);
    ASSERT_EQ(moved, std::min(n, model.size()));
    for (int v : out) {
      ASSERT_EQ(v, model.front());
      model.pop_front();
    }
  };
  for (int round = 0; round < 200; ++round) {
    // Vary burst and drain sizes so the buffer empties (and restarts) at
    // every head position, overflows and wraps.
    push(1 + round % 9);
    drain(static_cast<size_t>(round % 4));
    if (round % 3 == 0 && !model.empty()) {
      ASSERT_EQ(buffer.Pop(), model.front());
      model.pop_front();
    }
    ASSERT_EQ(buffer.Snapshot(), std::vector<int>(model.begin(), model.end()))
        << "round " << round;
    if (round % 5 == 4) {
      drain(capacity);  // Empty: the next push restarts at the base.
      ASSERT_TRUE(buffer.empty());
    }
  }
  EXPECT_EQ(buffer.dropped(), model_dropped);
  EXPECT_GT(model_dropped, 0u);
}

TEST(RingBufferTest, OrderHoldsAcrossWrapAndRestart) {
  for (auto policy : {RingBuffer<int>::OverflowPolicy::kDropNewest,
                      RingBuffer<int>::OverflowPolicy::kOverwriteOldest}) {
    SCOPED_TRACE(policy == RingBuffer<int>::OverflowPolicy::kDropNewest
                     ? "drop newest"
                     : "overwrite oldest");
    CheckOrderAcrossWrapAndRestart(policy, nullptr);
    Arena arena;
    CheckOrderAcrossWrapAndRestart(policy, &arena);
    EXPECT_GE(arena.bytes_allocated(), 8 * sizeof(int));
  }
}

}  // namespace
}  // namespace quanto
