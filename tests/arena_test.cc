// Tests of the construction arena (src/util/arena.h): bump allocation,
// destructor registration order, ArenaPtr ownership on both backings, and
// the uninitialized-array path the logger rings use. Lifetime and
// ownership mistakes here are exactly what AddressSanitizer exists for,
// so the whole file is part of the `widenode` sanitizer aggregate.

#include "src/util/arena.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/core/log_entry.h"
#include "src/util/ring_buffer.h"

namespace quanto {
namespace {

TEST(ArenaTest, AllocateBumpsWithinOneSlab) {
  Arena arena;
  void* a = arena.Allocate(64, 8);
  void* b = arena.Allocate(64, 8);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // Second allocation bumps forward in the same slab.
  EXPECT_EQ(static_cast<char*>(b) - static_cast<char*>(a), 64);
  EXPECT_EQ(arena.slab_count(), 1u);
  EXPECT_EQ(arena.allocations(), 2u);
  EXPECT_EQ(arena.bytes_allocated(), 128u);
  EXPECT_GE(arena.bytes_reserved(), Arena::kMinSlabBytes);
}

TEST(ArenaTest, AlignmentIsRespected) {
  Arena arena;
  arena.Allocate(1, 1);  // Misalign the cursor.
  for (size_t align : {2u, 8u, 16u, 64u}) {
    auto at = reinterpret_cast<uintptr_t>(arena.Allocate(3, align));
    EXPECT_EQ(at % align, 0u) << "align " << align;
  }
}

TEST(ArenaTest, OversizedAllocationGetsItsOwnGrownSlab) {
  Arena arena;
  // Bigger than the first slab: the arena must grow a slab that fits
  // rather than fail or split.
  size_t big = Arena::kMinSlabBytes * 3;
  void* p = arena.Allocate(big, 8);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xAB, big);  // Every byte must be writable (ASan checks).
  EXPECT_GE(arena.bytes_reserved(), big);
}

struct OrderRecorder {
  explicit OrderRecorder(std::vector<int>* order, int id)
      : order_(order), id_(id) {}
  ~OrderRecorder() { order_->push_back(id_); }
  std::vector<int>* order_;
  int id_;
};

TEST(ArenaTest, DestructorsRunInReverseAllocationOrder) {
  std::vector<int> order;
  {
    Arena arena;
    arena.New<OrderRecorder>(&order, 1);
    arena.New<OrderRecorder>(&order, 2);
    arena.New<OrderRecorder>(&order, 3);
    EXPECT_TRUE(order.empty());  // Nothing destroyed while the arena lives.
  }
  // Reverse of construction, like stack unwinding: components die before
  // what they were built on.
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 3);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 1);
}

TEST(ArenaTest, TriviallyDestructibleTypesRegisterNoDtor) {
  Arena arena;
  int* p = arena.New<int>(41);
  EXPECT_EQ(*p, 41);
  *p = 42;
  EXPECT_EQ(*p, 42);
}

TEST(ArenaTest, NewArrayIsWritableRawStorage) {
  Arena arena;
  constexpr size_t kN = 100000;  // Spans multiple slab growths.
  LogEntry* entries = arena.NewArray<LogEntry>(kN);
  ASSERT_NE(entries, nullptr);
  for (size_t i = 0; i < kN; ++i) {
    entries[i].type = static_cast<uint8_t>(i & 3);
    entries[i].payload = i;
  }
  EXPECT_EQ(uint64_t{entries[0].payload}, 0u);
  EXPECT_EQ(entries[kN - 1].payload, kN - 1);
}

TEST(ArenaTest, MakeArenaPtrUsesArenaWhenGiven) {
  std::vector<int> order;
  {
    Arena arena;
    ArenaPtr<OrderRecorder> p = MakeArenaPtr<OrderRecorder>(&arena, &order, 7);
    ASSERT_NE(p, nullptr);
    p.reset();  // ArenaPtr's delete is a no-op for arena-backed objects...
    EXPECT_TRUE(order.empty());
  }
  // ...the registered destructor runs when the arena dies (exactly once:
  // a double-destroy here is an ASan failure).
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], 7);
}

TEST(ArenaTest, MakeArenaPtrFallsBackToHeap) {
  std::vector<int> order;
  {
    ArenaPtr<OrderRecorder> p =
        MakeArenaPtr<OrderRecorder>(nullptr, &order, 9);
    ASSERT_NE(p, nullptr);
  }
  // Heap-backed: the ArenaPtr itself deletes (a leak here is an ASan
  // failure; a second destruction anywhere would be too).
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], 9);
}

TEST(ArenaTest, RingBufferStorageCanLiveInTheArena) {
  Arena arena;
  RingBuffer<LogEntry> ring(
      64, RingBuffer<LogEntry>::OverflowPolicy::kDropNewest, &arena);
  for (uint64_t i = 0; i < 64; ++i) {
    LogEntry e{};
    e.payload = i;
    EXPECT_TRUE(ring.Push(e));
  }
  EXPECT_EQ(ring.size(), 64u);
  LogEntry out = ring.Pop();
  EXPECT_EQ(uint64_t{out.payload}, 0u);
  // The ring storage came from the arena, not the heap.
  EXPECT_GE(arena.bytes_allocated(), 64 * sizeof(LogEntry));
}

TEST(ArenaTest, ResetReleasesAndArenaIsReusable) {
  Arena arena;
  arena.Allocate(Arena::kMinSlabBytes * 2, 8);
  size_t reserved_before = arena.bytes_reserved();
  EXPECT_GT(reserved_before, 0u);
  arena.Reset();
  void* p = arena.Allocate(32, 8);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0, 32);
}

}  // namespace
}  // namespace quanto
