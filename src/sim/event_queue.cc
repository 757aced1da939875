#include "src/sim/event_queue.h"

#include <limits>
#include <utility>

namespace quanto {

uint32_t EventQueue::AcquireSlot() {
  if (free_head_ != kNoSlot) {
    uint32_t index = free_head_;
    free_head_ = slots_[index].next_free;
    return index;
  }
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void EventQueue::ReleaseSlot(uint32_t index) {
  Slot& slot = slots_[index];
  slot.fn = nullptr;
  // Invalidate every id issued for this occupancy before the slot can be
  // reused.
  ++slot.generation;
  slot.next_free = free_head_;
  free_head_ = index;
}

void EventQueue::FarPush(const HeapEntry& entry) {
  far_keys_.push_back(entry.time);
  far_payloads_.push_back({entry.seq, entry.slot, entry.generation});
  size_t child = far_keys_.size() - 1;
  while (child > 0) {
    size_t parent = (child - 1) / 4;
    if (!FarEarlier(child, parent)) {
      break;
    }
    std::swap(far_keys_[child], far_keys_[parent]);
    std::swap(far_payloads_[child], far_payloads_[parent]);
    child = parent;
  }
}

void EventQueue::FarPopTop() {
  far_keys_.front() = far_keys_.back();
  far_keys_.pop_back();
  far_payloads_.front() = far_payloads_.back();
  far_payloads_.pop_back();
  size_t n = far_keys_.size();
  size_t parent = 0;
  for (;;) {
    size_t first_child = parent * 4 + 1;
    if (first_child >= n) {
      break;
    }
    size_t best = first_child;
    size_t last_child = first_child + 4 < n ? first_child + 4 : n;
    for (size_t c = first_child + 1; c < last_child; ++c) {
      if (FarEarlier(c, best)) {
        best = c;
      }
    }
    if (!FarEarlier(best, parent)) {
      break;
    }
    std::swap(far_keys_[parent], far_keys_[best]);
    std::swap(far_payloads_[parent], far_payloads_[best]);
    parent = best;
  }
}

void EventQueue::WheelInsert(const HeapEntry& entry) {
  uint32_t node = free_node_;
  if (node != kNoNode) {
    free_node_ = wheel_nodes_[node].next;
    wheel_nodes_[node] = WheelNode{entry, kNoNode};
  } else {
    node = static_cast<uint32_t>(wheel_nodes_.size());
    wheel_nodes_.push_back(WheelNode{entry, kNoNode});
  }
  size_t index = static_cast<size_t>(entry.time & kWheelMask);
  Bucket& bucket = wheel_[index];
  if (bucket.empty()) {
    bucket.head = node;
    MarkBucket(index);
  } else {
    wheel_nodes_[bucket.tail].next = node;
  }
  bucket.tail = node;
}

void EventQueue::WheelPopFront(size_t index) {
  Bucket& bucket = wheel_[index];
  uint32_t node = bucket.head;
  bucket.head = wheel_nodes_[node].next;
  wheel_nodes_[node].next = free_node_;
  free_node_ = node;
  if (bucket.empty()) {
    ClearBucket(index);
  }
}

int EventQueue::NextOccupiedBucket(Tick from) const {
  if (from >= horizon_) {
    return -1;
  }
  // Every occupied bucket holds a tick inside [from, horizon_): ticks
  // before `from` are fully consumed and the window is at most
  // kNearHorizon wide, so the first set bit in ring order from `from` is
  // the next occupied bucket.
  size_t start = static_cast<size_t>(from & kWheelMask);
  size_t word = start / 64;
  uint64_t w = occupied_[word] & (~uint64_t{0} << (start % 64));
  if (w != 0) {
    return static_cast<int>(word * 64 +
                            static_cast<size_t>(__builtin_ctzll(w)));
  }
  for (size_t step = 1; step < kBitmapWords; ++step) {
    size_t i = (word + step) % kBitmapWords;
    if (occupied_[i] != 0) {
      return static_cast<int>(
          i * 64 + static_cast<size_t>(__builtin_ctzll(occupied_[i])));
    }
  }
  // Wrapped back to the first word: bits below `start`.
  uint64_t low = occupied_[word] & ~(~uint64_t{0} << (start % 64));
  if (low != 0) {
    return static_cast<int>(word * 64 +
                            static_cast<size_t>(__builtin_ctzll(low)));
  }
  return -1;
}

EventQueue::EventId EventQueue::Schedule(Tick time, Callback fn) {
  if (time < now_) {
    time = now_;
  }
  uint32_t index = AcquireSlot();
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  HeapEntry entry{time, next_seq_++, index, slot.generation};
  if (time == now_) {
    due_.push_back(entry);  // Fast path: due this tick, FIFO, no sift.
  } else if (time < horizon_ && time + kNearHorizon >= horizon_) {
    // Inside the wheel's exact window [horizon_ - kNearHorizon, horizon_):
    // bucket indices are collision-free only across a window this wide.
    if (time < wheel_pos_) {
      wheel_pos_ = time;  // Pull the scan cursor back to cover this tick.
    }
    WheelInsert(entry);
  } else {
    // Later than the window — or in the rare gap between the clock and a
    // far-ahead window — the far heap holds it until a migration.
    FarPush(entry);
  }
  ++live_count_;
  return (static_cast<EventId>(slot.generation) << 32) | index;
}

EventQueue::EventId EventQueue::ScheduleAfter(Tick delay, Callback fn) {
  return Schedule(now_ + delay, std::move(fn));
}

bool EventQueue::Cancel(EventId id) {
  uint32_t index = static_cast<uint32_t>(id);
  uint32_t generation = static_cast<uint32_t>(id >> 32);
  if (index >= slots_.size() || slots_[index].generation != generation) {
    return false;  // Never issued, already run, or already cancelled.
  }
  // The wheel/heap entry stays until popped; the generation bump marks it
  // stale.
  ReleaseSlot(index);
  --live_count_;
  return true;
}

Tick EventQueue::NextEventLowerBound() const {
  Tick best = kNoEventTime;
  if (!DueEmpty()) {
    best = now_;
  }
  Tick from = wheel_pos_ < now_ ? now_ : wheel_pos_;
  int bidx = NextOccupiedBucket(from);
  if (bidx >= 0) {
    // An occupied bucket is never empty.
    Tick t = WheelFront(wheel_[static_cast<size_t>(bidx)]).time;
    if (t < best) {
      best = t;
    }
  }
  if (!far_keys_.empty() && far_keys_.front() < best) {
    best = far_keys_.front();
  }
  return best;
}

bool EventQueue::PopNext(Tick limit, Tick* time, Callback* fn) {
  // `fn` must arrive empty: assigning into a non-empty Callback would run
  // the old target's destructor mid-pop, which may reenter the queue.
  if (wheel_pos_ < now_) {
    wheel_pos_ = now_;  // Ticks behind the clock are fully consumed.
  }
  // Locate the wheel's next live entry, dropping stale entries and
  // consumed buckets, refilling from the far heap when the wheel drains.
  // The entry is copied out: a node pointer would not survive the pool
  // growing.
  HeapEntry wheel_entry{};
  bool have_wheel = false;
  for (;;) {
    // Cursor-bucket fast path: within the window a non-empty bucket at
    // the cursor's index can only hold the cursor's own tick (indices are
    // unique across the window), so the bitmap scan is skippable.
    int bidx = static_cast<int>(wheel_pos_ & kWheelMask);
    if (wheel_pos_ >= horizon_ ||
        wheel_[static_cast<size_t>(bidx)].empty()) {
      bidx = NextOccupiedBucket(wheel_pos_);
    }
    if (bidx < 0) {
      if (!far_keys_.empty()) {
        // Advance the window to the earliest far event and pull everything
        // inside the new window across (stale entries migrate too; the
        // bucket scan drops them).
        Tick base = far_keys_.front();
        wheel_pos_ = base;
        horizon_ = base + kNearHorizon;
        do {
          WheelInsert(FarTop());
          FarPopTop();
        } while (!far_keys_.empty() && far_keys_.front() < horizon_);
        continue;
      }
      break;
    }
    const Bucket& bucket = wheel_[static_cast<size_t>(bidx)];
    while (!bucket.empty() && slots_[WheelFront(bucket).slot].generation !=
                                  WheelFront(bucket).generation) {
      // Stale: cancelled since it was scheduled. Popping the last node
      // also clears the bucket's bitmap bit.
      WheelPopFront(static_cast<size_t>(bidx));
    }
    if (bucket.empty()) {
      continue;
    }
    wheel_entry = WheelFront(bucket);
    have_wheel = true;
    wheel_pos_ = wheel_entry.time;  // Park the cursor on this tick.
    break;
  }
  while (!DueEmpty() &&
         slots_[DueFront().slot].generation != DueFront().generation) {
    DuePop();
  }

  // Choose the (time, seq) minimum. A due entry's time is always the
  // current tick; wheel leftovers at the current tick were scheduled
  // earlier (smaller seq) and win, wheel entries at later ticks lose to
  // due entries. The far heap can momentarily hold events earlier than
  // the wheel's window (scheduled into the gap between a lagging clock
  // and a far-ahead window), so when the wheel-future candidate would win
  // its top joins the comparison.
  enum class Source { kWheel, kDue, kFar };
  Source source;
  if (have_wheel && wheel_entry.time <= now_) {
    source = Source::kWheel;
  } else if (!DueEmpty()) {
    source = Source::kDue;
  } else if (!have_wheel) {
    return false;  // The scan loop drained the far heap into the wheel.
  } else {
    source = Source::kWheel;
    while (!far_keys_.empty() &&
           slots_[far_payloads_.front().slot].generation !=
               far_payloads_.front().generation) {
      FarPopTop();
    }
    if (!far_keys_.empty() && FarTopEarlier(wheel_entry)) {
      source = Source::kFar;
    }
  }
  HeapEntry top = source == Source::kDue
                      ? DueFront()
                      : (source == Source::kFar ? FarTop() : wheel_entry);
  if (top.time > limit) {
    return false;
  }
  switch (source) {
    case Source::kDue:
      DuePop();
      break;
    case Source::kFar:
      FarPopTop();
      break;
    case Source::kWheel:
      WheelPopFront(static_cast<size_t>(top.time & kWheelMask));
      break;
  }
  *time = top.time;
  *fn = std::move(slots_[top.slot].fn);
  ReleaseSlot(top.slot);
  --live_count_;
  return true;
}

bool EventQueue::RunNext() {
  Tick time;
  Callback fn;
  if (!PopNext(std::numeric_limits<Tick>::max(), &time, &fn)) {
    return false;
  }
  now_ = time;
  ++executed_count_;
  fn();
  return true;
}

size_t EventQueue::RunUntil(Tick end) {
  size_t executed = 0;
  for (;;) {
    Tick time;
    Callback fn;
    if (!PopNext(end, &time, &fn)) {
      break;
    }
    now_ = time;
    ++executed_count_;
    ++executed;
    fn();
  }
  now_ = end;
  return executed;
}

size_t EventQueue::RunAll() {
  size_t executed = 0;
  while (RunNext()) {
    ++executed;
  }
  return executed;
}

}  // namespace quanto
