// Discrete-event engine: a single global virtual clock shared by every node
// in the simulated network, with cancellable scheduled events.
//
// The Quanto paper's experiments run on real motes; here the event queue
// plays the role of physical time. Determinism matters: events at the same
// tick execute in schedule order (FIFO by sequence number), so a seeded run
// is exactly reproducible.
//
// Hot-path design (this engine bounds every many-node experiment):
//  * Callbacks are small-buffer Callback values — no heap allocation for
//    any closure up to 48 bytes, and events pop by move, never by copy.
//  * Event state lives in a slab of slots recycled through a free list;
//    ids pack (generation << 32) | slot, so Cancel() is an O(1) generation
//    compare — no hash lookups, no per-event set insertions.
//  * The ready queue is 4-ary implicit heaps of 24-byte entries (time,
//    FIFO sequence, slot, generation). Cancellation is lazy: a cancelled
//    event's entry stays in the heap until popped, where a generation
//    mismatch identifies it as stale and it is discarded in O(1) per entry.
//  * Events scheduled at (or clamped to) the current tick — task dispatch,
//    immediate completions — bypass the heaps entirely: they go to a FIFO
//    side queue that is trivially sorted by (time, seq), so the common
//    schedule-now/run-now pattern costs no sift at all. The pop path merges
//    the structures with a single comparison.
//  * The pending set is two-level. Short-delay events (frame completions,
//    SPI chunks, interrupt latencies — the bulk of all traffic) land in a
//    timing wheel covering the next kNearHorizon ticks: one FIFO bucket
//    per tick, so push is O(1) with no sift at all, and within a bucket
//    insertion order IS (time, seq) order because seq is monotone. A
//    two-level bitmap finds the next occupied bucket in O(1). Buckets are
//    head/tail links into one node pool per queue with a free list, so
//    the wheel holds as many nodes as entries were ever pending at once,
//    not a same-tick burst's worth in each of its buckets. Long-delay
//    events (LPL check timers hundreds of milliseconds out) wait in a
//    4-ary "far" heap and migrate into the wheel in horizon-sized batches
//    only when it drains. Invariant: every far entry's time is >=
//    horizon_, every wheel entry's is in [wheel_pos_, horizon_), so the
//    wheel's next entry is always the global minimum among non-due events.
//  * The far heap stores keys and payloads in separate parallel arrays:
//    sift compares touch a dense array of 8-byte time keys (three per
//    cache line vs one 24-byte entry), and the (seq, slot, generation)
//    payload is fetched only on pop — or on the rare same-time tie, where
//    the sequence number breaks the tie exactly. At 1000+ motes the far
//    heap holds one long timer per duty-cycled node, so compare locality
//    is what bounds migration cost.
#ifndef QUANTO_SRC_SIM_EVENT_QUEUE_H_
#define QUANTO_SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <vector>

#include "src/util/callback.h"
#include "src/util/units.h"

namespace quanto {

class EventQueue {
 public:
  using EventId = uint64_t;
  static constexpr EventId kInvalidEvent = 0;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  Tick Now() const { return now_; }

  // Stable address of the clock word, for Clock::NowSource fast paths.
  const Tick* NowPtr() const { return &now_; }

  // Schedules fn at absolute time `time`. Events in the past execute at the
  // current time (never before `Now()`); same-time events run in schedule
  // order. Returns an id usable with Cancel().
  EventId Schedule(Tick time, Callback fn);

  // Schedules fn `delay` ticks from now.
  EventId ScheduleAfter(Tick delay, Callback fn);

  // Cancels a pending event in O(1). Returns true if the event was still
  // pending.
  bool Cancel(EventId id);

  // Executes the next event, advancing the clock. Returns false when empty.
  bool RunNext();

  // Runs every event with time <= end, then sets the clock to `end`.
  // Returns the number of events executed.
  size_t RunUntil(Tick end);

  // Runs for `duration` ticks from the current time.
  size_t RunFor(Tick duration) { return RunUntil(now_ + duration); }

  // Drains the queue completely (use with care: periodic reschedulers never
  // terminate; prefer RunUntil). Returns events executed.
  size_t RunAll();

  bool Empty() const { return live_count_ == 0; }
  size_t PendingCount() const { return live_count_; }
  uint64_t executed_count() const { return executed_count_; }

  // Nodes in the timing wheel's pool: the most wheel entries (live or
  // cancelled but not yet popped) that were ever pending at one time.
  size_t wheel_nodes() const { return wheel_nodes_.size(); }

  // "Nothing pending" sentinel for NextEventLowerBound().
  static constexpr Tick kNoEventTime = ~Tick{0};

  // Lower bound on the time of the next live event, without popping. May
  // be earlier than the true next event while lazily-cancelled entries are
  // still buffered (a stale entry's time is reported as if live). Returns
  // kNoEventTime when nothing is pending at all. The sharded runner uses
  // this to fast-forward across empty lockstep windows; a conservatively
  // early bound only costs an empty window, never correctness.
  Tick NextEventLowerBound() const;

 private:
  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;

  // Slab slot: owns the callback of one live event. Freed slots bump their
  // generation so every previously issued id for the slot goes stale, then
  // chain into the free list for O(1) reuse.
  struct Slot {
    uint32_t generation = 1;
    uint32_t next_free = kNoSlot;
    Callback fn;
  };

  // 4-ary heap entry. Self-contained ordering keys (time, seq) so a stale
  // entry still sorts correctly after its slot has been recycled.
  struct HeapEntry {
    Tick time;
    uint64_t seq;
    uint32_t slot;
    uint32_t generation;
  };

  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) {
      return a.time < b.time;
    }
    return a.seq < b.seq;
  }

  // Width of the timing wheel's window, in ticks (8 ms at the 1 MHz tick
  // rate). Power of two: bucket index is time & (kNearHorizon - 1). Wide
  // enough that wake-up sequences and CCA windows stay inside the wheel,
  // narrow enough that it stays cache-resident (measured best among
  // 1024/8192/32768 on the 128-mote scale bench).
  static constexpr Tick kNearHorizon = 8192;
  static constexpr Tick kWheelMask = kNearHorizon - 1;
  static constexpr size_t kBitmapWords = kNearHorizon / 64;

  // One wheel bucket: the FIFO of entries for one exact tick, a linked
  // list of nodes in wheel_nodes_. A bucket's bitmap bit is set exactly
  // while its list is non-empty.
  static constexpr uint32_t kNoNode = 0xFFFFFFFFu;
  struct WheelNode {
    HeapEntry entry;
    uint32_t next;
  };
  struct Bucket {
    uint32_t head = kNoNode;
    uint32_t tail = kNoNode;
    bool empty() const { return head == kNoNode; }
  };

  // The single shared pop path: extracts the next live event with
  // time <= limit (by move), discarding stale entries on the way. Returns
  // false when no live event is due by `limit`.
  bool PopNext(Tick limit, Tick* time, Callback* fn);

  uint32_t AcquireSlot();
  void ReleaseSlot(uint32_t index);
  void WheelInsert(const HeapEntry& entry);
  // Unlinks the head node of bucket `index` into the free list.
  void WheelPopFront(size_t index);
  const HeapEntry& WheelFront(const Bucket& bucket) const {
    return wheel_nodes_[bucket.head].entry;
  }

  // --- Split-array far heap --------------------------------------------------
  // far_keys_[i] / far_payloads_[i] describe one entry; heap order is
  // (time, seq) with time in the key array and seq consulted only on ties.
  struct FarPayload {
    uint64_t seq;
    uint32_t slot;
    uint32_t generation;
  };
  bool FarEarlier(size_t a, size_t b) const {
    if (far_keys_[a] != far_keys_[b]) {
      return far_keys_[a] < far_keys_[b];
    }
    return far_payloads_[a].seq < far_payloads_[b].seq;
  }
  // True when the far top sorts before `e` by (time, seq).
  bool FarTopEarlier(const HeapEntry& e) const {
    if (far_keys_.front() != e.time) {
      return far_keys_.front() < e.time;
    }
    return far_payloads_.front().seq < e.seq;
  }
  HeapEntry FarTop() const {
    const FarPayload& p = far_payloads_.front();
    return HeapEntry{far_keys_.front(), p.seq, p.slot, p.generation};
  }
  void FarPush(const HeapEntry& entry);
  void FarPopTop();
  // Index of the first occupied bucket at or after `from`'s bucket within
  // the window [from, horizon_), or -1 when the wheel is empty there.
  int NextOccupiedBucket(Tick from) const;
  void MarkBucket(size_t index) {
    occupied_[index / 64] |= uint64_t{1} << (index % 64);
  }
  void ClearBucket(size_t index) {
    occupied_[index / 64] &= ~(uint64_t{1} << (index % 64));
  }

  Tick now_ = 0;
  Tick wheel_pos_ = 0;  // Scan cursor; wheel covers [wheel_pos_, horizon_).
  Tick horizon_ = 0;    // Wheel/far boundary; grows monotonically.
  uint64_t next_seq_ = 0;
  uint64_t executed_count_ = 0;
  size_t live_count_ = 0;
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNoSlot;
  std::vector<Bucket> wheel_ = std::vector<Bucket>(kNearHorizon);
  std::vector<WheelNode> wheel_nodes_;
  uint32_t free_node_ = kNoNode;  // Free list through WheelNode::next.
  uint64_t occupied_[kBitmapWords] = {};
  std::vector<Tick> far_keys_;
  std::vector<FarPayload> far_payloads_;
  // Events due at the current tick, in schedule order. Since the clock
  // never goes backwards and seq is monotone, this FIFO is always sorted
  // by (time, seq) by construction. Vector + take cursor: it fully drains
  // every tick, so the storage resets instead of shifting.
  std::vector<HeapEntry> due_;
  size_t due_taken_ = 0;
  bool DueEmpty() const { return due_taken_ >= due_.size(); }
  const HeapEntry& DueFront() const { return due_[due_taken_]; }
  void DuePop() {
    if (++due_taken_ >= due_.size()) {
      due_.clear();
      due_taken_ = 0;
    }
  }
};

}  // namespace quanto

#endif  // QUANTO_SRC_SIM_EVENT_QUEUE_H_
