// Fixed-capacity ring buffer.
//
// The Quanto logger stores samples in a statically sized RAM buffer (800
// entries in the paper's prototype, Table 4). This container mirrors that
// constraint: no allocation after construction, O(1) push/pop, and an
// explicit overflow policy selected by the caller (drop-newest, matching the
// paper's "stop logging when the buffer fills" RAM mode, or overwrite-oldest
// for continuous tails).
//
// Hot-path notes: the logger pushes one entry per tracked event, so index
// arithmetic matters at many-node scale. Storage is rounded up to a power
// of two and indices advance with a mask instead of a modulo (the logical
// capacity is still exactly what the caller asked for), and bulk
// Drain/Snapshot copy the retained range as at most two contiguous spans
// instead of element-by-element.
//
// Restart when drained: whenever a Pop or a drain empties the buffer,
// both ends go back to the first slot. A streamed logger's ring is
// drained every lockstep window, so it keeps rewriting the slots one
// window needs instead of walking (and page-faulting in) all of its
// storage over the run. Order is unaffected: an empty buffer has nothing
// to keep in place.
//
// Storage backing: by default the buffer owns a heap block
// (value-initialized, as the old std::vector backing was). For
// trivially-copyable T a construction Arena can back the storage instead
// — uninitialized and arena-lifetime — which is what lets a 262,144-mote
// network pre-size gigabytes of log rings without zeroing (and
// page-faulting) them upfront; see src/util/arena.h.
#ifndef QUANTO_SRC_UTIL_RING_BUFFER_H_
#define QUANTO_SRC_UTIL_RING_BUFFER_H_

#include <cstddef>
#include <type_traits>
#include <vector>

#include "src/util/arena.h"

namespace quanto {

template <typename T>
class RingBuffer {
 public:
  enum class OverflowPolicy {
    kDropNewest,       // Reject pushes once full (paper's RAM logging mode).
    kOverwriteOldest,  // Keep the most recent `capacity` items.
  };

  explicit RingBuffer(size_t capacity,
                      OverflowPolicy policy = OverflowPolicy::kDropNewest,
                      Arena* arena = nullptr)
      : slots_(RoundUpPow2(capacity)),
        mask_(slots_ - 1),
        capacity_(capacity),
        policy_(policy) {
    if (arena != nullptr) {
      static_assert(std::is_trivially_copyable_v<T>,
                    "arena backing skips element construction");
      data_ = arena->NewArray<T>(slots_);
    } else {
      owned_.resize(slots_);
      data_ = owned_.data();
    }
  }

  RingBuffer(const RingBuffer&) = delete;
  RingBuffer& operator=(const RingBuffer&) = delete;

  size_t capacity() const { return capacity_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == capacity_; }

  // Number of pushes rejected (kDropNewest) or items clobbered
  // (kOverwriteOldest) since construction or the last Clear().
  size_t dropped() const { return dropped_; }

  // Appends an item. Returns false if the item was rejected because the
  // buffer is full under kDropNewest.
  bool Push(const T& item) {
    if (full()) {
      ++dropped_;
      if (policy_ == OverflowPolicy::kDropNewest) {
        return false;
      }
      // Overwrite the oldest element: append at tail and advance both
      // ends. (The write must go to tail_, not head_ — with storage
      // rounded up to a power of two they no longer coincide when the
      // logical capacity is full.)
      data_[tail_] = item;
      tail_ = Advance(tail_);
      head_ = Advance(head_);
      return true;
    }
    data_[tail_] = item;
    tail_ = Advance(tail_);
    ++size_;
    return true;
  }

  // Removes and returns the oldest item. Behaviour is undefined when empty;
  // callers must check empty() first.
  T Pop() {
    T item = data_[head_];
    head_ = Advance(head_);
    if (--size_ == 0) {
      Restart();
    }
    return item;
  }

  const T& Front() const { return data_[head_]; }

  // Random access by age: index 0 is the oldest retained element.
  const T& At(size_t index) const { return data_[(head_ + index) & mask_]; }

  void Clear() {
    Restart();
    size_ = 0;
    dropped_ = 0;
  }

  // Copies the retained elements, oldest first.
  std::vector<T> Snapshot() const {
    std::vector<T> out;
    out.reserve(size_);
    AppendTo(&out, size_);
    return out;
  }

  // Appends the retained elements (oldest first) to `out` without removing
  // them, as at most two contiguous spans.
  void SnapshotInto(std::vector<T>* out) const {
    out->reserve(out->size() + size_);
    AppendTo(out, size_);
  }

  // Moves up to `max_items` of the oldest elements into `out` (appended),
  // removing them from the buffer. Returns how many were moved. The copy
  // happens as at most two contiguous spans.
  size_t DrainInto(std::vector<T>* out, size_t max_items) {
    size_t n = max_items < size_ ? max_items : size_;
    if (n == 0) {
      return 0;
    }
    AppendTo(out, n);
    head_ = (head_ + n) & mask_;
    size_ -= n;
    if (size_ == 0) {
      Restart();
    }
    return n;
  }

 private:
  static size_t RoundUpPow2(size_t n) {
    size_t p = 1;
    while (p < n) {
      p <<= 1;
    }
    return p;
  }

  size_t Advance(size_t i) const { return (i + 1) & mask_; }

  // Moves both ends of an empty buffer back to the storage base.
  void Restart() {
    head_ = 0;
    tail_ = 0;
  }

  // Appends the oldest `n` retained elements (n <= size_) to `out` as one
  // or two contiguous spans.
  void AppendTo(std::vector<T>* out, size_t n) const {
    size_t first = slots_ - head_;
    if (first > n) {
      first = n;
    }
    out->insert(out->end(), data_ + head_, data_ + head_ + first);
    if (n > first) {
      out->insert(out->end(), data_, data_ + (n - first));
    }
  }

  size_t slots_;              // Power-of-two physical storage size.
  size_t mask_;
  size_t capacity_;
  OverflowPolicy policy_;
  std::vector<T> owned_;      // Heap backing (empty when arena-backed).
  T* data_ = nullptr;         // Points at owned_ or arena storage.
  size_t head_ = 0;
  size_t tail_ = 0;
  size_t size_ = 0;
  size_t dropped_ = 0;
};

}  // namespace quanto

#endif  // QUANTO_SRC_UTIL_RING_BUFFER_H_
