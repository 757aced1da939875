// Streaming trace collection: the chunk hand-off boundary between the
// per-mote logger and whoever consumes traces (the incremental merger, a
// spill file, a test recorder).
//
// The batch collection model — every QuantoLogger keeps its whole trace in
// RAM (`archive_`) until the run ends and `CollectNodeTraces` copies it
// out — makes per-mote memory O(run length), which is the binding
// constraint on many-thousand-mote runs. The streaming model replaces the
// central full-trace copy with an incremental hand-off: the logger seals
// *chunks* (time-sorted runs of its own entries) and pushes them to a
// TraceSink as the simulation produces them, so a mote's resident trace is
// bounded by the seal interval (one lockstep window in the sharded
// runner), not by the run.
//
// Determinism contract: chunks are sealed by a thread that owns the logger
// at that moment — on sharded runs the shard's own worker, sealing its
// dirty loggers at each window barrier during the pre-barrier phase (see
// ShardRunBuilder in src/analysis/trace_merge.h); on a single engine the
// caller's thread, sealing every mote in mote order. Either way the chunk
// sequence each consumer observes is a pure function of the simulated
// behaviour, never of the worker-thread count.
#ifndef QUANTO_SRC_CORE_TRACE_SINK_H_
#define QUANTO_SRC_CORE_TRACE_SINK_H_

#include <cstdint>
#include <vector>

#include "src/core/activity.h"
#include "src/core/log_entry.h"

namespace quanto {

// A sealed run of one node's log entries, in log order (non-decreasing
// unwrapped timestamps — each node's log is monotone by construction).
// Chunks from one node carry consecutive `seq` numbers so a sink can
// assert it missed nothing.
struct TraceChunk {
  node_id_t node = 0;
  uint64_t seq = 0;
  std::vector<LogEntry> entries;
};

// Consumes sealed chunks. One sink instance typically serves every logger
// in the network (the chunk carries its node id); implementations are
// host-side observers and must not touch simulated state.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  // Takes ownership of a sealed chunk. Entries within the chunk are in
  // log order; chunks from one node arrive in seq order. Never called
  // with an empty chunk.
  virtual void OnChunk(TraceChunk&& chunk) = 0;
};

// Freelist of sealed-entry buffers shared between whoever seals chunks
// (loggers, via QuantoLogger::SetChunkPool) and whoever retires them (the
// pre-merge builder, after copying the entries out): a retired buffer
// keeps its capacity and backs the next seal instead of being freed, so
// the steady-state seal -> merge -> recycle loop performs no allocation
// once every buffer has grown to its working size.
//
// Deliberately NOT thread-safe — single-owner discipline instead: the
// sharded runner gives each shard its own pool, touched by the shard's
// worker during the pre-barrier seal phase and by nothing else.
class TraceChunkPool {
 public:
  // Returns a retired buffer (cleared, capacity retained) or a fresh
  // empty vector when the freelist is dry.
  std::vector<LogEntry> AcquireEntries() {
    ++acquired_;
    if (free_.empty()) {
      ++allocated_;
      return {};
    }
    std::vector<LogEntry> buf = std::move(free_.back());
    free_.pop_back();
    return buf;
  }

  // Returns a consumed buffer to the freelist. The contents are cleared;
  // the capacity is what makes the next AcquireEntries allocation-free.
  void RecycleEntries(std::vector<LogEntry>&& buf) {
    ++recycled_;
    buf.clear();
    free_.push_back(std::move(buf));
  }

  // Buffers handed out in total, and how many of those could not reuse a
  // retired buffer (i.e. were created fresh). `allocated()` going flat
  // while `acquired()` keeps climbing is the allocation-free steady state
  // the recycling tests assert.
  uint64_t acquired() const { return acquired_; }
  uint64_t allocated() const { return allocated_; }
  uint64_t recycled() const { return recycled_; }
  size_t pooled() const { return free_.size(); }

 private:
  std::vector<std::vector<LogEntry>> free_;
  uint64_t acquired_ = 0;
  uint64_t allocated_ = 0;
  uint64_t recycled_ = 0;
};

}  // namespace quanto

#endif  // QUANTO_SRC_CORE_TRACE_SINK_H_
