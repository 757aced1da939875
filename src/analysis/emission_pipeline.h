// Off-barrier emission: the merge/regression/spill backend moved off the
// window critical path onto a dedicated consumer thread.
//
// The parallel barrier pipeline (PR 5) left one serial stage inside every
// window barrier: the coordinator's k-way hand-off — OnRun ingest of each
// shard's pre-merged run, the watermark advance that emits (and hashes,
// and spills, and feeds the streaming regression) everything below the
// barrier. At 16 384 motes that is ~2.6 ms p99 per window during which no
// shard may start the next window. Nothing in that stage touches
// simulated state, so nothing forces it to run *inside* the barrier: the
// runs are sealed, the watermark is final, and the next window cannot
// change either.
//
// EmissionPipeline is the decoupling, and the sharded runner's only
// streamed collection path. Each submission is one *hand-off*: the
// shards' runs plus the new watermark. The sharded runner does not hand
// off every window: its builders append window after window to their
// runs, and a barrier hands them off once together they hold
// ScaleNetwork::kHandOffEntries entries (and the end-of-run tail always),
// so one lock and one consumer wake-up serve many small windows. The
// coordinator queues a hand-off and immediately releases the shards into
// the next window; the consumer thread drains the queue in FIFO order,
// making the calls a barrier-side merge would make — OnRun per run in
// ascending shard order, then AdvanceWatermark — so the emitted sequence,
// FNV fingerprint, spill bytes and regression feed equal those of the
// batch merge of the same run.
// Run buffers retire through the merger's freelist into a shared return
// queue, and the producer hands them back at a later barrier, one to each
// builder whose run it takes. A hand-off carries at most one run per
// shard, so the buffers in circulation stay bounded by the runs in
// flight, never by the run's length: at most shards × (max_depth + 4) —
// max_depth queued hand-offs, the hand-off being merged, the one being
// submitted, and each builder's run and carry buffers.
//
// Ownership and thread discipline:
//  * The merger (and everything reachable from its emit hook — the
//    FileTraceSink spill writer, the StreamingPipeline regression feed)
//    belongs to the consumer thread from construction until Drain()
//    returns (or the destructor joins). No other thread may touch them in
//    between.
//  * SubmitWindow / TakeRetiredRun / TakeRetiredBatch are producer-side:
//    called by the coordinator at window barriers (one thread at a time).
//    SubmitWindow keeps its name, but what it queues is a hand-off, which
//    may span many windows.
//  * Drain() blocks until every submitted hand-off is consumed and
//    establishes the happens-before edge that makes the merger (hash,
//    counters, Finish) safe to read from the caller's thread.
//
// Backpressure: the queue holds at most `max_depth` hand-offs (not
// windows). When the consumer falls that many hand-offs behind,
// SubmitWindow blocks the coordinator until a slot frees — bounding
// buffered entries to O(max_depth hand-offs) so 16 384-mote memory stays
// flat — and the time spent blocked is accounted in consumer_stall_us().
// runs_queued_peak() records the high-water mark of queued run buffers.
//
// Teardown: the destructor asks the consumer to finish the remaining
// queue and joins it — early teardown (no Drain) loses no merge output
// and leaves no pooled buffer in flight.
//
// When the downstream sink is an index-writing FileTraceSink
// (Options::write_index), the per-segment footer accumulation
// (TraceIndexBuilder inside the sink's Append) rides this consumer
// thread too: indexing a spill costs the window barrier nothing — the
// same zero-barrier-cost argument as the merge itself.
#ifndef QUANTO_SRC_ANALYSIS_EMISSION_PIPELINE_H_
#define QUANTO_SRC_ANALYSIS_EMISSION_PIPELINE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "src/analysis/trace_merge.h"

namespace quanto {

class EmissionPipeline {
 public:
  // One shard's pre-merged run for one hand-off (ShardRunBuilder::TakeRun
  // output, tagged with the merger stream key).
  struct ShardRun {
    uint32_t shard = 0;
    std::vector<MergedEntry> run;
  };

  // Hand-offs the queue may hold before SubmitWindow blocks the producer.
  static constexpr size_t kDefaultMaxDepth = 4;

  // The pipeline does not own the merger object (callers build the merger
  // and its emit hook themselves) but owns exclusive access to it while
  // running — see the thread discipline above. Spawns the consumer thread
  // immediately.
  explicit EmissionPipeline(StreamingTraceMerger* merger,
                            size_t max_depth = kDefaultMaxDepth);
  // Finishes the remaining queue, then joins the consumer.
  ~EmissionPipeline();

  EmissionPipeline(const EmissionPipeline&) = delete;
  EmissionPipeline& operator=(const EmissionPipeline&) = delete;

  StreamingTraceMerger* merger() { return merger_; }
  size_t max_depth() const { return max_depth_; }

  // Hands one hand-off to the consumer: its runs (ascending shard order —
  // the consumer preserves submission order within and across batches)
  // and the watermark to advance to after ingesting them. An empty `runs`
  // is a watermark-only hand-off; watermark advances are what emit
  // buffered entries, so the last one must be submitted. Blocks when the
  // queue is full (backpressure). `profile` asks the consumer to record
  // this hand-off's merge time into merge_us_samples().
  void SubmitWindow(std::vector<ShardRun>&& runs, uint64_t watermark,
                    bool profile);

  // Producer-side freelists: run buffers the consumer fully emitted
  // (cleared, capacity intact), to pass to ShardRunBuilder::TakeRun for
  // the builder's next BuildRun, and consumed batch vectors ready for the
  // next SubmitWindow. Both return false when empty — the producer then
  // starts with a fresh buffer.
  bool TakeRetiredRun(std::vector<MergedEntry>* out);
  bool TakeRetiredBatch(std::vector<ShardRun>* out);

  // Blocks until every submitted hand-off has been fully consumed. After
  // Drain returns — and until the next SubmitWindow — the caller may read
  // the merger directly (hash, emitted, Finish) and any state the emit
  // hook wrote. The tail-flush ordering is: seal everything, submit the
  // final watermark, Drain, then read the final hash.
  void Drain();

  // Total microseconds SubmitWindow spent blocked on a full queue —
  // the only way the backend can reach back into the window critical
  // path. 0 in a healthy overlap.
  uint64_t consumer_stall_us() const;
  // High-water mark of run buffers queued and not yet consumed.
  size_t runs_queued_peak() const;
  // Hand-offs submitted and consumed (a hand-off may span many windows).
  uint64_t windows_submitted() const;
  uint64_t windows_consumed() const;
  // Consumer-side merge time per profiled hand-off (OnRun ingest +
  // watermark emission + hashing + emit hook), measured off the barrier.
  // Copy; call after Drain for a complete series.
  std::vector<uint32_t> merge_us_samples() const;

 private:
  struct WindowBatch {
    std::vector<ShardRun> runs;
    uint64_t watermark = 0;
    bool profile = false;
  };

  void ConsumerLoop();

  StreamingTraceMerger* merger_;
  size_t max_depth_;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;   // Consumer: queue non-empty or stop.
  std::condition_variable cv_space_;  // Producer: queue below max_depth.
  std::condition_variable cv_idle_;   // Drain: queue empty and not busy.
  std::deque<WindowBatch> queue_;
  std::vector<std::vector<MergedEntry>> retired_runs_;
  std::vector<std::vector<ShardRun>> retired_batches_;
  std::vector<uint32_t> merge_us_samples_;
  size_t queued_runs_ = 0;
  size_t runs_queued_peak_ = 0;
  uint64_t consumer_stall_us_ = 0;
  uint64_t windows_submitted_ = 0;
  uint64_t windows_consumed_ = 0;
  bool busy_ = false;   // Consumer is processing a popped batch.
  bool stop_ = false;   // Finish the queue, then exit.
  std::thread consumer_;
};

}  // namespace quanto

#endif  // QUANTO_SRC_ANALYSIS_EMISSION_PIPELINE_H_
