// Merge-aware trace ingestion: deterministic, timestamp-stable merging of
// per-node Quanto logs into one network-wide stream.
//
// Under the sharded simulation core every mote still logs into its own
// buffer, and shards execute their lockstep windows on whatever worker
// thread happens to own them. The merge defined here is what makes the
// analysis input independent of that: entries are ordered by their
// unwrapped 64-bit timestamp, ties broken by node id, then by each node's
// own log order. Every key component is a simulation-determined value —
// nothing about thread scheduling can reach it — so a 1-thread run and an
// N-thread run of the same configuration produce byte-identical merged
// streams (asserted by tests/sharded_determinism_test.cc, and the basis
// for byte-identical quanto_report output at any thread count).
//
// The 32-bit log timestamps wrap (Figure 17's free-running counters); each
// stream is unwrapped independently before merging, exactly as the
// streaming pipeline's stage 1 does.
#ifndef QUANTO_SRC_ANALYSIS_TRACE_MERGE_H_
#define QUANTO_SRC_ANALYSIS_TRACE_MERGE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <queue>
#include <vector>

#include "src/core/activity.h"
#include "src/core/log_entry.h"
#include "src/core/logger.h"  // ShardRunBuilder seals QuantoLoggers.
#include "src/core/trace_sink.h"
#include "src/util/units.h"

namespace quanto {

// One node's log as collected from its QuantoLogger (Trace()).
struct NodeTrace {
  node_id_t node = 0;
  std::vector<LogEntry> entries;
};

// One merged-stream record: the original entry plus its source node and
// its unwrapped timestamp.
struct MergedEntry {
  uint64_t time64 = 0;
  node_id_t node = 0;
  LogEntry entry{};
};

// Collects per-node logs from any network-like container exposing
// size(), mote(i).id() and mote(i).logger().Trace() — ScaleNetwork does.
// Template so the analysis layer stays independent of the apps layer.
template <typename Network>
std::vector<NodeTrace> CollectNodeTraces(const Network& net) {
  std::vector<NodeTrace> traces;
  traces.reserve(net.size());
  for (size_t i = 0; i < net.size(); ++i) {
    traces.push_back(
        NodeTrace{net.mote(i).id(), net.mote(i).logger().Trace()});
  }
  return traces;
}

// Merges per-node traces into (time64, node, per-node order) order. The
// result does not depend on the order of `traces` (node ids are assumed
// unique); each node's internal order is preserved exactly.
std::vector<MergedEntry> MergeTraces(const std::vector<NodeTrace>& traces);

// The merged stream's raw entries, for single-stream consumers
// (SerializeTrace / WriteTraceFile / quanto_report). Timestamps stay as
// logged (wrapped 32-bit); the merge order is globally time-sorted, which
// is what those consumers expect of a single log.
std::vector<LogEntry> MergedEntryStream(const std::vector<MergedEntry>& merged);

// FNV-1a fingerprint over (node, entry fields) in merge order —
// host-independent, so runs can assert sequence identity without carrying
// full traces around.
uint64_t MergedTraceHash(const std::vector<MergedEntry>& merged);

// Per-stream chunk-ingest state shared by the streaming merger's chunk
// door and the shard pre-merge builder: the 32 -> 64 bit timestamp unwrap
// (exactly MergeTraces' rule — the counter wrapped whenever a timestamp
// goes backwards within one node's monotone log) and the chunk-sequence
// continuity check. One definition so the two pipelines can never drift
// apart — their hash-identity contract depends on unwrapping identically.
struct StreamIngestState {
  uint64_t high = 0;
  uint32_t prev = 0;
  bool first = true;
  uint64_t next_seq = 0;

  // Unwraps one entry's timestamp, advancing the wrap state. Entries
  // must be presented in log order.
  uint64_t Unwrap(const LogEntry& e) {
    if (!first && e.time < prev) {
      high += uint64_t{1} << 32;
    }
    first = false;
    prev = e.time;
    return high | e.time;
  }

  // True when `seq` continues the chunk sequence (a gap means someone
  // dropped a sealed chunk on the floor, which would silently corrupt
  // the merge — loggers stamp consecutive seqs from 0). Advances the
  // expectation either way so one gap is counted once.
  bool CheckSeq(uint64_t seq) {
    bool ok = seq == next_seq;
    next_seq = seq + 1;
    return ok;
  }
};

// FNV-1a accumulator matching MergedTraceHash entry for entry, so a
// streamed merge can fingerprint its output without materializing it.
class MergedTraceHasher {
 public:
  void Mix(const MergedEntry& m);
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

// Incremental k-way merge: the streaming counterpart of MergeTraces.
//
// Input arrives online through one of two doors:
//  * OnRun: one stream per *shard*, entries already unwrapped, sorted and
//    pre-merged by a ShardRunBuilder on the shard's worker thread — the
//    sharded runner's streamed collection. The merge heap then holds
//    k = shards heads instead of k = motes.
//  * OnChunk (it is a TraceSink, so loggers in bounded-archive mode feed
//    it directly): one stream per *node*, entries unwrapped to 64-bit
//    time on ingest — single-engine streamed collection, where there are
//    no shards to pre-merge across.
// The emitted sequence — order, content and FNV fingerprint — is
// identical either way, and identical to what
// MergeTraces(CollectNodeTraces(net)) would produce on the same logs: the
// merge key is (unwrapped time, node, per-node log order), nothing else.
// One merger instance must stick to one door (stream keys are node ids on
// one and shard ids on the other).
//
// Watermark protocol: the producer seals every dirty logger at a window
// barrier T, then calls AdvanceWatermark(T). Entries strictly below T are
// final — every stream flushed at T can only append entries at or after
// T — so they merge and emit immediately; entries at exactly T wait one
// more window (barrier hooks themselves may still log at T). A stream
// with nothing buffered never blocks emission: after its seal at T,
// silence means it has nothing below T (the idle-shard case). Finish()
// declares end of input and drains the remainder. On sharded runs the
// OnRun + AdvanceWatermark calls are made by the EmissionPipeline
// consumer thread, off the window barrier; see
// src/analysis/emission_pipeline.h for the ownership rules.
//
// Peak memory is O(entries per watermark interval), not O(run). Consumed
// run buffers retire into a freelist: OnChunk reuses them, and
// TakeRetiredRuns hands them back to the producer.
class StreamingTraceMerger : public TraceSink {
 public:
  // Called once per merged entry, in merge order. Optional: the merger
  // always maintains count + fingerprint; consumers that need the entries
  // themselves (spill writers, streaming regression) attach an emit hook.
  using EmitFn = std::function<void(const MergedEntry&)>;

  StreamingTraceMerger() = default;
  explicit StreamingTraceMerger(EmitFn emit) : emit_(std::move(emit)) {}

  void SetEmit(EmitFn emit) { emit_ = std::move(emit); }

  // TraceSink: accepts one sealed chunk. Entries are unwrapped to 64-bit
  // time on ingest (per-stream, exactly as MergeTraces does).
  void OnChunk(TraceChunk&& chunk) override;

  // Accepts one pre-merged run for stream `stream` (a shard id). The run
  // must be sorted by (time64, node, per-node log order), and consecutive
  // runs of one stream must be non-decreasing in (time64, node) — the
  // ShardRunBuilder guarantees both by sorting each window's entries and
  // holding entries at or after the barrier back into the next run.
  // Empty runs are accepted and retire immediately.
  void OnRun(uint32_t stream, std::vector<MergedEntry>&& run);

  // Appends every fully-consumed run buffer (cleared, capacity intact) to
  // `out` for the producer to build its next runs in; returns how many.
  // In the loop BuildRun, TakeRun(retired buffer), OnRun,
  // AdvanceWatermark, TakeRetiredRuns, a buffer is allocated only when a
  // run is taken and none has retired yet, and grows only when it carries
  // a larger run than before. The off-barrier emission consumer
  // (EmissionPipeline) harvests with this while it owns the merger, then
  // ferries the buffers back to the shard builders through its own
  // mutex-protected return queue — the merger itself stays
  // single-threaded (exactly one thread may touch it at a time; the
  // pipeline's queue and Drain() provide the ordering).
  size_t TakeRetiredRuns(std::vector<std::vector<MergedEntry>>* out);

  // Every stream is complete strictly below `watermark` (unwrapped time):
  // emits all merged entries with time64 < watermark.
  void AdvanceWatermark(uint64_t watermark);

  // No more chunks will arrive: emits everything still buffered. The
  // merger can keep accepting chunks afterwards (a new collection round),
  // but ordering is only guaranteed within rounds.
  void Finish();

  uint64_t emitted() const { return emitted_; }
  uint64_t hash() const { return hasher_.hash(); }

  // Entries currently buffered across all streams, and the high-water
  // mark — the streamed replacement for "how big would the batch merge
  // vector have been".
  size_t buffered() const { return buffered_; }
  size_t peak_buffered() const { return peak_buffered_; }
  size_t stream_count() const { return streams_.size(); }
  // Chunks that arrived out of sequence (should be 0 in a healthy run).
  uint64_t seq_gaps() const { return seq_gaps_; }

 private:
  // One ingested run: a sorted span of merged entries consumed from
  // `pos`. OnChunk wraps each chunk into a single-chunk run so both doors
  // share the emission path (and the buffer recycling).
  struct Run {
    std::vector<MergedEntry> entries;
    size_t pos = 0;
  };

  struct Stream {
    std::deque<Run> runs;
    // Unwrap + chunk continuity (OnChunk door only).
    StreamIngestState ingest;

    bool empty() const { return runs.empty(); }
    const MergedEntry& front() const {
      return runs.front().entries[runs.front().pos];
    }
  };

  struct HeapKey {
    uint64_t time64;
    node_id_t node;
    Stream* stream;
    bool operator>(const HeapKey& other) const {
      if (time64 != other.time64) {
        return time64 > other.time64;
      }
      return node > other.node;
    }
  };

  void EmitFront(Stream* stream);
  void PushHead(Stream* stream);
  std::vector<MergedEntry> AcquireRunBuffer();

  EmitFn emit_;
  // Keyed by node id (OnChunk) or shard id (OnRun) — never both in one
  // instance.
  std::map<uint32_t, Stream> streams_;
  // One heap element per non-empty stream (pushed when a stream turns
  // non-empty, reinserted after each pop while entries remain).
  std::priority_queue<HeapKey, std::vector<HeapKey>, std::greater<HeapKey>>
      heads_;
  // Fully-consumed run buffers awaiting reuse (OnChunk ingest or
  // TakeRetiredRuns).
  std::vector<std::vector<MergedEntry>> retired_runs_;
  uint64_t emitted_ = 0;
  size_t buffered_ = 0;
  size_t peak_buffered_ = 0;
  uint64_t seq_gaps_ = 0;
  MergedTraceHasher hasher_;
};

// Per-shard pre-merge: the worker-side half of the parallel barrier
// pipeline.
//
// One builder serves the loggers of one shard. During the window the
// loggers mark themselves on the builder's dirty list through
// QuantoLogger's on-first-append hook (an idle mote costs nothing); in
// the pre-barrier phase — still inside the window barrier, on the shard's
// own worker thread, all shards in parallel — BuildRun seals exactly the
// dirty loggers and merges their chunks into one run sorted by
// (time64, node, log order). The same dirty list doubles as the batched
// CPU self-charge flush list (the sets provably coincide under batch
// charging), so the fused BuildRun(barrier, /*flush_charges=*/true) form
// clears the window's whole per-mote residue — charge flush + seal — in
// one sorted pass, leaving the serial barrier section only O(shards)
// hand-off work.
//
// Boundary holdback is what makes the coordinator's k-way merge exact:
// entries at or after the sealing barrier T (barrier hooks may log at
// exactly T, after this shard's run was already built) are held back into
// the next window's run. Every run therefore lies strictly below its
// barrier and at or above the previous one, so the concatenation of a
// shard's runs is globally sorted — precisely the StreamingTraceMerger
// OnRun precondition — and no entry emits later than it would if every
// logger sealed straight into the merger (the watermark holds entries at
// T for one window anyway).
//
// A run need not be taken every window. An untaken run stays, and the
// next BuildRun appends that window's entries to it: everything sealed
// after barrier T lies at or above T, above every entry already held, so
// only the freshly sealed tail needs sorting and splitting, and the held
// run plus the new tail is exactly the sorted run one BuildRun over both
// windows would have made. The caller takes the run once it is worth a
// hand-off.
//
// Thread discipline: everything here is owned by the shard — touched by
// the shard's worker during windows and the pre-barrier phase, and by the
// coordinator only between windows (TakeRun, dirty marks from
// barrier-hook logging). The window barrier orders the two; there is
// no locking.
class ShardRunBuilder : public TraceSink {
 public:
  explicit ShardRunBuilder(size_t shard) : shard_(shard) {}

  size_t shard() const { return shard_; }

  // Chunk-buffer freelist shared with this shard's loggers
  // (QuantoLogger::SetChunkPool): OnChunk recycles every sealed buffer
  // here after copying its entries into the run.
  TraceChunkPool& pool() { return pool_; }
  const TraceChunkPool& pool() const { return pool_; }

  // QuantoLogger::SetDirtyHook adapter; ctx is the builder.
  static void MarkDirtyHook(void* ctx, QuantoLogger* logger) {
    static_cast<ShardRunBuilder*>(ctx)->AddDirty(logger);
  }
  void AddDirty(QuantoLogger* logger) { dirty_.push_back(logger); }
  size_t dirty_count() const { return dirty_.size(); }

  // Seals every dirty logger (and only those) onto the end of the run:
  // carry-in of the previous boundary, per-node unwrap + seq check on
  // each sealed chunk, one stable sort of that fresh tail, boundary
  // holdback at `barrier`. Entries of an untaken run stay in front of
  // the tail. Returns the entries this call added to the run. Pass the
  // final simulation time + 1 (or ~Tick{0}) as the last barrier to flush
  // the carry.
  //
  // With `flush_charges` set, the dirty pass is the *fused* worker-side
  // charge flush: the dirty list is first sorted ascending by node id —
  // restricted to one shard's event queue that is exactly the historical
  // full sweep's flush order — and each dirty logger is visited once,
  // FlushCpuCharge then SealToSink. Under batch charging the log-dirty
  // and charge-dirty sets coincide (see QuantoLogger::SetChargeDirtyHook),
  // so this one list covers both duties; a flush only ever touches its
  // own mote's queue, on the shard's own worker, so no lock is needed and
  // the simulation stays event-identical to the serial-hook flush. The
  // sort is order-neutral for the run itself (the stable sort below keys
  // on (time64, node) and per-node order rides the per-chunk appends), so
  // sealed content is byte-identical with the flag on or off. The
  // end-of-run tail call must pass false — the serial paths never flush
  // at the tail, and visit parity with them is counter-asserted.
  size_t BuildRun(Tick barrier, bool flush_charges = false);

  bool HasRun() const { return !run_.empty(); }
  // Entries in the run, including those of windows it was left untaken.
  size_t run_size() const { return run_.size(); }
  // Moves the built run out (for StreamingTraceMerger::OnRun) and puts
  // `next` in its place for the next BuildRun to fill: a consumed run
  // buffer handed back by the caller, or an empty vector when none is
  // waiting. A builder holds no spare buffers of its own, so buffers go
  // only where runs are taken and a quiet shard hoards nothing.
  std::vector<MergedEntry> TakeRun(std::vector<MergedEntry>&& next = {});

  // TraceSink: receives the chunks the dirty loggers seal inside
  // BuildRun.
  void OnChunk(TraceChunk&& chunk) override;

  // SealToSink calls issued — one per dirty logger per window, never one
  // per mote ("idle motes are never swept"; the dirty-list tests pin it).
  uint64_t seal_calls() const { return seal_calls_; }
  // BuildRun calls that added entries to the run, and the entries added.
  uint64_t runs_built() const { return runs_built_; }
  uint64_t entries_premerged() const { return entries_premerged_; }
  // Boundary entries held back for the next run, cumulatively.
  uint64_t entries_carried() const { return entries_carried_; }
  // Per-node chunk-sequence gaps observed on ingest (0 in a healthy run).
  uint64_t seq_gaps() const { return seq_gaps_; }

  // Dirty loggers visited by fused flush passes, cumulatively — the
  // fused-path counterpart of ScaleNetwork::charge_flush_visits(), and
  // asserted equal to the serial-hook path's count (one pass per window,
  // not two).
  uint64_t charge_flush_visits() const { return stats_.flush_visits; }

  // Barrier profiling: when enabled, BuildRun records its own duration;
  // the coordinator reads the value after the barrier (the window barrier
  // orders the write).
  void EnableProfiling(bool on) { profile_ = on; }
  uint32_t last_build_us() const { return last_build_us_; }
  // Duration of this window's fused flush pass: the dirty-list sort plus
  // the whole flush+seal walk (the two are interleaved per visit, so the
  // walk is timed as one — per-logger clock reads would cost more than
  // the flush they measure). A subset of last_build_us, split out so the
  // benches can report the fused flush on its own. 0 when BuildRun ran
  // unfused.
  uint32_t last_flush_us() const { return stats_.last_flush_us; }

 private:
  // Fused-flush bookkeeping on its own cache line, in the ShardDrainStats
  // style: written only by the shard's worker inside BuildRun (or the
  // coordinator between windows, which is then the only writer anyway)
  // and read by the coordinator after the barrier — keeping the per-window
  // writes of neighbouring shards' builders from false-sharing when all
  // shards flush in parallel.
  struct alignas(64) FlushStats {
    uint64_t flush_visits = 0;
    uint64_t flush_passes = 0;
    uint32_t last_flush_us = 0;  // This window's fused-flush wall time.
  };

  size_t shard_;
  std::map<node_id_t, StreamIngestState> nodes_;
  std::vector<QuantoLogger*> dirty_;
  std::vector<MergedEntry> run_;    // The built run, untaken so far.
  std::vector<MergedEntry> carry_;  // Held-back boundary entries.
  TraceChunkPool pool_;
  uint64_t seal_calls_ = 0;
  uint64_t runs_built_ = 0;
  uint64_t entries_premerged_ = 0;
  uint64_t entries_carried_ = 0;
  uint64_t seq_gaps_ = 0;
  bool profile_ = false;
  uint32_t last_build_us_ = 0;
  FlushStats stats_;
};

}  // namespace quanto

#endif  // QUANTO_SRC_ANALYSIS_TRACE_MERGE_H_
