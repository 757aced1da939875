#include "src/analysis/trace_merge.h"

#include <algorithm>
#include <chrono>
#include <cstddef>

namespace quanto {

std::vector<MergedEntry> MergeTraces(const std::vector<NodeTrace>& traces) {
  size_t total = 0;
  for (const NodeTrace& t : traces) {
    total += t.entries.size();
  }
  std::vector<MergedEntry> merged;
  merged.reserve(total);

  for (const NodeTrace& t : traces) {
    // Per-stream 32 -> 64 bit unwrap: the counter wrapped whenever a
    // timestamp goes backwards within one node's (monotone) log.
    uint64_t high = 0;
    uint32_t prev = 0;
    bool first = true;
    for (const LogEntry& e : t.entries) {
      if (!first && e.time < prev) {
        high += uint64_t{1} << 32;
      }
      first = false;
      prev = e.time;
      merged.push_back(MergedEntry{high | e.time, t.node, e});
    }
  }

  // Stable: same-key entries (one node, one tick, several samples) keep
  // their log order. The key never involves anything thread-dependent.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const MergedEntry& a, const MergedEntry& b) {
                     if (a.time64 != b.time64) {
                       return a.time64 < b.time64;
                     }
                     return a.node < b.node;
                   });
  return merged;
}

std::vector<LogEntry> MergedEntryStream(
    const std::vector<MergedEntry>& merged) {
  std::vector<LogEntry> entries;
  entries.reserve(merged.size());
  for (const MergedEntry& m : merged) {
    entries.push_back(m.entry);
  }
  return entries;
}

void MergedTraceHasher::Mix(const MergedEntry& m) {
  // FNV-1a, field by field (host-endianness independent).
  uint64_t h = hash_;
  auto mix = [&h](uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (value >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  // Width-escaped fields: values that fit the pre-widening widths mix the
  // same byte count they always did (every historical fingerprint is
  // preserved bit for bit); only values that could not exist before the
  // wide-node refactor mix wider.
  mix(m.node, m.node <= 0xFFFF ? 2 : 4);
  mix(m.entry.type, 1);
  mix(m.entry.res_id, 1);
  mix(m.entry.time, 4);
  mix(m.entry.icount, 4);
  mix(m.entry.payload, m.entry.payload <= 0xFFFFFFFF ? 4 : 6);
  hash_ = h;
}

uint64_t MergedTraceHash(const std::vector<MergedEntry>& merged) {
  MergedTraceHasher hasher;
  for (const MergedEntry& m : merged) {
    hasher.Mix(m);
  }
  return hasher.hash();
}

// --- StreamingTraceMerger ----------------------------------------------------

std::vector<MergedEntry> StreamingTraceMerger::AcquireRunBuffer() {
  if (retired_runs_.empty()) {
    return {};
  }
  std::vector<MergedEntry> buf = std::move(retired_runs_.back());
  retired_runs_.pop_back();
  return buf;
}

void StreamingTraceMerger::PushHead(Stream* stream) {
  const MergedEntry& front = stream->front();
  heads_.push(HeapKey{front.time64, front.node, stream});
}

void StreamingTraceMerger::OnChunk(TraceChunk&& chunk) {
  Stream& stream = streams_[chunk.node];
  if (!stream.ingest.CheckSeq(chunk.seq)) {
    ++seq_gaps_;  // Counted, not fatal, so a test can assert on it.
  }
  if (chunk.entries.empty()) {
    return;  // Contractually never happens; keep the run queue clean.
  }
  std::vector<MergedEntry> run = AcquireRunBuffer();
  run.reserve(chunk.entries.size());
  for (const LogEntry& e : chunk.entries) {
    run.push_back(MergedEntry{stream.ingest.Unwrap(e), chunk.node, e});
  }
  buffered_ += run.size();
  if (buffered_ > peak_buffered_) {
    peak_buffered_ = buffered_;
  }
  bool was_empty = stream.runs.empty();
  stream.runs.push_back(Run{std::move(run), 0});
  if (was_empty) {
    PushHead(&stream);
  }
}

void StreamingTraceMerger::OnRun(uint32_t stream_key,
                                 std::vector<MergedEntry>&& run) {
  if (run.empty()) {
    run.clear();
    retired_runs_.push_back(std::move(run));
    return;
  }
  Stream& stream = streams_[stream_key];
  buffered_ += run.size();
  if (buffered_ > peak_buffered_) {
    peak_buffered_ = buffered_;
  }
  bool was_empty = stream.runs.empty();
  stream.runs.push_back(Run{std::move(run), 0});
  if (was_empty) {
    PushHead(&stream);
  }
}

size_t StreamingTraceMerger::TakeRetiredRuns(
    std::vector<std::vector<MergedEntry>>* out) {
  size_t taken = retired_runs_.size();
  for (std::vector<MergedEntry>& buf : retired_runs_) {
    out->push_back(std::move(buf));
  }
  retired_runs_.clear();
  return taken;
}

void StreamingTraceMerger::EmitFront(Stream* stream) {
  Run& run = stream->runs.front();
  const MergedEntry& m = run.entries[run.pos];
  hasher_.Mix(m);
  ++emitted_;
  --buffered_;
  if (emit_) {
    emit_(m);
  }
  if (++run.pos == run.entries.size()) {
    run.entries.clear();
    retired_runs_.push_back(std::move(run.entries));
    stream->runs.pop_front();
  }
}

void StreamingTraceMerger::AdvanceWatermark(uint64_t watermark) {
  while (!heads_.empty() && heads_.top().time64 < watermark) {
    HeapKey head = heads_.top();
    heads_.pop();
    EmitFront(head.stream);
    if (!head.stream->empty()) {
      PushHead(head.stream);
    }
  }
}

void StreamingTraceMerger::Finish() {
  AdvanceWatermark(~uint64_t{0});
}

// --- ShardRunBuilder ---------------------------------------------------------

void ShardRunBuilder::OnChunk(TraceChunk&& chunk) {
  StreamIngestState& node = nodes_[chunk.node];
  if (!node.CheckSeq(chunk.seq)) {
    ++seq_gaps_;
  }
  for (const LogEntry& e : chunk.entries) {
    run_.push_back(MergedEntry{node.Unwrap(e), chunk.node, e});
  }
  // The sealed buffer goes straight back to the shard's freelist; the
  // logger's next seal reuses it.
  pool_.RecycleEntries(std::move(chunk.entries));
}

size_t ShardRunBuilder::BuildRun(Tick barrier, bool flush_charges) {
  std::chrono::steady_clock::time_point start;
  if (profile_) {
    start = std::chrono::steady_clock::now();
  }
  // An untaken run keeps its entries in front: all of them lie below the
  // previous barrier, and everything appended from here on at or above
  // it. Carry-in comes next: the previous boundary's held-back entries are
  // older than anything sealed now, so appending them before the fresh
  // chunks lets the stable sort preserve per-node log order on equal keys.
  const size_t held = run_.size();
  if (held == 0) {
    run_.swap(carry_);
  } else {
    run_.insert(run_.end(), carry_.begin(), carry_.end());
  }
  carry_.clear();
  stats_.last_flush_us = 0;
  if (flush_charges && !dirty_.empty()) {
    // Fused worker-side charge flush: one sorted pass over the unified
    // dirty list does both per-mote duties of the window. Ascending node
    // id restricted to one shard's queue is exactly the historical full
    // sweep's flush order; the sort cannot change the sealed output (the
    // stable sort below keys on (time64, node), and per-node log order is
    // preserved by each node's chunks arriving contiguously). Walking
    // dirty_ in place is safe: a re-entrant Append during a logger's own
    // flush cannot re-fire the dirty hook (dirty_ stays set until the
    // SealToSink later in the same visit), so nothing grows the list
    // mid-walk.
    std::chrono::steady_clock::time_point fstart;
    if (profile_) {
      fstart = std::chrono::steady_clock::now();
    }
    std::sort(dirty_.begin(), dirty_.end(),
              [](const QuantoLogger* a, const QuantoLogger* b) {
                return a->node() < b->node();
              });
    for (QuantoLogger* logger : dirty_) {
      ++stats_.flush_visits;
      ++seal_calls_;
      logger->FlushCpuCharge();
      logger->SealToSink();  // Lands in run_ via OnChunk.
    }
    ++stats_.flush_passes;
    if (profile_) {
      stats_.last_flush_us = static_cast<uint32_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - fstart)
              .count());
    }
  } else {
    for (QuantoLogger* logger : dirty_) {
      ++seal_calls_;
      logger->SealToSink();  // Lands in run_ via OnChunk.
    }
  }
  dirty_.clear();
  // One sort per shard-window of the fresh tail only, in parallel across
  // shards — this is the work the coordinator's per-entry heap no longer
  // does per mote.
  auto tail = run_.begin() + static_cast<std::ptrdiff_t>(held);
  std::stable_sort(tail, run_.end(),
                   [](const MergedEntry& a, const MergedEntry& b) {
                     if (a.time64 != b.time64) {
                       return a.time64 < b.time64;
                     }
                     return a.node < b.node;
                   });
  // Boundary holdback: entries at or after the barrier (barrier hooks log
  // at exactly the barrier time, after this run was built) move to the
  // next run, keeping consecutive runs of this shard globally sorted.
  auto split = std::lower_bound(
      tail, run_.end(), barrier,
      [](const MergedEntry& m, Tick b) { return m.time64 < b; });
  carry_.assign(split, run_.end());
  run_.erase(split, run_.end());
  entries_carried_ += carry_.size();
  const size_t added = run_.size() - held;
  if (added > 0) {
    ++runs_built_;
    entries_premerged_ += added;
  }
  if (profile_) {
    last_build_us_ = static_cast<uint32_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
  return added;
}

std::vector<MergedEntry> ShardRunBuilder::TakeRun(
    std::vector<MergedEntry>&& next) {
  std::vector<MergedEntry> out = std::move(run_);
  run_ = std::move(next);
  run_.clear();
  return out;
}

}  // namespace quanto
