// Indexed, parallel, bounded-memory reads of spill files — the query
// front half of the trace store (ROADMAP open item 4).
//
// TraceFileReader opens a spill file once, probes and validates the
// trailing segment index (src/analysis/trace_index.h) and then serves
// reads against it:
//  * ReadAll — the full entry stream. Indexed files decode segment by
//    segment via pread into per-worker buffers (peak memory: output plus
//    one segment per reader thread, never the whole-file blob), with N
//    threads claiming disjoint segments. Segments partition the merged
//    stream in (time64, node, log-order) order — segment k wholly
//    precedes segment k+1 — so each decoded segment lands in a disjoint,
//    precomputed range of the output and the result is byte-identical to
//    the linear scan at any thread count, by construction rather than by
//    re-merging.
//  * ReadFiltered — a TraceQuery (time range / activity origins /
//    activity labels). The index prunes to intersecting segments
//    (segments_read / segments_skipped counters prove it); an exact
//    entry-level filter then runs on every decoded segment, so the result
//    equals filter(ReadAll) exactly — the index only ever skips segments
//    it can prove are disjoint from the query.
//  * ActivityTotals — per-activity entry/pulse totals answered from the
//    index block alone on indexed files (zero segments decoded): its
//    file-level totals table, or the summed segment rows of a version 1
//    index.
// Unindexed files (and files whose index is damaged) fall back to the
// linear whole-blob scan for every operation; only the counters differ.
//
// Per-entry timestamps are reconstructed with the shared
// StreamIngestState unwrap: linear scans run one chain across the whole
// stream, and a parallel worker seeds its chain from the segment footer's
// time_min64 — the complete unwrap state at the segment's first entry —
// which is why filtered and parallel reads agree with the linear ones.
#ifndef QUANTO_SRC_ANALYSIS_TRACE_READER_H_
#define QUANTO_SRC_ANALYSIS_TRACE_READER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/analysis/trace_index.h"
#include "src/core/activity.h"
#include "src/core/log_entry.h"

namespace quanto {

// A conjunction of filters; empty members do not filter. Entry-level
// semantics (the index only accelerates, never redefines):
//  * time range — unwrapped entry time in [time_min, time_max] inclusive;
//  * origins — activity-typed entries whose label origin is listed
//    (power-state entries never match an origin filter: the stored stream
//    does not carry the logging node, see docs/TRACE_FORMAT.md);
//  * activities — activity-typed entries carrying a listed label.
struct TraceQuery {
  bool has_time_range = false;
  uint64_t time_min = 0;
  uint64_t time_max = ~uint64_t{0};
  std::vector<node_id_t> origins;
  std::vector<act_t> activities;

  bool Unfiltered() const {
    return !has_time_range && origins.empty() && activities.empty();
  }
};

// Pruning / decode counters for one read operation.
struct ReadStats {
  uint64_t segments_total = 0;
  uint64_t segments_read = 0;
  uint64_t segments_skipped = 0;
  uint64_t entries_decoded = 0;
  uint64_t entries_selected = 0;
};

class TraceFileReader {
 public:
  explicit TraceFileReader(const std::string& path);
  ~TraceFileReader();

  TraceFileReader(const TraceFileReader&) = delete;
  TraceFileReader& operator=(const TraceFileReader&) = delete;

  // False when the file could not be opened or is smaller than one
  // container header; reads on a !ok() reader fail.
  bool ok() const { return fd_ >= 0; }

  bool has_index() const { return has_index_; }
  const TraceIndex& index() const { return index_; }
  // Why has_index() is false ("no index trailer", "index rejected: ...");
  // empty when the index is present.
  const std::string& index_note() const { return index_note_; }

  uint64_t file_size() const { return file_size_; }
  // Byte length of the segment region (file_size minus a valid index).
  uint64_t data_bytes() const { return data_bytes_; }

  // Decodes the complete entry stream. `threads` > 1 parallelizes the
  // per-segment decode on indexed files (clamped to the segment count);
  // unindexed files always decode linearly. Returns nullopt on I/O error
  // or a segment that fails to parse / contradicts its footer.
  std::optional<std::vector<LogEntry>> ReadAll(size_t threads = 1,
                                               ReadStats* stats = nullptr) const;

  // Decodes only the segments intersecting `query` (all of them on
  // unindexed files) and applies the exact entry-level filter. The result
  // equals filtering ReadAll's stream entry for entry.
  std::optional<std::vector<LogEntry>> ReadFiltered(
      const TraceQuery& query, size_t threads = 1,
      ReadStats* stats = nullptr) const;

  // Per-activity totals. Indexed: read from the index block, decoding no
  // segment (stats->segments_read == 0). Unindexed: full linear scan
  // through TraceIndexBuilder::ScanActivityTotals — the same definition
  // the footers were built with.
  std::optional<std::map<act_t, ActivitySummary>> ActivityTotals(
      ReadStats* stats = nullptr) const;

 private:
  bool ReadAt(uint64_t offset, size_t size, uint8_t* out) const;
  // Reads and decodes one segment into out[0..footer.entries), verifying
  // the container header against the footer. `scratch` is the caller's
  // reusable byte buffer.
  bool DecodeSegment(const SegmentFooter& footer,
                     std::vector<uint8_t>* scratch, LogEntry* out) const;
  // Whole-data-region linear parse (the unindexed fallback), tolerating a
  // damaged trailing index exactly as DeserializeTrace does. Counts the
  // segments it walks.
  std::optional<std::vector<LogEntry>> ReadLinear(uint64_t* segments) const;

  int fd_ = -1;
  uint64_t file_size_ = 0;
  uint64_t data_bytes_ = 0;
  bool has_index_ = false;
  TraceIndex index_;
  std::string index_note_;
};

// FNV-1a fingerprint of an entry sequence (every field, width-escaped) —
// what the read bench and the determinism tests pin across thread counts.
uint64_t EntryStreamHash(const std::vector<LogEntry>& entries);

}  // namespace quanto

#endif  // QUANTO_SRC_ANALYSIS_TRACE_READER_H_
