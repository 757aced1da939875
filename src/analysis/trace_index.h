// Per-segment footer index for spill files: the read-path half of the
// trace-store design (ROADMAP open item 4).
//
// A FileTraceSink spill is a sequence of self-contained trace containers
// ("segments", docs/TRACE_FORMAT.md). This module defines a trailing
// *index block* that summarizes every segment — byte extent, entry count,
// unwrapped time range, activity-origin membership, per-activity
// entry/pulse rows — plus a file-level table of per-activity totals, so
// readers can answer summary queries from the block alone and decode only
// the segments a filtered query intersects.
//
// The index is strictly additive: an indexed file is the unindexed file's
// bytes followed by one index block, located through a fixed-size trailer
// at end of file. Readers that predate the index parse the data segments
// and never see it; index-aware readers validate the trailer and block
// and fall back to a linear scan when either is damaged. The layout is
// pinned in docs/TRACE_FORMAT.md ("Segment index"). Version 2 (varint
// rows and the totals table) is the one written; version 1 (fixed 20-byte
// rows, no totals table) is still read.
//
// Footer semantics are defined over the *stored* entry stream (the merged
// single-log view quanto_report analyses), so a full scan of the decoded
// entries reproduces every footer exactly:
//  * time_min64/time_max64 — first/last entry timestamp under the global
//    StreamIngestState unwrap of the stream, the same 32 -> 64 bit rule
//    the analysis layer applies. A segment's min64 is therefore the
//    complete unwrap state at its first entry, which is what lets a
//    parallel reader decode segments independently yet byte-identically.
//  * origin_min/origin_max/origin_filter — membership of activity-label
//    origin nodes (ActivityOrigin of activity-typed payloads; the stored
//    stream does not carry the logging node). The filter is a 64-bit
//    Bloom-style bitmap over origin % 64: a clear bit proves absence, a
//    set bit only suggests presence. Broadcast-origin labels set their
//    filter bit but are excluded from the min/max range.
//  * activities — per label: entry count (activity-typed entries carrying
//    the label) and iCount pulses attributed while the label was the
//    CPU's current activity (kActivitySet on the CPU sink switches it;
//    deltas between consecutive entries accrue to the activity current
//    *before* each entry). Pulses × energy_per_pulse is the summary-query
//    energy estimate.
#ifndef QUANTO_SRC_ANALYSIS_TRACE_INDEX_H_
#define QUANTO_SRC_ANALYSIS_TRACE_INDEX_H_

#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/analysis/trace_merge.h"  // StreamIngestState: the one unwrap.
#include "src/core/activity.h"
#include "src/core/log_entry.h"

namespace quanto {

// Index block framing (all little-endian; see docs/TRACE_FORMAT.md).
inline constexpr uint8_t kIndexMagic[4] = {'Q', 'N', 'T', 'I'};
inline constexpr uint8_t kIndexEndMagic[4] = {'Q', 'I', 'D', 'X'};
// The version the builder writes: varint rows plus the totals table.
inline constexpr uint16_t kIndexVersion = 2;
// The first layout, fixed 20-byte rows and no totals table; read only.
inline constexpr uint16_t kIndexVersionFixedRows = 1;
// magic | u16 version | u16 reserved | u32 segment_count | u64 total_entries.
inline constexpr size_t kIndexHeaderBytes = 4 + 2 + 2 + 4 + 8;
// u64 index_bytes | end magic. Always the last 12 bytes of an indexed file.
inline constexpr size_t kIndexTrailerBytes = 8 + 4;
// Fixed part of one segment record, common to both versions.
inline constexpr size_t kSegmentRecordBytes = 8 + 8 + 4 + 2 + 2 + 8 + 8 + 4 + 4 + 8;
// A version 2 record: the fixed part, then u32 row_count | u32 row_bytes.
inline constexpr size_t kSegmentRecordBytesV2 = kSegmentRecordBytes + 4 + 4;
// One version 1 activity row: u64 label | u32 entries | u64 pulses.
inline constexpr size_t kActivityRowBytesV1 = 8 + 4 + 8;

// Per-activity roll-up within one segment (or across a whole index).
struct ActivitySummary {
  uint32_t entries = 0;  // Activity-typed entries carrying this label.
  uint64_t pulses = 0;   // iCount pulses attributed to this activity.
};

using ActivityRow = std::pair<act_t, ActivitySummary>;

// The buffer and restart table that the ActivityRows views of one parsed
// index share (defined in trace_index.cc).
struct ActivityRowStore;

// One segment's activity rows, sorted by label, as a parsed index keeps
// them: still in the version 2 row codec (docs/TRACE_FORMAT.md "The row
// codec"), in one buffer that every segment of the index shares. Beside
// the bytes sits a restart table with the label and byte offset of every
// kRestartInterval-th row, so Find decodes at most that many rows. The
// view is read-only and shares ownership of the buffer: a copied view,
// footer or index stays valid after the original (and its reader) is gone.
// A default-constructed view is empty.
class ActivityRows {
 public:
  static constexpr uint32_t kRestartInterval = 64;

  // Decodes the rows in label order, one ActivityRow by value at a time.
  class Iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = ActivityRow;
    using difference_type = std::ptrdiff_t;
    using pointer = const ActivityRow*;
    using reference = ActivityRow;

    Iterator() = default;
    ActivityRow operator*() const { return row_; }
    const ActivityRow* operator->() const { return &row_; }
    Iterator& operator++();
    Iterator operator++(int) {
      Iterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const Iterator& o) const { return at_ == o.at_; }
    bool operator!=(const Iterator& o) const { return at_ != o.at_; }

   private:
    friend class ActivityRows;
    Iterator(const uint8_t* at, const uint8_t* end);
    void Decode();

    const uint8_t* at_ = nullptr;    // The current row's first byte.
    const uint8_t* next_ = nullptr;  // The byte after it.
    const uint8_t* end_ = nullptr;
    ActivityRow row_{};
  };

  ActivityRows() = default;

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  Iterator begin() const;
  Iterator end() const;
  // The row for `label`, or nullopt when the segment has none: a binary
  // search of the segment's restart labels, then at most
  // kRestartInterval - 1 rows decoded past the restart.
  std::optional<ActivitySummary> Find(act_t label) const;

 private:
  friend struct ActivityRowStore;

  ActivityRows(std::shared_ptr<const ActivityRowStore> store, uint64_t begin,
               uint32_t bytes, uint32_t count, uint64_t restart)
      : store_(std::move(store)),
        begin_(begin),
        restart_(restart),
        bytes_(bytes),
        count_(count) {}
  const uint8_t* data() const;

  std::shared_ptr<const ActivityRowStore> store_;
  uint64_t begin_ = 0;    // Offset of the first row in the shared bytes.
  uint64_t restart_ = 0;  // Index of the first row's restart entry.
  uint32_t bytes_ = 0;
  uint32_t count_ = 0;
};

// One segment's footer.
struct SegmentFooter {
  uint64_t offset = 0;  // Byte offset of the segment container in the file.
  uint64_t length = 0;  // Byte length of the segment container.
  uint32_t entries = 0;
  uint16_t container_version = 0;  // v1/v2/v3 of the segment's records.
  uint64_t time_min64 = 0;  // Unwrapped time of the first entry (0 if none).
  uint64_t time_max64 = 0;  // Unwrapped time of the last entry.
  // Activity-origin membership. Empty segments (or segments with no
  // activity entries) carry min > max (the empty-range sentinel: real
  // ranges never reach 0xFFFFFFFF, broadcast being excluded).
  node_id_t origin_min = kBroadcastAddr;
  node_id_t origin_max = 0;
  uint64_t origin_filter = 0;  // Bit (origin % 64) per origin present.
  ActivityRows activities;

  // True when the footer cannot rule the origin out of the segment.
  bool MayContainOrigin(node_id_t origin) const;
  bool OverlapsTime(uint64_t t0, uint64_t t1) const {
    return entries > 0 && time_min64 <= t1 && time_max64 >= t0;
  }
};

// A parsed index block.
struct TraceIndex {
  uint16_t version = kIndexVersion;
  uint64_t total_entries = 0;
  std::vector<SegmentFooter> segments;
  // Bytes the block spends on segment activity rows (version 1's fixed
  // rows counted as stored, although they are kept re-encoded).
  uint64_t row_bytes = 0;
  // Version 2's file-level table: one row per label, ascending, with the
  // label's entries and pulses summed over every segment. Empty on
  // version 1.
  std::vector<ActivityRow> totals;

  // The footer-only answer to "total entries/pulses per activity": the
  // totals table on version 2, the segment rows summed on version 1.
  std::map<act_t, ActivitySummary> ActivityTotals() const;
};

// Parses and validates an index block (version 1 or 2) of exactly `size`
// bytes, trailer included. `data_bytes` is the byte length of the segment
// region the index must describe: validation requires the footers to
// tile [0, data_bytes) contiguously, each length to match its
// header-derived size, every count to fit the bytes left in the block
// (checked before anything is allocated for it), and every total to be
// self-consistent. Returns nullopt on any violation — callers treat that
// as "no index" and fall back to a linear scan, never as a broken file.
// The segments' rows stay encoded (ActivityRows); version 1's fixed rows
// are re-encoded into the version 2 codec, so both versions read alike.
std::optional<TraceIndex> ParseTraceIndex(const uint8_t* data, size_t size,
                                          uint64_t data_bytes);

// Probes the last kIndexTrailerBytes of a file (passed as `tail`, with
// `file_size` the whole file's length). Returns the total index block
// size when the trailer is plausible — end magic present and the implied
// block fits between the container header and end of file — else 0.
// Plausible only means "worth parsing": ParseTraceIndex still validates.
uint64_t ProbeIndexTrailer(const uint8_t* tail, uint64_t file_size);

// True when `size` bytes that run to the end of a file, and that follow
// its last complete data segment, are the remains of an index block: they
// start with the index magic (or, cut short, a prefix of it), or they end
// in a trailer whose size field counts exactly these bytes. Linear readers
// skip such a tail (a damaged index) and reject any other.
bool LooksLikeIndexBlock(const uint8_t* data, size_t size);

// Accumulates footers over an entry stream, segment by segment: Add()
// every entry in stream order; FinishSegment() when the entries appended
// since the previous finish have been written as one container at
// [offset, offset+length). Global state (the time unwrap, the CPU
// activity, the pulse chain) deliberately spans segment boundaries — the
// footers describe one continuous stream cut into containers.
//
// FinishSegment encodes the segment's rows straight into the block's
// varint form and folds them into the file-level totals; the builder
// keeps only those bytes, the fixed footers and one flat table per scope,
// so WriteBlock streams the block without assembling it.
//
// The same accumulator defines the full-scan semantics: ScanActivityTotals
// runs a fresh builder over decoded entries, so "footer totals ==
// full-scan totals" is an identity, not a hope.
class TraceIndexBuilder {
 public:
  using BlockWriter = std::function<void(const uint8_t* data, size_t size)>;

  void Add(const LogEntry& e);

  // Seals the current segment's footer. `version` is the container
  // version the segment serialized to; `entries` must equal the entries
  // Added since the last FinishSegment.
  void FinishSegment(uint64_t offset, uint64_t length, uint16_t version,
                     uint32_t entries);

  // Entries Added but not yet sealed into a footer.
  uint32_t pending_entries() const { return cur_.count; }

  // Hands the index block over the sealed segments to `write` piece by
  // piece, in file order: header, segment records, row bytes, totals
  // table, trailer. Returns the block's size. The bytes depend only on
  // the entries and the segment cuts, never on hash-table order.
  uint64_t WriteBlock(const BlockWriter& write) const;

  // The shared full-scan definition of the per-activity totals.
  static std::map<act_t, ActivitySummary> ScanActivityTotals(
      const std::vector<LogEntry>& entries);

 private:
  // Flat open-addressing map from label to its entry and pulse counts:
  // linear probing, power-of-two capacity, at most half full. Clear()
  // resets only the slots in use and keeps the storage, so one table
  // serves every segment.
  class LabelTable {
   public:
    // 24 bytes: the counts sit beside the label rather than in an
    // ActivitySummary, whose padding would grow the slot to 32.
    struct Slot {
      act_t label = 0;
      uint64_t pulses = 0;
      uint32_t entries = 0;
      bool used = false;
    };

    Slot& operator[](act_t label);
    // Appends the rows to `rows` in ascending label order.
    void SortedRows(std::vector<ActivityRow>* rows) const;
    void Clear();

   private:
    size_t Home(act_t label) const;
    void Grow();

    std::vector<Slot> slots_;
    std::vector<uint32_t> used_;  // Indices of the occupied slots.
    int shift_ = 64;              // 64 - log2(capacity).
  };

  struct CurrentSegment {
    uint32_t count = 0;
    uint64_t time_min64 = 0;
    uint64_t time_max64 = 0;
    node_id_t origin_min = kBroadcastAddr;
    node_id_t origin_max = 0;
    uint64_t origin_filter = 0;
  };

  // A sealed segment: its footer (with `activities` left empty) and its
  // rows in encoded form.
  struct SealedSegment {
    SegmentFooter footer;
    uint32_t row_count = 0;
    std::vector<uint8_t> rows;
  };

  std::vector<SealedSegment> sealed_;
  uint64_t total_entries_ = 0;
  CurrentSegment cur_;
  LabelTable rows_;    // The current segment's rows.
  LabelTable totals_;  // Every sealed segment's rows, summed per label.
  std::vector<ActivityRow> sorted_;  // FinishSegment's reusable buffer.
  std::vector<uint8_t> encoded_;     // Likewise.
  // Stream-global state, spanning segments.
  StreamIngestState time_;
  act_t cpu_act_ = 0;  // Label 0 ("0:Idle") until the first CPU set.
  uint32_t last_icount_ = 0;
  bool has_icount_ = false;
};

}  // namespace quanto

#endif  // QUANTO_SRC_ANALYSIS_TRACE_INDEX_H_
