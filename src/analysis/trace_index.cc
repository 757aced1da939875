#include "src/analysis/trace_index.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>

#include "src/analysis/trace_io.h"  // Container geometry for validation.
#include "src/hw/sinks.h"

namespace quanto {

struct ActivityRowStore {
  std::vector<uint8_t> bytes;  // Every segment's rows, in segment order.
  // Per restart (row k * kRestartInterval of a segment): the row's label
  // and its first byte's offset from the segment's first row.
  std::vector<act_t> restart_labels;
  std::vector<uint32_t> restart_offsets;

  // Records row `index` of the segment being added as a restart when it
  // falls on one. `offset` is relative to the segment's first row.
  void NoteRow(uint32_t index, act_t label, uint64_t offset) {
    if (index % ActivityRows::kRestartInterval == 0) {
      restart_labels.push_back(label);
      restart_offsets.push_back(static_cast<uint32_t>(offset));
    }
  }

  // The view of the `count` rows appended since `begin`, whose restarts
  // start at entry `restart`.
  static ActivityRows View(const std::shared_ptr<ActivityRowStore>& store,
                           uint64_t begin, uint32_t count, uint64_t restart) {
    uint32_t bytes = static_cast<uint32_t>(store->bytes.size() - begin);
    return ActivityRows(store, begin, bytes, count, restart);
  }
};

namespace {

void PutU16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v & 0xFF));
  out.push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

// LEB128: seven bits per byte, low group first, the high bit set on every
// byte but the last.
void PutVarint(std::vector<uint8_t>& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<uint8_t>(v | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<uint8_t>(v));
}

// Decodes one varint from [*p, end) and advances *p past it. Rejects a
// cut-off encoding, one past 64 bits, and a non-minimal one (a trailing
// zero group), so every value has exactly one encoding.
bool GetVarint(const uint8_t** p, const uint8_t* end, uint64_t* v) {
  const uint8_t* q = *p;
  uint64_t value = 0;
  for (int shift = 0; q != end; shift += 7) {
    uint8_t byte = *q++;
    if (shift == 63 && byte > 1) {
      return false;
    }
    value |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if (byte < 0x80) {
      if (byte == 0 && shift > 0) {
        return false;
      }
      *p = q;
      *v = value;
      return true;
    }
  }
  return false;
}

// The row codec, shared by segment rows and the totals table: the label
// minus the previous row's label (0 before the first row), then
// entries * 2 + (pulses != 0), then the pulses when nonzero.
void PutRow(std::vector<uint8_t>& out, act_t previous, const ActivityRow& row) {
  PutVarint(out, row.first - previous);
  bool has_pulses = row.second.pulses != 0;
  PutVarint(out, uint64_t{row.second.entries} * 2 + (has_pulses ? 1 : 0));
  if (has_pulses) {
    PutVarint(out, row.second.pulses);
  }
}

// Decodes one varint that validation has already accepted.
uint64_t ReadVarint(const uint8_t** p) {
  const uint8_t* q = *p;
  uint64_t value = *q & 0x7F;
  for (int shift = 7; (*q++ & 0x80) != 0; shift += 7) {
    value |= static_cast<uint64_t>(*q & 0x7F) << shift;
  }
  *p = q;
  return value;
}

// The counts of an accepted row: entries * 2 + (pulses != 0), then the
// pulses when flagged.
ActivitySummary ReadCounts(const uint8_t** p) {
  uint64_t field = ReadVarint(p);
  uint64_t pulses = (field & 1) != 0 ? ReadVarint(p) : 0;
  return ActivitySummary{static_cast<uint32_t>(field >> 1), pulses};
}

// Checks that [p, end) holds exactly `count` rows with strictly ascending
// labels, and hands each to `visit(index, first_byte, row)`.
template <typename Visit>
bool ForEachRow(const uint8_t* p, const uint8_t* end, uint32_t count,
                Visit&& visit) {
  act_t label = 0;
  for (uint32_t i = 0; i < count; ++i) {
    const uint8_t* start = p;
    uint64_t delta = 0;
    uint64_t field = 0;
    uint64_t pulses = 0;
    if (!GetVarint(&p, end, &delta) || (i > 0 && delta == 0) ||
        delta > std::numeric_limits<act_t>::max() - label ||
        !GetVarint(&p, end, &field) ||
        (field >> 1) > std::numeric_limits<uint32_t>::max()) {
      return false;
    }
    if ((field & 1) != 0 && (!GetVarint(&p, end, &pulses) || pulses == 0)) {
      return false;
    }
    label += delta;
    visit(i, start,
          ActivityRow(label, ActivitySummary{static_cast<uint32_t>(field >> 1),
                                             pulses}));
  }
  return p == end;
}

// Decodes exactly `count` rows filling [p, end) exactly. The caller has
// bounded `count` by the bytes available (a row takes at least two), so
// the reservation is bounded too.
bool GetRows(const uint8_t* p, const uint8_t* end, uint32_t count,
             std::vector<ActivityRow>* rows) {
  rows->reserve(count);
  return ForEachRow(p, end, count,
                    [rows](uint32_t, const uint8_t*, const ActivityRow& row) {
                      rows->push_back(row);
                    });
}

// Label-weighted sums of entries and pulses, in the same wrapping
// arithmetic as the summaries themselves. Equal over the segment rows and
// over the totals table exactly when the table is their per-label sum
// (barring a hash collision), which is what the parser checks instead of
// re-aggregating every row.
struct RowChecksum {
  uint32_t entries = 0;
  uint64_t pulses = 0;

  void Add(const ActivityRow& row) {
    // splitmix64's finalizer: a nonlinear weight per label.
    uint64_t w = row.first;
    w = (w ^ (w >> 30)) * 0xBF58476D1CE4E5B9ull;
    w = (w ^ (w >> 27)) * 0x94D049BB133111EBull;
    w ^= w >> 31;
    entries += static_cast<uint32_t>(w) * row.second.entries;
    pulses += w * row.second.pulses;
  }
  bool operator==(const RowChecksum& o) const {
    return entries == o.entries && pulses == o.pulses;
  }
};

bool ValidContainerVersion(uint16_t v) {
  return v == kTraceVersionLegacy || v == kTraceVersionWide ||
         v == kTraceVersionWideNode;
}

// The fixed part of a segment record. `act_rows` is version 1's row count
// and version 2's reserved field.
SegmentFooter GetFixedRecord(const uint8_t* p, uint16_t* act_rows) {
  SegmentFooter seg;
  seg.offset = GetU64(p);
  seg.length = GetU64(p + 8);
  seg.entries = GetU32(p + 16);
  seg.container_version = GetU16(p + 20);
  *act_rows = GetU16(p + 22);
  seg.time_min64 = GetU64(p + 24);
  seg.time_max64 = GetU64(p + 32);
  seg.origin_min = GetU32(p + 40);
  seg.origin_max = GetU32(p + 44);
  seg.origin_filter = GetU64(p + 48);
  return seg;
}

// Version 1: each fixed record is followed by its 20-byte rows, which are
// re-encoded into the shared row buffer.
bool ParseFixedRowSegments(const uint8_t* data, size_t records_end,
                           uint32_t segment_count,
                           const std::shared_ptr<ActivityRowStore>& store,
                           TraceIndex* index) {
  size_t at = kIndexHeaderBytes;
  if (segment_count > (records_end - at) / kSegmentRecordBytes) {
    return false;
  }
  index->segments.reserve(segment_count);
  for (uint32_t i = 0; i < segment_count; ++i) {
    if (records_end - at < kSegmentRecordBytes) {
      return false;
    }
    uint16_t act_rows = 0;
    SegmentFooter seg = GetFixedRecord(data + at, &act_rows);
    at += kSegmentRecordBytes;
    if (act_rows > (records_end - at) / kActivityRowBytesV1) {
      return false;
    }
    uint64_t begin = store->bytes.size();
    uint64_t restart = store->restart_labels.size();
    act_t previous = 0;
    for (uint16_t r = 0; r < act_rows; ++r) {
      const uint8_t* q = data + at;
      ActivityRow row(GetU64(q),
                      ActivitySummary{GetU32(q + 8), GetU64(q + 12)});
      // Rows are written in ascending label order; enforce it so the
      // footer-vs-scan comparisons can rely on it.
      if (r > 0 && row.first <= previous) {
        return false;
      }
      store->NoteRow(r, row.first, store->bytes.size() - begin);
      PutRow(store->bytes, previous, row);
      previous = row.first;
      at += kActivityRowBytesV1;
    }
    seg.activities = ActivityRowStore::View(store, begin, act_rows, restart);
    index->row_bytes += uint64_t{act_rows} * kActivityRowBytesV1;
    index->segments.push_back(std::move(seg));
  }
  return at == records_end;
}

// Version 2: every record, then every segment's varint rows, then the
// totals table. The rows are validated in place and copied into the
// shared buffer as they are.
bool ParseVarintRowSegments(const uint8_t* data, size_t records_end,
                            uint32_t segment_count,
                            const std::shared_ptr<ActivityRowStore>& store,
                            TraceIndex* index) {
  if (GetU16(data + 6) != 0 ||
      segment_count > (records_end - kIndexHeaderBytes) /
                          kSegmentRecordBytesV2) {
    return false;
  }
  const uint8_t* record = data + kIndexHeaderBytes;
  const uint8_t* rows = record + size_t{segment_count} * kSegmentRecordBytesV2;
  const uint8_t* end = data + records_end;
  // The records' row byte counts, capped by the bytes the block holds.
  uint64_t row_total = 0;
  for (uint32_t i = 0; i < segment_count; ++i) {
    row_total += GetU32(record + size_t{i} * kSegmentRecordBytesV2 +
                        kSegmentRecordBytes + 4);
  }
  store->bytes.reserve(static_cast<size_t>(
      std::min<uint64_t>(row_total, static_cast<uint64_t>(end - rows))));
  RowChecksum from_rows;
  index->segments.reserve(segment_count);
  for (uint32_t i = 0; i < segment_count; ++i) {
    uint16_t reserved = 0;
    SegmentFooter seg = GetFixedRecord(record, &reserved);
    uint32_t row_count = GetU32(record + kSegmentRecordBytes);
    uint32_t row_bytes = GetU32(record + kSegmentRecordBytes + 4);
    record += kSegmentRecordBytesV2;
    uint64_t begin = store->bytes.size();
    uint64_t restart = store->restart_labels.size();
    auto visit = [&](uint32_t r, const uint8_t* at, const ActivityRow& row) {
      from_rows.Add(row);
      store->NoteRow(r, row.first, static_cast<uint64_t>(at - rows));
    };
    if (reserved != 0 || row_bytes > static_cast<size_t>(end - rows) ||
        row_count > row_bytes / 2 ||
        !ForEachRow(rows, rows + row_bytes, row_count, visit)) {
      return false;
    }
    store->bytes.insert(store->bytes.end(), rows, rows + row_bytes);
    seg.activities = ActivityRowStore::View(store, begin, row_count, restart);
    rows += row_bytes;
    index->row_bytes += row_bytes;
    index->segments.push_back(std::move(seg));
  }
  if (end - rows < 4) {
    return false;
  }
  uint32_t label_count = GetU32(rows);
  rows += 4;
  if (label_count > static_cast<size_t>(end - rows) / 2 ||
      !GetRows(rows, end, label_count, &index->totals)) {
    return false;
  }
  RowChecksum from_totals;
  for (const ActivityRow& row : index->totals) {
    from_totals.Add(row);
  }
  return from_rows == from_totals;
}

// Blocks are handed to the writer in pieces of about this size.
constexpr size_t kWriteChunkBytes = 64 * 1024;

}  // namespace

ActivityRows::Iterator::Iterator(const uint8_t* at, const uint8_t* end)
    : at_(at), end_(end) {
  if (at_ != end_) {
    Decode();
  }
}

void ActivityRows::Iterator::Decode() {
  const uint8_t* p = at_;
  row_.first += ReadVarint(&p);
  row_.second = ReadCounts(&p);
  next_ = p;
}

ActivityRows::Iterator& ActivityRows::Iterator::operator++() {
  at_ = next_;
  if (at_ != end_) {
    Decode();
  }
  return *this;
}

const uint8_t* ActivityRows::data() const {
  return store_ == nullptr ? nullptr : store_->bytes.data() + begin_;
}

ActivityRows::Iterator ActivityRows::begin() const {
  return Iterator(data(), data() + bytes_);
}

ActivityRows::Iterator ActivityRows::end() const {
  return Iterator(data() + bytes_, data() + bytes_);
}

std::optional<ActivitySummary> ActivityRows::Find(act_t label) const {
  if (count_ == 0) {
    return std::nullopt;
  }
  size_t restarts = (count_ - 1) / kRestartInterval + 1;
  const act_t* labels = store_->restart_labels.data() + restart_;
  // The last restart at or below `label`: the only run that can hold it.
  size_t k = static_cast<size_t>(
      std::upper_bound(labels, labels + restarts, label) - labels);
  if (k == 0) {
    return std::nullopt;
  }
  --k;
  const uint8_t* p = data() + store_->restart_offsets[restart_ + k];
  size_t run = std::min<size_t>(kRestartInterval,
                                count_ - k * size_t{kRestartInterval});
  act_t current = labels[k];
  ReadVarint(&p);  // The restart row's delta; the table holds its label.
  for (size_t i = 1;; ++i) {
    ActivitySummary counts = ReadCounts(&p);
    if (current == label) {
      return counts;
    }
    if (i == run) {
      return std::nullopt;
    }
    current += ReadVarint(&p);
    if (current > label) {
      return std::nullopt;
    }
  }
}

bool SegmentFooter::MayContainOrigin(node_id_t origin) const {
  if (!(origin_filter & (uint64_t{1} << (origin % 64)))) {
    return false;  // A clear filter bit proves absence.
  }
  if (origin == kBroadcastAddr) {
    return true;  // Broadcast is excluded from the min/max range.
  }
  return origin >= origin_min && origin <= origin_max;
}

std::map<act_t, ActivitySummary> TraceIndex::ActivityTotals() const {
  if (version != kIndexVersionFixedRows) {
    return std::map<act_t, ActivitySummary>(totals.begin(), totals.end());
  }
  std::map<act_t, ActivitySummary> sums;
  for (const SegmentFooter& seg : segments) {
    for (const auto& [act, row] : seg.activities) {
      ActivitySummary& t = sums[act];
      t.entries += row.entries;
      t.pulses += row.pulses;
    }
  }
  return sums;
}

uint64_t ProbeIndexTrailer(const uint8_t* tail, uint64_t file_size) {
  if (file_size < kIndexTrailerBytes ||
      std::memcmp(tail + 8, kIndexEndMagic, 4) != 0) {
    return 0;
  }
  uint64_t index_bytes = GetU64(tail);
  // The block must at least frame itself, and must leave room for the
  // smallest possible data region (one empty container header).
  if (index_bytes < kIndexHeaderBytes + kIndexTrailerBytes ||
      index_bytes > file_size ||
      file_size - index_bytes < kTraceContainerHeaderBytes) {
    return 0;
  }
  return index_bytes;
}

bool LooksLikeIndexBlock(const uint8_t* data, size_t size) {
  if (size == 0) {
    return false;
  }
  if (std::memcmp(data, kIndexMagic, std::min(size, sizeof kIndexMagic)) ==
      0) {
    return true;
  }
  return size >= kIndexHeaderBytes + kIndexTrailerBytes &&
         std::memcmp(data + size - 4, kIndexEndMagic, 4) == 0 &&
         GetU64(data + size - kIndexTrailerBytes) == size;
}

std::optional<TraceIndex> ParseTraceIndex(const uint8_t* data, size_t size,
                                          uint64_t data_bytes) {
  if (size < kIndexHeaderBytes + kIndexTrailerBytes ||
      std::memcmp(data, kIndexMagic, 4) != 0) {
    return std::nullopt;
  }
  // Trailer self-reference.
  size_t records_end = size - kIndexTrailerBytes;
  if (GetU64(data + records_end) != size ||
      std::memcmp(data + records_end + 8, kIndexEndMagic, 4) != 0) {
    return std::nullopt;
  }
  TraceIndex index;
  index.version = GetU16(data + 4);
  index.total_entries = GetU64(data + 12);
  uint32_t segment_count = GetU32(data + 8);
  auto rows = std::make_shared<ActivityRowStore>();
  bool parsed = false;
  if (index.version == kIndexVersion) {
    parsed = ParseVarintRowSegments(data, records_end, segment_count, rows,
                                    &index);
  } else if (index.version == kIndexVersionFixedRows) {
    parsed = ParseFixedRowSegments(data, records_end, segment_count, rows,
                                   &index);
  }
  if (!parsed) {
    return std::nullopt;
  }
  // The views hold offsets, not pointers, so the storage may still move.
  rows->bytes.shrink_to_fit();  // Exact already on version 2.
  rows->restart_labels.shrink_to_fit();
  rows->restart_offsets.shrink_to_fit();
  // Structural validity: segments tile [0, data_bytes) contiguously and
  // each length matches its own header-derived size exactly.
  uint64_t next_offset = 0;
  uint64_t entry_sum = 0;
  for (const SegmentFooter& seg : index.segments) {
    if (!ValidContainerVersion(seg.container_version) ||
        seg.offset != next_offset ||
        seg.length != kTraceContainerHeaderBytes +
                          static_cast<uint64_t>(seg.entries) *
                              TraceContainerEntryBytes(seg.container_version) ||
        seg.length > data_bytes - seg.offset ||
        (seg.entries > 0 && seg.time_min64 > seg.time_max64)) {
      return std::nullopt;
    }
    next_offset = seg.offset + seg.length;
    entry_sum += seg.entries;
  }
  if (next_offset != data_bytes || entry_sum != index.total_entries) {
    return std::nullopt;
  }
  return index;
}

// --- TraceIndexBuilder ------------------------------------------------------

size_t TraceIndexBuilder::LabelTable::Home(act_t label) const {
  // Fibonacci hashing: the multiply spreads origin and id bits alike into
  // the top bits, which pick the slot.
  return static_cast<size_t>((label * 0x9E3779B97F4A7C15ull) >> shift_);
}

void TraceIndexBuilder::LabelTable::Grow() {
  std::vector<Slot> old(slots_.empty() ? 64 : slots_.size() * 2);
  old.swap(slots_);
  shift_ = old.empty() ? 58 : shift_ - 1;
  std::vector<uint32_t> occupied;
  occupied.swap(used_);
  used_.reserve(slots_.size() / 2);
  size_t mask = slots_.size() - 1;
  for (uint32_t from : occupied) {
    size_t i = Home(old[from].label);
    while (slots_[i].used) {
      i = (i + 1) & mask;
    }
    slots_[i] = old[from];
    used_.push_back(static_cast<uint32_t>(i));
  }
}

TraceIndexBuilder::LabelTable::Slot& TraceIndexBuilder::LabelTable::operator[](
    act_t label) {
  if ((used_.size() + 1) * 2 > slots_.size()) {
    Grow();
  }
  size_t mask = slots_.size() - 1;
  for (size_t i = Home(label);; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (!slot.used) {
      slot = Slot{label, 0, 0, true};
      used_.push_back(static_cast<uint32_t>(i));
      return slot;
    }
    if (slot.label == label) {
      return slot;
    }
  }
}

void TraceIndexBuilder::LabelTable::SortedRows(
    std::vector<ActivityRow>* rows) const {
  size_t first = rows->size();
  for (uint32_t i : used_) {
    const Slot& slot = slots_[i];
    rows->emplace_back(slot.label, ActivitySummary{slot.entries, slot.pulses});
  }
  std::sort(rows->begin() + static_cast<std::ptrdiff_t>(first), rows->end(),
            [](const ActivityRow& a, const ActivityRow& b) {
              return a.first < b.first;
            });
}

void TraceIndexBuilder::LabelTable::Clear() {
  for (uint32_t i : used_) {
    slots_[i].used = false;
  }
  used_.clear();
}

void TraceIndexBuilder::Add(const LogEntry& e) {
  uint64_t t64 = time_.Unwrap(e);
  if (cur_.count == 0) {
    cur_.time_min64 = t64;
  }
  cur_.time_max64 = t64;
  ++cur_.count;
  // Pulses since the previous entry accrue to the activity that was
  // current *before* this entry (wrap-aware 32-bit delta).
  if (has_icount_) {
    uint32_t delta = e.icount - last_icount_;
    if (delta != 0) {
      rows_[cpu_act_].pulses += delta;
    }
  }
  last_icount_ = e.icount;
  has_icount_ = true;
  if (IsActivityEntry(e)) {
    act_t act = e.payload;
    rows_[act].entries += 1;
    node_id_t origin = ActivityOrigin(act);
    cur_.origin_filter |= uint64_t{1} << (origin % 64);
    if (origin != kBroadcastAddr) {
      if (origin < cur_.origin_min) {
        cur_.origin_min = origin;
      }
      if (origin > cur_.origin_max) {
        cur_.origin_max = origin;
      }
    }
    if (EntryType(e) == LogEntryType::kActivitySet && e.res_id == kSinkCpu) {
      cpu_act_ = act;
    }
  }
}

void TraceIndexBuilder::FinishSegment(uint64_t offset, uint64_t length,
                                      uint16_t version, uint32_t entries) {
  SealedSegment seg;
  SegmentFooter& footer = seg.footer;
  footer.offset = offset;
  footer.length = length;
  footer.entries = entries;
  footer.container_version = version;
  if (cur_.count > 0) {
    footer.time_min64 = cur_.time_min64;
    footer.time_max64 = cur_.time_max64;
  }
  footer.origin_min = cur_.origin_min;
  footer.origin_max = cur_.origin_max;
  footer.origin_filter = cur_.origin_filter;
  sorted_.clear();
  rows_.SortedRows(&sorted_);
  rows_.Clear();
  encoded_.clear();
  act_t previous = 0;
  for (const ActivityRow& row : sorted_) {
    PutRow(encoded_, previous, row);
    previous = row.first;
    LabelTable::Slot& total = totals_[row.first];
    total.entries += row.second.entries;
    total.pulses += row.second.pulses;
  }
  seg.row_count = static_cast<uint32_t>(sorted_.size());
  seg.rows.assign(encoded_.begin(), encoded_.end());
  total_entries_ += entries;
  sealed_.push_back(std::move(seg));
  cur_ = CurrentSegment{};
}

uint64_t TraceIndexBuilder::WriteBlock(const BlockWriter& write) const {
  uint64_t bytes = 0;
  std::vector<uint8_t> buf;
  auto flush = [&] {
    if (!buf.empty()) {
      write(buf.data(), buf.size());
      bytes += buf.size();
      buf.clear();
    }
  };
  buf.insert(buf.end(), std::begin(kIndexMagic), std::end(kIndexMagic));
  PutU16(buf, kIndexVersion);
  PutU16(buf, 0);  // Reserved.
  PutU32(buf, static_cast<uint32_t>(sealed_.size()));
  PutU64(buf, total_entries_);
  for (const SealedSegment& seg : sealed_) {
    const SegmentFooter& f = seg.footer;
    PutU64(buf, f.offset);
    PutU64(buf, f.length);
    PutU32(buf, f.entries);
    PutU16(buf, f.container_version);
    PutU16(buf, 0);  // Reserved (version 1's row count).
    PutU64(buf, f.time_min64);
    PutU64(buf, f.time_max64);
    PutU32(buf, f.origin_min);
    PutU32(buf, f.origin_max);
    PutU64(buf, f.origin_filter);
    PutU32(buf, seg.row_count);
    PutU32(buf, static_cast<uint32_t>(seg.rows.size()));
    if (buf.size() >= kWriteChunkBytes) {
      flush();
    }
  }
  flush();
  for (const SealedSegment& seg : sealed_) {
    if (!seg.rows.empty()) {
      write(seg.rows.data(), seg.rows.size());
      bytes += seg.rows.size();
    }
  }
  std::vector<ActivityRow> totals;
  totals_.SortedRows(&totals);
  PutU32(buf, static_cast<uint32_t>(totals.size()));
  act_t previous = 0;
  for (const ActivityRow& row : totals) {
    PutRow(buf, previous, row);
    previous = row.first;
    if (buf.size() >= kWriteChunkBytes) {
      flush();
    }
  }
  PutU64(buf, bytes + buf.size() + kIndexTrailerBytes);
  buf.insert(buf.end(), std::begin(kIndexEndMagic), std::end(kIndexEndMagic));
  flush();
  return bytes;
}

std::map<act_t, ActivitySummary> TraceIndexBuilder::ScanActivityTotals(
    const std::vector<LogEntry>& entries) {
  std::vector<ActivityRow> rows;
  {
    TraceIndexBuilder builder;
    for (const LogEntry& e : entries) {
      builder.Add(e);
    }
    builder.rows_.SortedRows(&rows);
  }  // The table is freed before the map is built.
  return std::map<act_t, ActivitySummary>(rows.begin(), rows.end());
}

}  // namespace quanto
