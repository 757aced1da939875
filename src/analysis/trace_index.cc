#include "src/analysis/trace_index.h"

#include <cstring>

#include "src/analysis/trace_io.h"  // Container geometry for validation.
#include "src/hw/sinks.h"

namespace quanto {

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

bool ValidContainerVersion(uint16_t v) {
  return v == kTraceVersionLegacy || v == kTraceVersionWide ||
         v == kTraceVersionWideNode;
}

}  // namespace

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
  std::map<act_t, ActivitySummary> totals;
  for (const SegmentFooter& seg : segments) {
    for (const auto& [act, row] : seg.activities) {
      ActivitySummary& t = totals[act];
      t.entries += row.entries;
      t.pulses += row.pulses;
    }
  }
  return totals;
}

std::vector<uint8_t> SerializeTraceIndex(const TraceIndex& index) {
  size_t bytes = kIndexHeaderBytes + kIndexTrailerBytes;
  for (const SegmentFooter& seg : index.segments) {
    bytes += kSegmentRecordBytes + seg.activities.size() * kActivityRowBytes;
  }
  std::vector<uint8_t> out;
  out.reserve(bytes);
  for (uint8_t m : kIndexMagic) {
    out.push_back(m);
  }
  PutU16(out, kIndexVersion);
  PutU16(out, 0);  // Reserved.
  PutU32(out, static_cast<uint32_t>(index.segments.size()));
  PutU64(out, index.total_entries);
  for (const SegmentFooter& seg : index.segments) {
    PutU64(out, seg.offset);
    PutU64(out, seg.length);
    PutU32(out, seg.entries);
    PutU16(out, seg.container_version);
    PutU16(out, static_cast<uint16_t>(seg.activities.size()));
    PutU64(out, seg.time_min64);
    PutU64(out, seg.time_max64);
    PutU32(out, seg.origin_min);
    PutU32(out, seg.origin_max);
    PutU64(out, seg.origin_filter);
    for (const auto& [act, row] : seg.activities) {
      PutU64(out, act);
      PutU32(out, row.entries);
      PutU64(out, row.pulses);
    }
  }
  PutU64(out, static_cast<uint64_t>(bytes));
  for (uint8_t m : kIndexEndMagic) {
    out.push_back(m);
  }
  return out;
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

std::optional<TraceIndex> ParseTraceIndex(const uint8_t* data, size_t size,
                                          uint64_t data_bytes) {
  if (size < kIndexHeaderBytes + kIndexTrailerBytes ||
      std::memcmp(data, kIndexMagic, 4) != 0 ||
      GetU16(data + 4) != kIndexVersion) {
    return std::nullopt;
  }
  uint32_t segment_count = GetU32(data + 8);
  TraceIndex index;
  index.total_entries = GetU64(data + 12);
  index.segments.reserve(segment_count);
  size_t at = kIndexHeaderBytes;
  size_t records_end = size - kIndexTrailerBytes;
  uint64_t next_offset = 0;
  uint64_t entry_sum = 0;
  for (uint32_t i = 0; i < segment_count; ++i) {
    if (records_end - at < kSegmentRecordBytes) {
      return std::nullopt;
    }
    const uint8_t* p = data + at;
    SegmentFooter seg;
    seg.offset = GetU64(p);
    seg.length = GetU64(p + 8);
    seg.entries = GetU32(p + 16);
    seg.container_version = GetU16(p + 20);
    uint16_t act_rows = GetU16(p + 22);
    seg.time_min64 = GetU64(p + 24);
    seg.time_max64 = GetU64(p + 32);
    seg.origin_min = GetU32(p + 40);
    seg.origin_max = GetU32(p + 44);
    seg.origin_filter = GetU64(p + 48);
    at += kSegmentRecordBytes;
    if (records_end - at < static_cast<size_t>(act_rows) * kActivityRowBytes) {
      return std::nullopt;
    }
    seg.activities.reserve(act_rows);
    for (uint16_t r = 0; r < act_rows; ++r) {
      const uint8_t* q = data + at;
      act_t act = GetU64(q);
      ActivitySummary row;
      row.entries = GetU32(q + 8);
      row.pulses = GetU64(q + 12);
      // Rows are written in ascending label order; enforce it so the
      // footer-vs-scan comparisons can rely on it.
      if (r > 0 && act <= seg.activities.back().first) {
        return std::nullopt;
      }
      seg.activities.emplace_back(act, row);
      at += kActivityRowBytes;
    }
    // Structural validity: segments tile [0, data_bytes) contiguously and
    // each length matches its own header-derived size exactly.
    if (!ValidContainerVersion(seg.container_version) ||
        seg.offset != next_offset ||
        seg.length != kTraceContainerHeaderBytes +
                          static_cast<uint64_t>(seg.entries) *
                              TraceContainerEntryBytes(seg.container_version) ||
        seg.length > data_bytes - seg.offset) {
      return std::nullopt;
    }
    if (seg.entries > 0 && seg.time_min64 > seg.time_max64) {
      return std::nullopt;
    }
    next_offset = seg.offset + seg.length;
    entry_sum += seg.entries;
    index.segments.push_back(std::move(seg));
  }
  if (at != records_end || next_offset != data_bytes ||
      entry_sum != index.total_entries) {
    return std::nullopt;
  }
  // Trailer self-reference.
  if (GetU64(data + records_end) != size ||
      std::memcmp(data + records_end + 8, kIndexEndMagic, 4) != 0) {
    return std::nullopt;
  }
  return index;
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
      cur_.activities[cpu_act_].pulses += delta;
    }
  }
  last_icount_ = e.icount;
  has_icount_ = true;
  if (IsActivityEntry(e)) {
    // A copy: the map's key reference must not bind to the packed field.
    act_t act = e.payload;
    cur_.activities[act].entries += 1;
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
  SegmentFooter seg;
  seg.offset = offset;
  seg.length = length;
  seg.entries = entries;
  seg.container_version = version;
  if (cur_.count > 0) {
    seg.time_min64 = cur_.time_min64;
    seg.time_max64 = cur_.time_max64;
  }
  seg.origin_min = cur_.origin_min;
  seg.origin_max = cur_.origin_max;
  seg.origin_filter = cur_.origin_filter;
  seg.activities.assign(cur_.activities.begin(), cur_.activities.end());
  index_.total_entries += entries;
  index_.segments.push_back(std::move(seg));
  cur_ = CurrentSegment{};
}

std::map<act_t, ActivitySummary> TraceIndexBuilder::ScanActivityTotals(
    const std::vector<LogEntry>& entries) {
  TraceIndexBuilder builder;
  for (const LogEntry& e : entries) {
    builder.Add(e);
  }
  std::map<act_t, ActivitySummary> totals(builder.cur_.activities.begin(),
                                          builder.cur_.activities.end());
  return totals;
}

}  // namespace quanto
