#include "src/analysis/trace_io.h"

#include <cstring>
#include <fstream>
#include <sstream>

#include "src/hw/sinks.h"

namespace quanto {

namespace {

constexpr uint8_t kMagic[4] = {'Q', 'N', 'T', 'O'};
constexpr size_t kHeaderBytes = kTraceContainerHeaderBytes;
constexpr size_t kEntryBytesV1 = 12;  // u16 payload, legacy labels.
constexpr size_t kEntryBytesV2 = 14;  // u32 payload, wide labels.
constexpr size_t kEntryBytesV3 = 16;  // 48-bit payload, wide-node labels.

void PutU16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v & 0xFF));
  out.push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

// 48-bit little-endian payload of a v3 record (labels are 48 significant
// bits; power states fit trivially).
void PutU48(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 6; ++i) {
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

uint64_t GetU48(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 6; ++i) {
    v |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

}  // namespace

size_t TraceContainerEntryBytes(uint16_t version) {
  switch (version) {
    case kTraceVersionLegacy:
      return kEntryBytesV1;
    case kTraceVersionWide:
      return kEntryBytesV2;
    default:
      return kEntryBytesV3;
  }
}

bool ParseTraceSegmentHeader(const uint8_t* p, size_t avail,
                             uint16_t* version, uint32_t* count) {
  if (avail < kHeaderBytes || std::memcmp(p, kMagic, 4) != 0) {
    return false;
  }
  uint16_t v = GetU16(p + 4);
  if (v != kTraceVersionLegacy && v != kTraceVersionWide &&
      v != kTraceVersionWideNode) {
    return false;
  }
  *version = v;
  *count = GetU32(p + 8);
  return true;
}

void DecodeTraceRecords(uint16_t version, const uint8_t* p, uint32_t count,
                        LogEntry* out) {
  size_t entry_bytes = TraceContainerEntryBytes(version);
  for (uint32_t i = 0; i < count; ++i) {
    LogEntry& e = out[i];
    e.type = p[0];
    e.res_id = p[1];
    e.time = GetU32(p + 2);
    e.icount = GetU32(p + 6);
    if (version == kTraceVersionLegacy) {
      e.payload = WideEntryPayload(e, GetU16(p + 10));
    } else if (version == kTraceVersionWide) {
      e.payload = WideFromV2Payload(e, GetU32(p + 10));
    } else {
      e.payload = GetU48(p + 10);
    }
    p += entry_bytes;
  }
}

uint16_t TraceSerializationVersion(const std::vector<LogEntry>& entries) {
  uint16_t version = kTraceVersionLegacy;
  for (const LogEntry& e : entries) {
    if (!IsV2Entry(e)) {
      return kTraceVersionWideNode;  // Can't get wider; stop scanning.
    }
    if (!IsLegacyEntry(e)) {
      version = kTraceVersionWide;
    }
  }
  return version;
}

std::vector<uint8_t> SerializeTrace(const std::vector<LogEntry>& entries,
                                    TraceFormat format) {
  uint16_t version = format == TraceFormat::kV3
                         ? kTraceVersionWideNode
                         : TraceSerializationVersion(entries);
  if (format == TraceFormat::kV2 && version == kTraceVersionLegacy) {
    version = kTraceVersionWide;
  }
  size_t entry_bytes = TraceContainerEntryBytes(version);
  std::vector<uint8_t> out;
  out.reserve(kHeaderBytes + entries.size() * entry_bytes);
  for (uint8_t m : kMagic) {
    out.push_back(m);
  }
  PutU16(out, version);
  PutU16(out, 0);  // Reserved.
  PutU32(out, static_cast<uint32_t>(entries.size()));
  for (const LogEntry& e : entries) {
    out.push_back(e.type);
    out.push_back(e.res_id);
    PutU32(out, e.time);
    PutU32(out, e.icount);
    if (version == kTraceVersionLegacy) {
      PutU16(out, LegacyEntryPayload(e));
    } else if (version == kTraceVersionWide) {
      PutU32(out, V2EntryPayload(e));
    } else {
      PutU48(out, e.payload);
    }
  }
  return out;
}

namespace {

// Parses one complete container starting at `offset` within
// `data[0, size)`, appending its entries to `out` and advancing `offset`
// past it. Returns false on bad magic/version or truncation (offset is
// left at the segment start).
bool ParseSegment(const uint8_t* data, size_t size, size_t* offset,
                  std::vector<LogEntry>* out) {
  size_t at = *offset;
  uint16_t version;
  uint32_t count;
  if (!ParseTraceSegmentHeader(data + at, size - at, &version, &count)) {
    return false;
  }
  size_t entry_bytes = TraceContainerEntryBytes(version);
  if (size - at - kHeaderBytes < static_cast<size_t>(count) * entry_bytes) {
    return false;  // Truncated dump.
  }
  size_t have = out->size();
  out->resize(have + count);
  DecodeTraceRecords(version, data + at + kHeaderBytes, count,
                     out->data() + have);
  *offset = at + kHeaderBytes + static_cast<size_t>(count) * entry_bytes;
  return true;
}

}  // namespace

std::optional<std::vector<LogEntry>> DeserializeTrace(
    const std::vector<uint8_t>& blob) {
  // A validated index trailer delimits the data region exactly; without
  // one the whole blob must be segments.
  size_t data_bytes = blob.size();
  if (blob.size() >= kIndexTrailerBytes) {
    uint64_t index_bytes = ProbeIndexTrailer(
        blob.data() + blob.size() - kIndexTrailerBytes, blob.size());
    if (index_bytes != 0 &&
        ParseTraceIndex(blob.data() + (blob.size() - index_bytes),
                        index_bytes, blob.size() - index_bytes)
            .has_value()) {
      data_bytes = blob.size() - index_bytes;
    }
  }
  std::vector<LogEntry> entries;
  size_t offset = 0;
  // At least one segment, then as many as the data region holds.
  do {
    if (!ParseSegment(blob.data(), data_bytes, &offset, &entries)) {
      // Leftover bytes that are the remains of an index block are a
      // *damaged* index (its trailer or content failed validation above):
      // the data segments before it are intact, so keep them. Any other
      // leftover rejects the whole blob.
      if (offset > 0 &&
          LooksLikeIndexBlock(blob.data() + offset, data_bytes - offset)) {
        break;
      }
      return std::nullopt;
    }
  } while (offset < data_bytes);
  return entries;
}

bool WriteTraceFile(const std::string& path,
                    const std::vector<LogEntry>& entries, TraceFormat format) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  auto blob = SerializeTrace(entries, format);
  out.write(reinterpret_cast<const char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
  return static_cast<bool>(out);
}

std::optional<std::vector<LogEntry>> ReadTraceFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return std::nullopt;
  }
  std::vector<uint8_t> blob((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  return DeserializeTrace(blob);
}

// --- FileTraceSink -----------------------------------------------------------

FileTraceSink::FileTraceSink(const std::string& path, size_t segment_entries)
    : FileTraceSink(path, Options{segment_entries, /*write_index=*/false}) {}

FileTraceSink::FileTraceSink(const std::string& path, const Options& options)
    : path_(path),
      segment_entries_(options.segment_entries == 0 ? 1
                                                    : options.segment_entries),
      out_(path, std::ios::binary | std::ios::trunc),
      write_index_(options.write_index) {
  ok_ = static_cast<bool>(out_);
  buffer_.reserve(segment_entries_);
}

FileTraceSink::~FileTraceSink() { Close(); }

void FileTraceSink::Append(const LogEntry& entry) {
  if (write_index_) {
    index_builder_.Add(entry);
  }
  buffer_.push_back(entry);
  if (buffer_.size() >= segment_entries_) {
    SpillSegment();
  }
}

void FileTraceSink::SpillSegment() {
  if (buffer_.empty()) {
    return;
  }
  if (ok_) {
    auto blob = SerializeTrace(buffer_, TraceFormat::kAuto);
    out_.write(reinterpret_cast<const char*>(blob.data()),
               static_cast<std::streamsize>(blob.size()));
    ok_ = static_cast<bool>(out_);
    if (write_index_) {
      index_builder_.FinishSegment(bytes_written_, blob.size(),
                                   GetU16(blob.data() + 4),
                                   static_cast<uint32_t>(buffer_.size()));
    }
    bytes_written_ += blob.size();
    entries_written_ += buffer_.size();
    ++segments_written_;
  }
  buffer_.clear();
}

bool FileTraceSink::Close() {
  if (closed_) {
    return ok_;
  }
  closed_ = true;
  SpillSegment();
  if (ok_ && segments_written_ == 0) {
    // Nothing ever arrived: write one empty container so the file is a
    // valid (empty) trace, exactly as WriteTraceFile({}) would produce.
    auto blob = SerializeTrace({}, TraceFormat::kAuto);
    out_.write(reinterpret_cast<const char*>(blob.data()),
               static_cast<std::streamsize>(blob.size()));
    ok_ = static_cast<bool>(out_);
    if (write_index_) {
      index_builder_.FinishSegment(bytes_written_, blob.size(),
                                   GetU16(blob.data() + 4), 0);
    }
    bytes_written_ += blob.size();
    ++segments_written_;
  }
  if (ok_ && write_index_) {
    // The trailing index block: data segments are already byte-identical
    // with what an unindexed sink writes; everything from here on is the
    // appended index, streamed from the builder piece by piece.
    index_bytes_written_ =
        index_builder_.WriteBlock([this](const uint8_t* data, size_t size) {
          out_.write(reinterpret_cast<const char*>(data),
                     static_cast<std::streamsize>(size));
        });
    ok_ = static_cast<bool>(out_);
  }
  if (ok_) {
    out_.flush();
    ok_ = static_cast<bool>(out_);
  }
  out_.close();
  return ok_;
}

std::string DumpTraceText(const std::vector<LogEntry>& entries,
                          const ActivityRegistry& registry) {
  std::ostringstream os;
  for (const LogEntry& e : entries) {
    os << e.time << " " << e.icount << " ";
    SinkId sink = e.res_id < kSinkCount ? static_cast<SinkId>(e.res_id)
                                        : kSinkCount;
    const char* res_name = sink < kSinkCount ? SinkName(sink) : "?";
    switch (EntryType(e)) {
      case LogEntryType::kPowerState:
        os << "POW " << res_name << " "
           << (sink < kSinkCount
                   ? StateName(sink, static_cast<powerstate_t>(e.payload))
                   : std::to_string(e.payload));
        break;
      case LogEntryType::kActivitySet:
        os << "ACT " << res_name << " " << registry.Name(e.payload);
        break;
      case LogEntryType::kActivityBind:
        os << "BND " << res_name << " " << registry.Name(e.payload);
        break;
      case LogEntryType::kActivityAdd:
        os << "ADD " << res_name << " " << registry.Name(e.payload);
        break;
      case LogEntryType::kActivityRemove:
        os << "REM " << res_name << " " << registry.Name(e.payload);
        break;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace quanto
