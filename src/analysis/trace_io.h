// Trace serialization: the "get the data out of the node" step.
//
// The paper's prototype dumps its RAM buffer over the serial port or radio
// and parses it offline with custom tools. This module is that pipeline's
// host side: a compact binary container for raw entries (with a
// magic/version header so partial dumps are detected) and a human-readable
// text dump for eyeballing, both round-trippable.
//
// Three container versions coexist:
//  * v1 — the paper's 12-byte records with 16-bit payloads, labels in the
//    legacy <8-bit node : 8-bit id> encoding. Every trace whose labels fit
//    that encoding (all ≤256-node workloads) serializes to v1, keeping the
//    files byte-identical with what the pre-widening toolchain wrote.
//  * v2 — 14-byte records with 32-bit payloads carrying wide labels
//    (16-bit node field), introduced with the 1000+ mote refactor. Every
//    trace whose labels fit 16-bit origins (all ≤65 534-mote workloads)
//    serializes to v2 at the latest, byte-identical with what the
//    pre-wide-node toolchain wrote.
//  * v3 — 16-byte records with 48-bit little-endian payloads carrying
//    wide-node labels (32-bit node field), introduced with the city-scale
//    refactor.
// The writer picks the lowest version that fits; the reader accepts all.
#ifndef QUANTO_SRC_ANALYSIS_TRACE_IO_H_
#define QUANTO_SRC_ANALYSIS_TRACE_IO_H_

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "src/analysis/trace_index.h"
#include "src/core/activity_registry.h"
#include "src/core/log_entry.h"

namespace quanto {

// --- Binary container ---------------------------------------------------------

// Container versions (the u16 after the magic).
inline constexpr uint16_t kTraceVersionLegacy = 1;    // 12-byte records.
inline constexpr uint16_t kTraceVersionWide = 2;      // 14-byte records.
inline constexpr uint16_t kTraceVersionWideNode = 3;  // 16-byte records.

// Container header: magic "QNTO" | u16 version | u16 reserved | u32 count.
inline constexpr size_t kTraceContainerHeaderBytes = 4 + 2 + 2 + 4;

// Bytes per serialized record for a container version (12/14/16).
size_t TraceContainerEntryBytes(uint16_t version);

// Low-level container access, shared by DeserializeTrace and the
// segment-at-a-time reader (src/analysis/trace_reader.h). Both operate on
// exactly the same bytes-to-entries mapping, which is what makes the
// parallel per-segment decode byte-identical to the linear scan.
//
// Validates and decodes a container header at `p` (`avail` bytes
// available). False on bad magic, unknown version, or fewer than
// kTraceContainerHeaderBytes available.
bool ParseTraceSegmentHeader(const uint8_t* p, size_t avail,
                             uint16_t* version, uint32_t* count);

// Decodes `count` records of `version` starting at `p` (the byte after a
// container header) into `out[0..count)`. The caller has bounds-checked:
// count * TraceContainerEntryBytes(version) bytes must be readable.
void DecodeTraceRecords(uint16_t version, const uint8_t* p, uint32_t count,
                        LogEntry* out);

enum class TraceFormat {
  kAuto,  // Lowest version every entry fits: v1, else v2, else v3.
  kV2,    // Force v2 records (there is no forced v1: the paper layout
          //  cannot represent wide labels, so v1 is only ever automatic.
          //  Entries beyond 16-bit origins cannot be forced narrow either;
          //  kV2 on such entries yields v3, the narrowest that fits them).
  kV3,    // Force wide-node records.
};

// The version kAuto resolves to for these entries.
uint16_t TraceSerializationVersion(const std::vector<LogEntry>& entries);

// Serializes entries into a self-describing byte blob:
//   magic "QNTO" | u16 version | u16 reserved | u32 count | entries...
// Entries are written little-endian field by field (not memcpy'd), so the
// format is stable across hosts.
std::vector<uint8_t> SerializeTrace(const std::vector<LogEntry>& entries,
                                    TraceFormat format = TraceFormat::kAuto);

// Parses a blob of any version; returns nullopt on bad
// magic/version/truncation. A blob whose count field exceeds the available
// bytes is rejected rather than partially parsed (a truncated dump is a
// broken dump). v1 activity labels are widened to the in-memory encoding.
//
// The blob may be a *segmented* container: several complete containers
// concatenated back to back (what FileTraceSink spills, see
// docs/TRACE_FORMAT.md "Spill segments"). Segments are parsed in order and
// their entries concatenated; each segment carries its own version, so a
// legacy prefix followed by a wide segment is fine.
//
// The blob may additionally end in a segment-index block (docs/
// TRACE_FORMAT.md "Segment index"): a validated index delimits the data
// region exactly, and a *damaged* index — recognized by LooksLikeIndexBlock
// (its "QNTI" head, or a trailer sized to it) at the point where segment
// parsing stops — is ignored with the intact data segments kept. Any
// other trailing bytes that do not start a valid segment reject the whole
// blob (a truncated dump is a broken dump).
std::optional<std::vector<LogEntry>> DeserializeTrace(
    const std::vector<uint8_t>& blob);

// File convenience wrappers. Return false / nullopt on I/O failure.
bool WriteTraceFile(const std::string& path,
                    const std::vector<LogEntry>& entries,
                    TraceFormat format = TraceFormat::kAuto);
std::optional<std::vector<LogEntry>> ReadTraceFile(const std::string& path);

// --- Streaming spill writer ---------------------------------------------------

// Spills an entry stream to disk incrementally as a sequence of
// self-contained container segments, each holding at most
// `segment_entries` records. This is the streaming pipeline's offline
// tail: the merger's emit hook appends merged entries here, a segment is
// serialized and written whenever the buffer fills, and peak memory is one
// segment regardless of trace length. Each segment picks v1/v2
// independently (kAuto), so legacy workloads still spill the paper's
// 12-byte records; ReadTraceFile reassembles the segments transparently.
// A stream that fits one segment produces a file byte-identical to
// WriteTraceFile on the same entries.
//
// With `Options::write_index` set, the sink also accumulates a
// per-segment footer (time range, origin membership, per-activity rows —
// see src/analysis/trace_index.h) as entries arrive and streams the index
// block to the file at Close(). Accumulation happens wherever Append runs
// — under off-barrier emission that is the EmissionPipeline consumer
// thread, so indexing adds zero window-barrier cost. The data segments
// are byte-identical with the index on or off; the index is purely
// appended.
class FileTraceSink {
 public:
  inline static constexpr size_t kDefaultSegmentEntries = 1 << 16;

  struct Options {
    size_t segment_entries = kDefaultSegmentEntries;
    bool write_index = false;
  };

  FileTraceSink(const std::string& path,
                size_t segment_entries = kDefaultSegmentEntries);
  FileTraceSink(const std::string& path, const Options& options);
  ~FileTraceSink();

  FileTraceSink(const FileTraceSink&) = delete;
  FileTraceSink& operator=(const FileTraceSink&) = delete;

  // False when the file could not be opened or a write failed.
  bool ok() const { return ok_; }

  void Append(const LogEntry& entry);

  // Spills the buffered remainder, appends the index block (when
  // indexing) and flushes. Returns ok(). Called by the destructor if
  // needed; call it explicitly to observe the result.
  bool Close();

  uint64_t entries_written() const { return entries_written_; }
  uint64_t segments_written() const { return segments_written_; }
  size_t segment_entries() const { return segment_entries_; }
  bool write_index() const { return write_index_; }
  // Bytes of the appended index block; 0 until Close() (or when not
  // indexing).
  uint64_t index_bytes_written() const { return index_bytes_written_; }

 private:
  void SpillSegment();

  std::string path_;
  size_t segment_entries_;
  std::vector<LogEntry> buffer_;
  std::ofstream out_;
  bool ok_ = false;
  bool closed_ = false;
  bool write_index_ = false;
  uint64_t entries_written_ = 0;
  uint64_t segments_written_ = 0;
  uint64_t bytes_written_ = 0;
  uint64_t index_bytes_written_ = 0;
  TraceIndexBuilder index_builder_;
};

// --- Text dump ------------------------------------------------------------------

// One line per entry:
//   <time> <icount> <POW|ACT|BND|ADD|REM> <resource-name> <payload-name>
std::string DumpTraceText(const std::vector<LogEntry>& entries,
                          const ActivityRegistry& registry);

}  // namespace quanto

#endif  // QUANTO_SRC_ANALYSIS_TRACE_IO_H_
