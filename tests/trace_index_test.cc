// The segment index and the indexed read path: footer accumulation,
// serialized block layout (byte-pinned golden), backward/forward
// compatibility, parallel decode identity at 1/2/4 threads, and
// index-pruned filtered queries proven equal to full-scan-then-filter —
// on synthetic streams and on real grid/chain network spills.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/analysis/emission_pipeline.h"
#include "src/analysis/trace_index.h"
#include "src/analysis/trace_io.h"
#include "src/analysis/trace_merge.h"
#include "src/analysis/trace_reader.h"
#include "src/apps/scale_network.h"
#include "src/hw/sinks.h"
#include "src/net/medium.h"
#include "src/sim/sharded_sim.h"
#include "tests/test_files.h"

namespace quanto {
namespace {

LogEntry ActEntry(uint32_t time, uint32_t icount, node_id_t origin,
                  act_id_t id, LogEntryType type = LogEntryType::kActivitySet,
                  res_id_t res = kSinkCpu) {
  LogEntry e{};
  e.type = static_cast<uint8_t>(type);
  e.res_id = res;
  e.time = time;
  e.icount = icount;
  e.payload = MakeActivity(origin, id);
  return e;
}

LogEntry PowerEntry(uint32_t time, uint32_t icount, uint64_t payload = 1) {
  LogEntry e{};
  e.type = static_cast<uint8_t>(LogEntryType::kPowerState);
  e.res_id = kSinkLed0;
  e.time = time;
  e.icount = icount;
  e.payload = payload;
  return e;
}

// A merged-stream-shaped synthetic trace: nondecreasing u32 times with one
// deliberate 32-bit wrap, CPU activity switches driving pulse attribution,
// and origins spread far enough apart to give the index something to
// prune. Deterministic by construction.
std::vector<LogEntry> SyntheticStream(size_t n) {
  std::vector<LogEntry> entries;
  entries.reserve(n);
  uint32_t time = 0xFFFF0000u;  // Wraps a few thousand entries in.
  uint32_t icount = 0;
  for (size_t i = 0; i < n; ++i) {
    time += 37;  // u32 arithmetic: wraps on overflow, as a real clock does.
    icount += static_cast<uint32_t>(1 + i % 5);
    node_id_t origin = static_cast<node_id_t>(1 + (i * 257) % 400);
    if (i % 7 == 3) {
      entries.push_back(PowerEntry(time, icount, i % 2));
    } else {
      entries.push_back(ActEntry(time, icount, origin,
                                 static_cast<act_id_t>(1 + i % 13)));
    }
  }
  return entries;
}

void WriteSpill(const std::string& path, const std::vector<LogEntry>& entries,
                size_t segment_entries, bool write_index) {
  FileTraceSink::Options opts;
  opts.segment_entries = segment_entries;
  opts.write_index = write_index;
  FileTraceSink sink(path, opts);
  ASSERT_TRUE(sink.ok());
  for (const LogEntry& e : entries) {
    sink.Append(e);
  }
  ASSERT_TRUE(sink.Close());
}

// The entry-level query semantics, written independently of the reader:
// filtering the full linear stream this way must equal ReadFiltered.
std::vector<LogEntry> FilterFullScan(const std::vector<LogEntry>& all,
                                     const TraceQuery& q) {
  std::vector<node_id_t> origins = q.origins;
  std::vector<act_t> activities = q.activities;
  StreamIngestState chain;
  std::vector<LogEntry> out;
  for (const LogEntry& e : all) {
    uint64_t t64 = chain.Unwrap(e);
    if (q.has_time_range && (t64 < q.time_min || t64 > q.time_max)) {
      continue;
    }
    bool is_activity = EntryType(e) != LogEntryType::kPowerState;
    if (!origins.empty()) {
      bool hit = false;
      for (node_id_t o : origins) {
        hit |= is_activity && ActivityOrigin(e.payload) == o;
      }
      if (!hit) {
        continue;
      }
    }
    if (!activities.empty()) {
      bool hit = false;
      for (act_t a : activities) {
        hit |= is_activity && e.payload == a;
      }
      if (!hit) {
        continue;
      }
    }
    out.push_back(e);
  }
  return out;
}

void ExpectSameEntries(const std::vector<LogEntry>& got,
                       const std::vector<LogEntry>& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(EntryStreamHash(got), EntryStreamHash(want));
}

void ExpectSameTotals(const std::map<act_t, ActivitySummary>& got,
                      const std::map<act_t, ActivitySummary>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (auto g = got.begin(), w = want.begin(); g != got.end(); ++g, ++w) {
    EXPECT_EQ(g->first, w->first);
    EXPECT_EQ(g->second.entries, w->second.entries) << "label " << g->first;
    EXPECT_EQ(g->second.pulses, w->second.pulses) << "label " << g->first;
  }
}

// --- Builder + serialized block -------------------------------------------

// A segment's rows, decoded out of the index's encoded form.
std::vector<ActivityRow> Rows(const SegmentFooter& seg) {
  return std::vector<ActivityRow>(seg.activities.begin(),
                                  seg.activities.end());
}

// The block a builder writes, in one buffer.
std::vector<uint8_t> BlockBytes(const TraceIndexBuilder& builder) {
  std::vector<uint8_t> block;
  uint64_t size = builder.WriteBlock([&block](const uint8_t* data, size_t n) {
    block.insert(block.end(), data, data + n);
  });
  EXPECT_EQ(size, block.size());
  return block;
}

// What every reader sees of a builder's footers: its block, parsed.
TraceIndex ParseBuilt(const TraceIndexBuilder& builder, uint64_t data_bytes) {
  auto block = BlockBytes(builder);
  auto parsed = ParseTraceIndex(block.data(), block.size(), data_bytes);
  EXPECT_TRUE(parsed.has_value()) << "builder block rejected";
  return parsed.value_or(TraceIndex{});
}

// Version 1 (fixed 20-byte rows, no totals table), the layout the first
// indexed spills carry: one segment at [0, 0x24) of 2 v1 records, hand
// encoded. The program no longer writes it; readers still accept it.
const std::vector<uint8_t> kGoldenV1Block = {
    // Header: magic, version 1, reserved, 1 segment, 2 entries.
    'Q', 'N', 'T', 'I', 1, 0, 0, 0, 1, 0, 0, 0,
    2, 0, 0, 0, 0, 0, 0, 0,
    // Segment record: offset 0, length 0x24 (v1: 12 + 2 * 12).
    0, 0, 0, 0, 0, 0, 0, 0, 0x24, 0, 0, 0, 0, 0, 0, 0,
    // entries 2, version 1, 1 activity row.
    2, 0, 0, 0, 1, 0, 1, 0,
    // time_min64, time_max64 (little-endian).
    8, 7, 6, 5, 4, 3, 2, 1,
    0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11,
    // origin_min 5, origin_max 7, origin_filter 0xA0.
    5, 0, 0, 0, 7, 0, 0, 0, 0xA0, 0, 0, 0, 0, 0, 0, 0,
    // Activity row: label (5 << 16 | 2), 1 entry, 10 pulses.
    2, 0, 5, 0, 0, 0, 0, 0, 1, 0, 0, 0, 10, 0, 0, 0, 0, 0, 0, 0,
    // Trailer: block size 108 = 20 + 56 + 20 + 12, end magic.
    108, 0, 0, 0, 0, 0, 0, 0, 'Q', 'I', 'D', 'X',
};

// The stream behind the version 2 golden block: two v1 segments of two
// entries, the second crossing a u32 time wrap.
std::vector<LogEntry> GoldenStream() {
  return {ActEntry(100, 50, 5, 2),
          ActEntry(200, 60, 7, 3, LogEntryType::kActivityAdd, kSinkRadioRx),
          PowerEntry(300, 65), ActEntry(10, 70, 70, 1)};
}

TraceIndexBuilder GoldenBuilder() {
  TraceIndexBuilder builder;
  auto entries = GoldenStream();
  builder.Add(entries[0]);
  builder.Add(entries[1]);
  builder.FinishSegment(0, 36, 1, 2);
  builder.Add(entries[2]);
  builder.Add(entries[3]);
  builder.FinishSegment(36, 36, 1, 2);
  return builder;
}

TEST(TraceIndexTest, BuilderFootersDescribeSegments) {
  TraceIndexBuilder builder;
  // Segment 0: two activity entries, the first switching the CPU to
  // label (5, 2). Pulses between entries accrue to the activity current
  // *before* each entry — label 0 gets the 10 pulses up to entry 2.
  builder.Add(ActEntry(100, 50, 5, 2));
  builder.Add(ActEntry(200, 60, 7, 3, LogEntryType::kActivityAdd,
                       kSinkRadioRx));
  builder.FinishSegment(0, 36, 1, 2);
  // Segment 1: a power entry (no origin), then a wrap in time.
  builder.Add(PowerEntry(300, 65));
  builder.Add(ActEntry(10, 70, 70, 1));  // u32 time wrapped past zero.
  builder.FinishSegment(36, 40, 2, 2);

  TraceIndex index = ParseBuilt(builder, 76);
  EXPECT_EQ(index.version, kIndexVersion);
  ASSERT_EQ(index.segments.size(), 2u);
  EXPECT_EQ(index.total_entries, 4u);

  const SegmentFooter& s0 = index.segments[0];
  EXPECT_EQ(s0.offset, 0u);
  EXPECT_EQ(s0.length, 36u);
  EXPECT_EQ(s0.entries, 2u);
  EXPECT_EQ(s0.container_version, 1u);
  EXPECT_EQ(s0.time_min64, 100u);
  EXPECT_EQ(s0.time_max64, 200u);
  EXPECT_EQ(s0.origin_min, 5u);
  EXPECT_EQ(s0.origin_max, 7u);
  EXPECT_EQ(s0.origin_filter, (uint64_t{1} << 5) | (uint64_t{1} << 7));
  ASSERT_EQ(s0.activities.size(), 2u);
  auto rows0 = Rows(s0);
  ASSERT_EQ(rows0.size(), 2u);
  EXPECT_EQ(rows0[0].first, MakeActivity(5, 2));
  EXPECT_EQ(rows0[0].second.entries, 1u);
  // Entry 2's delta (60 - 50) lands on the activity set at entry 1.
  EXPECT_EQ(rows0[0].second.pulses, 10u);
  EXPECT_EQ(rows0[1].first, MakeActivity(7, 3));
  EXPECT_EQ(rows0[1].second.pulses, 0u);
  EXPECT_TRUE(s0.MayContainOrigin(5));
  EXPECT_TRUE(s0.MayContainOrigin(7));
  EXPECT_FALSE(s0.MayContainOrigin(6));    // Range hit, filter bit clear.
  EXPECT_FALSE(s0.MayContainOrigin(200));  // Outside the range.
  EXPECT_TRUE(s0.OverlapsTime(150, 400));
  EXPECT_FALSE(s0.OverlapsTime(201, 400));

  const SegmentFooter& s1 = index.segments[1];
  EXPECT_EQ(s1.offset, 36u);
  EXPECT_EQ(s1.container_version, 2u);
  // The unwrap chain spans segments: the wrapped entry lands past 2^32.
  EXPECT_EQ(s1.time_min64, 300u);
  EXPECT_EQ(s1.time_max64, (uint64_t{1} << 32) | 10u);
  EXPECT_EQ(s1.origin_min, 70u);
  EXPECT_EQ(s1.origin_max, 70u);
  // The CPU was still on (5, 2): segment 1's 10 pulses accrue to it even
  // though no entry in segment 1 carries the label.
  ASSERT_EQ(s1.activities.size(), 2u);
  auto rows1 = Rows(s1);
  ASSERT_EQ(rows1.size(), 2u);
  EXPECT_EQ(rows1[0].first, MakeActivity(5, 2));
  EXPECT_EQ(rows1[0].second.entries, 0u);
  EXPECT_EQ(rows1[0].second.pulses, 10u);

  // The file-level table sums the rows of both segments.
  ASSERT_EQ(index.totals.size(), 3u);
  EXPECT_EQ(index.totals[0].first, MakeActivity(5, 2));
  EXPECT_EQ(index.totals[0].second.entries, 1u);
  EXPECT_EQ(index.totals[0].second.pulses, 20u);
  EXPECT_EQ(index.totals[2].first, MakeActivity(70, 1));
  EXPECT_EQ(index.totals[2].second.entries, 1u);
}

TEST(TraceIndexTest, GoldenIndexBlockBytes) {
  // The block the builder writes, byte for byte — pins the version 2
  // layout docs/TRACE_FORMAT.md documents. Any codec change that reshapes
  // the block must show up here.
  auto blob = BlockBytes(GoldenBuilder());
  std::vector<uint8_t> expected = {
      // Header: magic, version 2, reserved, 2 segments, 4 entries.
      'Q', 'N', 'T', 'I', 2, 0, 0, 0, 2, 0, 0, 0,
      4, 0, 0, 0, 0, 0, 0, 0,
      // Record 0: offset 0, length 36 (v1: 12 + 2 * 12).
      0, 0, 0, 0, 0, 0, 0, 0, 36, 0, 0, 0, 0, 0, 0, 0,
      // entries 2, container version 1, reserved.
      2, 0, 0, 0, 1, 0, 0, 0,
      // time_min64 100, time_max64 200.
      100, 0, 0, 0, 0, 0, 0, 0, 200, 0, 0, 0, 0, 0, 0, 0,
      // origin_min 5, origin_max 7, origin_filter bits 5 and 7.
      5, 0, 0, 0, 7, 0, 0, 0, 0xA0, 0, 0, 0, 0, 0, 0, 0,
      // row_count 2, row_bytes 9.
      2, 0, 0, 0, 9, 0, 0, 0,
      // Record 1: offset 36, length 36, entries 2, version 1, reserved.
      36, 0, 0, 0, 0, 0, 0, 0, 36, 0, 0, 0, 0, 0, 0, 0,
      2, 0, 0, 0, 1, 0, 0, 0,
      // time_min64 300, time_max64 2^32 + 10 (the wrap).
      0x2C, 1, 0, 0, 0, 0, 0, 0, 10, 0, 0, 0, 1, 0, 0, 0,
      // origin_min = origin_max = 70, origin_filter bit 70 % 64.
      70, 0, 0, 0, 70, 0, 0, 0, 0x40, 0, 0, 0, 0, 0, 0, 0,
      // row_count 2, row_bytes 10.
      2, 0, 0, 0, 10, 0, 0, 0,
      // Segment 0 rows. Label (5, 2) = 0x50002 as a varint; 1 entry with
      // pulses (1 * 2 + 1); 10 pulses.
      0x82, 0x80, 0x14, 3, 10,
      // Label (7, 3), +0x20001 from (5, 2); 1 entry, no pulses (1 * 2).
      0x81, 0x80, 0x08, 2,
      // Segment 1 rows, deltas restarting from 0: (5, 2) with no entries
      // and 10 pulses, then (70, 1) at +0x40FFFF with 1 entry.
      0x82, 0x80, 0x14, 1, 10,
      0xFF, 0xFF, 0x83, 0x02, 2,
      // Totals table: 3 labels. (5, 2): 1 entry, 20 pulses; (7, 3): 1
      // entry; (70, 1) at +0x3EFFFE: 1 entry.
      3, 0, 0, 0,
      0x82, 0x80, 0x14, 3, 20,
      0x81, 0x80, 0x08, 2,
      0xFE, 0xFF, 0xFB, 0x01, 2,
      // Trailer: block size 197 = 20 + 2 * 64 + 19 + 18 + 12, end magic.
      197, 0, 0, 0, 0, 0, 0, 0, 'Q', 'I', 'D', 'X',
  };
  EXPECT_EQ(blob, expected);

  auto parsed = ParseTraceIndex(blob.data(), blob.size(), 72);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->version, 2u);
  EXPECT_EQ(parsed->total_entries, 4u);
  EXPECT_EQ(parsed->row_bytes, 19u);
  ASSERT_EQ(parsed->segments.size(), 2u);
  ASSERT_EQ(parsed->segments[1].activities.size(), 2u);
  auto rows1 = Rows(parsed->segments[1]);
  ASSERT_EQ(rows1.size(), 2u);
  EXPECT_EQ(rows1[1].first, MakeActivity(70, 1));
  auto totals = parsed->ActivityTotals();
  ASSERT_EQ(totals.size(), 3u);
  EXPECT_EQ(totals[MakeActivity(5, 2)].pulses, 20u);
}

TEST(TraceIndexTest, Version1GoldenBlockStillParses) {
  auto parsed = ParseTraceIndex(kGoldenV1Block.data(), kGoldenV1Block.size(),
                                0x24);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->version, kIndexVersionFixedRows);
  EXPECT_EQ(parsed->total_entries, 2u);
  EXPECT_EQ(parsed->row_bytes, 20u);
  EXPECT_TRUE(parsed->totals.empty());
  ASSERT_EQ(parsed->segments.size(), 1u);
  const SegmentFooter& seg = parsed->segments[0];
  EXPECT_EQ(seg.length, 0x24u);
  EXPECT_EQ(seg.time_min64, 0x0102030405060708ull);
  EXPECT_EQ(seg.time_max64, 0x1112131415161718ull);
  EXPECT_EQ(seg.origin_filter, 0xA0u);
  ASSERT_EQ(seg.activities.size(), 1u);
  auto rows = Rows(seg);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].first, MakeActivity(5, 2));
  EXPECT_EQ(rows[0].second.entries, 1u);
  EXPECT_EQ(rows[0].second.pulses, 10u);
  // Without a totals table, the totals are the summed rows.
  auto totals = parsed->ActivityTotals();
  ASSERT_EQ(totals.size(), 1u);
  EXPECT_EQ(totals[MakeActivity(5, 2)].pulses, 10u);
}

TEST(TraceIndexTest, ParseRejectsCorruptBlocks) {
  // Two segments of 32 v3 (16-byte) records.
  TraceIndexBuilder builder;
  auto entries = SyntheticStream(64);
  uint64_t seg_len = kTraceContainerHeaderBytes + 32 * 16;
  for (size_t i = 0; i < 32; ++i) {
    builder.Add(entries[i]);
  }
  builder.FinishSegment(0, seg_len, 3, 32);
  for (size_t i = 32; i < 64; ++i) {
    builder.Add(entries[i]);
  }
  builder.FinishSegment(seg_len, seg_len, 3, 32);
  uint64_t data_bytes = 2 * seg_len;
  auto good = BlockBytes(builder);
  auto parsed = ParseTraceIndex(good.data(), good.size(), data_bytes);
  ASSERT_TRUE(parsed.has_value());
  size_t record1 = kIndexHeaderBytes + kSegmentRecordBytesV2;
  size_t totals_at = kIndexHeaderBytes + 2 * kSegmentRecordBytesV2 +
                     static_cast<size_t>(parsed->row_bytes);

  auto mutate = [&](size_t at, uint8_t value) {
    auto blob = good;
    blob[at] = value;
    return ParseTraceIndex(blob.data(), blob.size(), data_bytes).has_value();
  };
  EXPECT_FALSE(mutate(0, 'X'));                  // Magic.
  EXPECT_FALSE(mutate(4, 9));                    // Version.
  EXPECT_FALSE(mutate(6, 1));                    // Reserved header field.
  EXPECT_FALSE(mutate(8, 7));                    // Segment count.
  EXPECT_FALSE(mutate(12, 99));                  // Total entries.
  EXPECT_FALSE(mutate(20, 1));                   // Segment 0 offset != 0.
  EXPECT_FALSE(mutate(20 + 22, 1));              // Reserved record field.
  EXPECT_FALSE(mutate(record1 + 56, 0xFF));      // Segment 1 row count.
  EXPECT_FALSE(mutate(record1 + 60, 0));         // Segment 1 row bytes.
  EXPECT_FALSE(mutate(totals_at, 0xFF));         // Totals label count.
  // The last totals row's last byte: the table no longer sums the rows.
  size_t last = good.size() - kIndexTrailerBytes - 1;
  EXPECT_FALSE(mutate(last, good[last] ^ 1));
  EXPECT_FALSE(mutate(good.size() - 1, 'x'));    // End magic.
  EXPECT_FALSE(mutate(good.size() - 12, 0xFF));  // Trailer size.
  // Counts the bytes left cannot hold reject before anything is reserved.
  for (size_t at : {size_t{8}, record1 + 56, totals_at}) {
    auto blob = good;
    std::memset(blob.data() + at, 0xFF, 4);
    EXPECT_FALSE(ParseTraceIndex(blob.data(), blob.size(), data_bytes))
        << "count at byte " << at;
  }
  // Truncation and a lying data_bytes both reject.
  EXPECT_FALSE(ParseTraceIndex(good.data(), good.size() - 1, data_bytes));
  EXPECT_FALSE(ParseTraceIndex(good.data(), good.size(), data_bytes - 16));
}

TEST(TraceIndexTest, ActivityTotalsMatchFullScan) {
  auto entries = SyntheticStream(5000);
  TraceIndexBuilder builder;
  uint64_t offset = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    builder.Add(entries[i]);
    if (builder.pending_entries() == 777 || i + 1 == entries.size()) {
      uint32_t count = builder.pending_entries();
      uint64_t length = kTraceContainerHeaderBytes + uint64_t{count} * 16;
      builder.FinishSegment(offset, length, 3, count);
      offset += length;
    }
  }
  TraceIndex index = ParseBuilt(builder, offset);
  auto footer_totals = index.ActivityTotals();
  auto scan_totals = TraceIndexBuilder::ScanActivityTotals(entries);
  ASSERT_EQ(footer_totals.size(), scan_totals.size());
  for (const auto& [act, row] : scan_totals) {
    auto it = footer_totals.find(act);
    ASSERT_NE(it, footer_totals.end());
    EXPECT_EQ(it->second.entries, row.entries);
    EXPECT_EQ(it->second.pulses, row.pulses);
  }
  // The totals table and the summed segment rows agree.
  index.version = kIndexVersionFixedRows;
  auto summed_rows = index.ActivityTotals();
  ASSERT_EQ(summed_rows.size(), footer_totals.size());
  for (const auto& [act, row] : footer_totals) {
    EXPECT_EQ(summed_rows[act].entries, row.entries);
    EXPECT_EQ(summed_rows[act].pulses, row.pulses);
  }
}

TEST(TraceIndexTest, BlockBytesIgnoreLabelArrivalOrder) {
  // The same rows, labels arriving in opposite orders and numerous enough
  // to grow the builder's table several times: the blocks are identical.
  TraceIndexBuilder forward;
  TraceIndexBuilder backward;
  constexpr uint32_t kLabels = 500;
  uint64_t length = kTraceContainerHeaderBytes + kLabels * 14;  // v2 records.
  for (uint16_t seg = 0; seg < 3; ++seg) {
    for (uint32_t i = 0; i < kLabels; ++i) {
      forward.Add(ActEntry(1000, 7, 1 + i, 1 + seg,
                           LogEntryType::kActivityAdd, kSinkRadioRx));
      backward.Add(ActEntry(1000, 7, kLabels - i, 1 + seg,
                            LogEntryType::kActivityAdd, kSinkRadioRx));
    }
    forward.FinishSegment(seg * length, length, 2, kLabels);
    backward.FinishSegment(seg * length, length, 2, kLabels);
  }
  auto block = BlockBytes(forward);
  EXPECT_EQ(block, BlockBytes(backward));
  TraceIndex index = ParseBuilt(forward, 3 * length);
  ASSERT_EQ(index.segments.size(), 3u);
  EXPECT_EQ(index.segments[2].activities.size(), kLabels);
  EXPECT_EQ(index.totals.size(), 3 * kLabels);
}

// --- Indexed spill files ---------------------------------------------------

TEST(IndexedSpillTest, IndexedFileIsUnindexedFilePlusBlock) {
  auto entries = SyntheticStream(3000);
  std::string plain = TempPath("plain");
  std::string indexed = TempPath("indexed");
  WriteSpill(plain, entries, 256, false);
  WriteSpill(indexed, entries, 256, true);

  auto plain_bytes = Slurp(plain);
  auto indexed_bytes = Slurp(indexed);
  ASSERT_GT(indexed_bytes.size(), plain_bytes.size());
  // The data region is untouched — the index is strictly appended.
  EXPECT_TRUE(std::equal(plain_bytes.begin(), plain_bytes.end(),
                         indexed_bytes.begin()));
  // And the appendix is exactly the serialized index.
  auto parsed = ParseTraceIndex(indexed_bytes.data() + plain_bytes.size(),
                                indexed_bytes.size() - plain_bytes.size(),
                                plain_bytes.size());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->total_entries, entries.size());
  EXPECT_EQ(parsed->segments.size(), (entries.size() + 255) / 256);

  // The legacy whole-file readers accept both files identically.
  auto from_plain = ReadTraceFile(plain);
  auto from_indexed = ReadTraceFile(indexed);
  ASSERT_TRUE(from_plain.has_value());
  ASSERT_TRUE(from_indexed.has_value());
  ExpectSameEntries(*from_indexed, *from_plain);
  ExpectSameEntries(*from_indexed, entries);
  std::remove(plain.c_str());
  std::remove(indexed.c_str());
}

TEST(IndexedSpillTest, EmptyIndexedSpillRoundTrips) {
  std::string path = TempPath("empty_indexed");
  WriteSpill(path, {}, 256, true);
  auto restored = ReadTraceFile(path);
  ASSERT_TRUE(restored.has_value());
  EXPECT_TRUE(restored->empty());
  TraceFileReader reader(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader.has_index());
  auto all = reader.ReadAll();
  ASSERT_TRUE(all.has_value());
  EXPECT_TRUE(all->empty());
  std::remove(path.c_str());
}

TEST(IndexedSpillTest, DamagedIndexFallsBackToLinearScan) {
  auto entries = SyntheticStream(2000);
  std::string path = TempPath("damaged");
  WriteSpill(path, entries, 256, true);
  auto bytes = Slurp(path);
  uint64_t index_bytes = 0;
  for (size_t i = 0; i < 8; ++i) {
    index_bytes |= uint64_t{bytes[bytes.size() - 12 + i]} << (8 * i);
  }
  size_t block_start = bytes.size() - static_cast<size_t>(index_bytes);

  // Corrupt segment 0's recorded offset (must be 0): the trailer still
  // probes and the block still opens with the index magic, but validation
  // fails — the data survives a linear scan.
  {
    auto corrupt = bytes;
    corrupt[block_start + kIndexHeaderBytes] ^= 0xFF;
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char*>(corrupt.data()), corrupt.size());
    auto restored = ReadTraceFile(path);
    ASSERT_TRUE(restored.has_value());
    ExpectSameEntries(*restored, entries);
    TraceFileReader reader(path);
    ASSERT_TRUE(reader.ok());
    EXPECT_FALSE(reader.has_index());
    EXPECT_NE(reader.index_note().find("rejected"), std::string::npos);
    auto all = reader.ReadAll(4);
    ASSERT_TRUE(all.has_value());
    ExpectSameEntries(*all, entries);
  }

  // Truncate mid-index (trailer gone): the partial block starts with the
  // index magic, so the linear scan still tolerates it.
  {
    auto truncated = bytes;
    truncated.resize(truncated.size() - 40);
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char*>(truncated.data()),
               truncated.size());
    auto restored = ReadTraceFile(path);
    ASSERT_TRUE(restored.has_value());
    ExpectSameEntries(*restored, entries);
    TraceFileReader reader(path);
    ASSERT_TRUE(reader.ok());
    EXPECT_FALSE(reader.has_index());
    auto all = reader.ReadAll();
    ASSERT_TRUE(all.has_value());
    ExpectSameEntries(*all, entries);
  }
  std::remove(path.c_str());
}

TEST(IndexedSpillTest, ArbitraryTrailingGarbageStillRejected) {
  // The index tolerance must not weaken the original strictness: a tail
  // that is not an index block still fails the whole parse.
  auto entries = SyntheticStream(300);
  std::string path = TempPath("garbage");
  WriteSpill(path, entries, 256, false);
  auto bytes = Slurp(path);
  bytes.push_back(0xFF);
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  EXPECT_FALSE(ReadTraceFile(path).has_value());
  TraceFileReader reader(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader.has_index());
  EXPECT_FALSE(reader.ReadAll().has_value());
  std::remove(path.c_str());
}

std::vector<uint8_t> Concat(std::vector<uint8_t> head,
                            const std::vector<uint8_t>& tail) {
  head.insert(head.end(), tail.begin(), tail.end());
  return head;
}

TEST(IndexedSpillTest, HostileSegmentCountIsRejectedNotAllocated) {
  // 44 bytes: an empty v1 container, then an index header that claims
  // 0xFFFFFFFF segments, then a trailer that frames the 32-byte block.
  // The count is refused for want of bytes, before any allocation.
  for (uint8_t version : {1, 2}) {
    std::vector<uint8_t> block = {
        'Q', 'N', 'T', 'I', version, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF,
        0, 0, 0, 0, 0, 0, 0, 0,
        32, 0, 0, 0, 0, 0, 0, 0, 'Q', 'I', 'D', 'X'};
    auto bytes = Concat(SerializeTrace({}), block);
    ASSERT_EQ(bytes.size(), 44u);
    EXPECT_FALSE(ParseTraceIndex(block.data(), block.size(),
                                 kTraceContainerHeaderBytes));
    std::string path = TempPath("hostile");
    WriteBytes(path, bytes);
    TraceFileReader reader(path);
    ASSERT_TRUE(reader.ok());
    EXPECT_FALSE(reader.has_index());
    EXPECT_NE(reader.index_note().find("rejected"), std::string::npos);
    auto all = reader.ReadAll();
    ASSERT_TRUE(all.has_value()) << "version " << int{version};
    EXPECT_TRUE(all->empty());
    auto restored = ReadTraceFile(path);
    ASSERT_TRUE(restored.has_value()) << "version " << int{version};
    EXPECT_TRUE(restored->empty());
    std::remove(path.c_str());
  }
}

// 70 000 distinct labels in one segment: more rows than version 1's u16
// row count could hold. A constant iCount keeps pulses out, so there is
// exactly one row per label, and the labels step by one within each of
// 70 origins of 1 000 ids.
std::vector<LogEntry> WideSegmentEntries() {
  std::vector<LogEntry> entries;
  for (uint32_t i = 0; i < 70000; ++i) {
    entries.push_back(ActEntry(1000 + i, 7, 1 + i / 1000,
                               static_cast<act_id_t>(1 + i % 1000)));
  }
  return entries;
}

TEST(IndexedSpillTest, SegmentWithMoreThan65535RowsStaysIndexed) {
  auto entries = WideSegmentEntries();
  std::string path = TempPath("wide_segment");
  WriteSpill(path, entries, 70000, true);
  TraceFileReader reader(path);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader.has_index()) << reader.index_note();
  ASSERT_EQ(reader.index().segments.size(), 1u);
  EXPECT_EQ(reader.index().segments[0].activities.size(), 70000u);
  ReadStats stats;
  auto totals = reader.ActivityTotals(&stats);
  ASSERT_TRUE(totals.has_value());
  EXPECT_EQ(stats.segments_read, 0u);
  EXPECT_EQ(totals->size(), 70000u);
  ExpectSameTotals(*totals, TraceIndexBuilder::ScanActivityTotals(entries));
  std::remove(path.c_str());
}

void ExpectSameRows(const std::vector<ActivityRow>& got,
                    const std::vector<ActivityRow>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first) << "row " << i;
    EXPECT_EQ(got[i].second.entries, want[i].second.entries) << "row " << i;
    EXPECT_EQ(got[i].second.pulses, want[i].second.pulses) << "row " << i;
  }
}

// Find on `label` agrees with the decoded `rows` (sorted by label).
void ExpectFindAgrees(const ActivityRows& view,
                      const std::vector<ActivityRow>& rows, act_t label,
                      const std::string& what) {
  auto it = std::lower_bound(
      rows.begin(), rows.end(), label,
      [](const ActivityRow& row, act_t value) { return row.first < value; });
  bool stored = it != rows.end() && it->first == label;
  std::optional<ActivitySummary> found = view.Find(label);
  ASSERT_EQ(found.has_value(), stored) << what << ": label " << label;
  if (stored) {
    EXPECT_EQ(found->entries, it->second.entries) << what << ": " << label;
    EXPECT_EQ(found->pulses, it->second.pulses) << what << ": " << label;
  }
}

// Walks every row of `seg`, then checks Find against the walk on every
// stored label, each label +- 1, and both ends of the label range.
void ExpectViewConsistent(const SegmentFooter& seg, const std::string& what) {
  std::vector<ActivityRow> rows;
  for (const ActivityRow& row : seg.activities) {
    ASSERT_TRUE(rows.empty() || row.first > rows.back().first) << what;
    rows.push_back(row);
  }
  ASSERT_EQ(rows.size(), seg.activities.size()) << what;
  EXPECT_EQ(rows.empty(), seg.activities.empty()) << what;
  ExpectFindAgrees(seg.activities, rows, 0, what);
  ExpectFindAgrees(seg.activities, rows, ~act_t{0}, what);
  for (const ActivityRow& row : rows) {
    ExpectFindAgrees(seg.activities, rows, row.first - 1, what);
    ExpectFindAgrees(seg.activities, rows, row.first, what);
    ExpectFindAgrees(seg.activities, rows, row.first + 1, what);
  }
}

TEST(IndexedSpillTest, FindHitsEveryRestartBoundaryOfAWideSegment) {
  auto entries = WideSegmentEntries();
  std::string path = TempPath("wide_find");
  WriteSpill(path, entries, 70000, true);
  TraceFileReader reader(path);
  ASSERT_TRUE(reader.has_index()) << reader.index_note();
  const ActivityRows& view = reader.index().segments[0].activities;
  auto rows = Rows(reader.index().segments[0]);
  ASSERT_EQ(rows.size(), 70000u);
  constexpr size_t kStep = ActivityRows::kRestartInterval;
  // Rows at, just before and just after every restart, and the labels
  // one either side of each restart's own: the ids run 1..1000 in each
  // origin, so some of those neighbours are stored and some are not.
  for (size_t r = 0; r < rows.size(); r += kStep) {
    for (size_t at : {r - 1, r, r + 1}) {
      if (at < rows.size()) {
        ExpectFindAgrees(view, rows, rows[at].first,
                         "row " + std::to_string(at));
      }
    }
    ExpectFindAgrees(view, rows, rows[r].first - 1, "below restart " +
                                                        std::to_string(r));
    ExpectFindAgrees(view, rows, rows[r].first + 1, "above restart " +
                                                        std::to_string(r));
  }
  // The last run is shorter than a full interval.
  ASSERT_NE(rows.size() % kStep, 0u);
  ExpectFindAgrees(view, rows, rows.back().first, "last row");
  ExpectFindAgrees(view, rows, rows.back().first + 1, "past the last row");
  ExpectFindAgrees(view, rows, 0, "below every row");
  std::remove(path.c_str());
}

TEST(IndexedSpillTest, RowViewsOutliveTheirSource) {
  // ParseBuilt returns value_or's copy; the optional it copied from is
  // gone by the time the rows are read.
  TraceIndex index = ParseBuilt(GoldenBuilder(), 72);
  ASSERT_EQ(index.segments.size(), 2u);
  auto rows = Rows(index.segments[1]);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1].first, MakeActivity(70, 1));
  auto found = index.segments[1].activities.Find(MakeActivity(5, 2));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->pulses, 10u);

  // A footer and a bare view copied out of a reader, read after the
  // reader is destroyed.
  auto entries = SyntheticStream(5000);
  std::string path = TempPath("outlive");
  WriteSpill(path, entries, 1000, true);
  SegmentFooter footer;
  ActivityRows view;
  std::vector<ActivityRow> want;
  {
    TraceFileReader reader(path);
    ASSERT_TRUE(reader.has_index()) << reader.index_note();
    ASSERT_EQ(reader.index().segments.size(), 5u);
    footer = reader.index().segments[2];
    view = reader.index().segments[4].activities;
    want = Rows(reader.index().segments[2]);
  }
  std::remove(path.c_str());
  ASSERT_FALSE(want.empty());
  ExpectSameRows(Rows(footer), want);
  ExpectViewConsistent(footer, "footer copy");
  std::vector<ActivityRow> last(view.begin(), view.end());
  EXPECT_EQ(last.size(), view.size());
  EXPECT_FALSE(last.empty());
  for (const ActivityRow& row : last) {
    auto hit = view.Find(row.first);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->entries, row.second.entries);
  }
}

// A parsed index hand-encoded in the version 1 layout (each record's
// fixed part, then its 20-byte rows; no totals table). Test-side only:
// the program writes version 2 and reads both.
std::vector<uint8_t> EncodeVersion1Block(const TraceIndex& index) {
  std::vector<uint8_t> out;
  auto put = [&out](uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      out.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  out.insert(out.end(), std::begin(kIndexMagic), std::end(kIndexMagic));
  put(kIndexVersionFixedRows, 2);
  put(0, 2);
  put(index.segments.size(), 4);
  put(index.total_entries, 8);
  for (const SegmentFooter& seg : index.segments) {
    put(seg.offset, 8);
    put(seg.length, 8);
    put(seg.entries, 4);
    put(seg.container_version, 2);
    put(seg.activities.size(), 2);
    put(seg.time_min64, 8);
    put(seg.time_max64, 8);
    put(seg.origin_min, 4);
    put(seg.origin_max, 4);
    put(seg.origin_filter, 8);
    for (const auto& [act, row] : seg.activities) {
      put(act, 8);
      put(row.entries, 4);
      put(row.pulses, 8);
    }
  }
  put(out.size() + kIndexTrailerBytes, 8);
  out.insert(out.end(), std::begin(kIndexEndMagic), std::end(kIndexEndMagic));
  return out;
}

TEST(IndexedSpillTest, Version1IndexedFileStillServesQueries) {
  auto entries = SyntheticStream(20000);
  std::string plain = TempPath("v1_plain");
  std::string indexed = TempPath("v1_source");
  WriteSpill(plain, entries, 512, false);
  WriteSpill(indexed, entries, 512, true);
  auto plain_bytes = Slurp(plain);
  auto indexed_bytes = Slurp(indexed);
  auto current = ParseTraceIndex(indexed_bytes.data() + plain_bytes.size(),
                                 indexed_bytes.size() - plain_bytes.size(),
                                 plain_bytes.size());
  ASSERT_TRUE(current.has_value());
  WriteBytes(indexed, Concat(plain_bytes, EncodeVersion1Block(*current)));

  TraceFileReader reader(indexed);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader.has_index()) << reader.index_note();
  EXPECT_EQ(reader.index().version, kIndexVersionFixedRows);
  EXPECT_EQ(reader.data_bytes(), plain_bytes.size());
  auto all = reader.ReadAll(2);
  ASSERT_TRUE(all.has_value());
  ExpectSameEntries(*all, entries);
  auto restored = ReadTraceFile(indexed);
  ASSERT_TRUE(restored.has_value());
  ExpectSameEntries(*restored, entries);

  // The footers still prune: an origin no entry carries decodes nothing,
  // and an activity filter reads only the segments whose rows list it.
  TraceQuery absent;
  absent.origins = {401};
  ReadStats absent_stats;
  auto none = reader.ReadFiltered(absent, 1, &absent_stats);
  ASSERT_TRUE(none.has_value());
  EXPECT_TRUE(none->empty());
  EXPECT_EQ(absent_stats.segments_read, 0u);
  TraceQuery by_act;
  by_act.activities = {MakeActivity(3, 4)};
  ReadStats act_stats;
  auto act_hits = reader.ReadFiltered(by_act, 2, &act_stats);
  ASSERT_TRUE(act_hits.has_value());
  ExpectSameEntries(*act_hits, FilterFullScan(entries, by_act));
  EXPECT_LT(act_stats.segments_read, act_stats.segments_total);

  ReadStats summary_stats;
  auto totals = reader.ActivityTotals(&summary_stats);
  ASSERT_TRUE(totals.has_value());
  EXPECT_EQ(summary_stats.segments_read, 0u);
  ExpectSameTotals(*totals, TraceIndexBuilder::ScanActivityTotals(entries));
  std::remove(plain.c_str());
  std::remove(indexed.c_str());
}

// Every truncation and every single-bit flip of `block`, an index over
// `data` (the bytes of an unindexed spill of `want`). ParseTraceIndex
// must accept or reject each one without crashing, over-reading (the
// parser sees a buffer exactly as long as the mutated block) or
// allocating past the block's size; every accepted block's row views
// must walk and Find consistently; and the file data + mutated block
// must still read back exactly `want`, index or no index.
void SweepIndexMutations(const std::vector<uint8_t>& data,
                         const std::vector<uint8_t>& block,
                         const std::vector<LogEntry>& want,
                         const std::string& name) {
  ASSERT_TRUE(ParseTraceIndex(block.data(), block.size(), data.size()));
  std::string path = TempPath(name);
  size_t accepted = 0;
  auto check = [&](const std::vector<uint8_t>& mutated,
                   const std::string& what) {
    auto parsed = ParseTraceIndex(mutated.data(), mutated.size(), data.size());
    if (parsed.has_value()) {
      for (const SegmentFooter& seg : parsed->segments) {
        ExpectViewConsistent(seg, what);
      }
    }
    WriteBytes(path, Concat(data, mutated));
    TraceFileReader reader(path);
    ASSERT_TRUE(reader.ok()) << what;
    EXPECT_EQ(reader.has_index(), parsed.has_value()) << what;
    accepted += reader.has_index() ? 1 : 0;
    auto all = reader.ReadAll();
    ASSERT_TRUE(all.has_value()) << what << ": " << reader.index_note();
    ASSERT_EQ(all->size(), want.size()) << what;
    EXPECT_EQ(EntryStreamHash(*all), EntryStreamHash(want)) << what;
    EXPECT_TRUE(reader.ActivityTotals().has_value()) << what;
    auto restored = ReadTraceFile(path);
    ASSERT_TRUE(restored.has_value()) << what;
    EXPECT_EQ(EntryStreamHash(*restored), EntryStreamHash(want)) << what;
  };
  for (size_t len = 0; len < block.size(); ++len) {
    std::vector<uint8_t> cut(block.begin(),
                             block.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(ParseTraceIndex(cut.data(), cut.size(), data.size()))
        << "cut to " << len;
    check(cut, "cut to " + std::to_string(len));
  }
  for (size_t bit = 0; bit < block.size() * 8; ++bit) {
    auto flipped = block;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    check(flipped, "bit " + std::to_string(bit));
  }
  // The sweep reaches both outcomes: flips in free-form footer fields
  // (times, origins) still validate, structural ones do not.
  EXPECT_GT(accepted, 0u) << name;
  EXPECT_LT(accepted, block.size() * 8) << name;
  std::remove(path.c_str());
}

TEST(IndexedSpillTest, MutatedVersion1GoldenBlockParsesOrFallsBack) {
  std::vector<LogEntry> want = {
      ActEntry(100, 50, 5, 2),
      ActEntry(200, 60, 7, 3, LogEntryType::kActivityAdd, kSinkRadioRx)};
  auto data = SerializeTrace(want);
  ASSERT_EQ(data.size(), 0x24u);
  SweepIndexMutations(data, kGoldenV1Block, want, "sweep_v1");
}

TEST(IndexedSpillTest, MutatedVersion2GoldenBlockParsesOrFallsBack) {
  auto want = GoldenStream();
  std::string plain = TempPath("golden_plain");
  WriteSpill(plain, want, 2, false);
  auto data = Slurp(plain);
  ASSERT_EQ(data.size(), 72u);
  SweepIndexMutations(data, BlockBytes(GoldenBuilder()), want,
                      "sweep_v2");
  std::remove(plain.c_str());
}

TEST(IndexedSpillTest, MutatedMultiSegmentBlockParsesOrFallsBack) {
  auto want = SyntheticStream(60);
  std::string plain = TempPath("multi_plain");
  std::string indexed = TempPath("multi_indexed");
  WriteSpill(plain, want, 16, false);
  WriteSpill(indexed, want, 16, true);
  auto data = Slurp(plain);
  auto whole = Slurp(indexed);
  std::vector<uint8_t> block(whole.begin() +
                                 static_cast<std::ptrdiff_t>(data.size()),
                             whole.end());
  SweepIndexMutations(data, block, want, "sweep_multi");
  std::remove(plain.c_str());
  std::remove(indexed.c_str());
}

// --- The read path on synthetic spills -------------------------------------

TEST(TraceReadPathTest, ParallelDecodeByteIdenticalAt124Threads) {
  auto entries = SyntheticStream(50000);  // Spans a u32 time wrap.
  std::string path = TempPath("par");
  WriteSpill(path, entries, 1000, true);
  TraceFileReader reader(path);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader.has_index());
  EXPECT_EQ(reader.index().segments.size(), 50u);

  uint64_t want = EntryStreamHash(entries);
  for (size_t threads : {1u, 2u, 4u}) {
    ReadStats stats;
    auto got = reader.ReadAll(threads, &stats);
    ASSERT_TRUE(got.has_value()) << threads << " threads";
    ASSERT_EQ(got->size(), entries.size());
    EXPECT_EQ(EntryStreamHash(*got), want) << threads << " threads";
    EXPECT_EQ(stats.segments_read, 50u);
    EXPECT_EQ(stats.segments_skipped, 0u);
  }
  std::remove(path.c_str());
}

TEST(TraceReadPathTest, TimeRangeQuerySkipsAndMatchesFullScan) {
  auto entries = SyntheticStream(50000);
  std::string path = TempPath("range");
  WriteSpill(path, entries, 1000, true);
  TraceFileReader reader(path);
  ASSERT_TRUE(reader.ok());

  // The middle 10% of the run by unwrapped time. Times step uniformly, so
  // a 10% slice touches ~5 of 50 segments — the ISSUE's <= 25% pruning
  // bound holds with room to spare, counter-asserted below.
  StreamIngestState chain;
  uint64_t t_min = 0;
  uint64_t t_max = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    uint64_t t64 = chain.Unwrap(entries[i]);
    if (i == 0) {
      t_min = t64;
    }
    t_max = t64;
  }
  uint64_t span = t_max - t_min;
  TraceQuery q;
  q.has_time_range = true;
  q.time_min = t_min + span * 45 / 100;
  q.time_max = t_min + span * 55 / 100;

  for (size_t threads : {1u, 4u}) {
    ReadStats stats;
    auto got = reader.ReadFiltered(q, threads, &stats);
    ASSERT_TRUE(got.has_value());
    ExpectSameEntries(*got, FilterFullScan(entries, q));
    EXPECT_EQ(stats.segments_total, 50u);
    EXPECT_EQ(stats.segments_read + stats.segments_skipped,
              stats.segments_total);
    EXPECT_LE(stats.segments_read * 4, stats.segments_total)
        << "10% time slice decoded more than 25% of segments";
    EXPECT_GT(stats.entries_selected, 0u);
  }
  std::remove(path.c_str());
}

TEST(TraceReadPathTest, OriginAndActivityFiltersMatchFullScan) {
  auto entries = SyntheticStream(20000);
  std::string path = TempPath("filters");
  WriteSpill(path, entries, 512, true);
  TraceFileReader reader(path);
  ASSERT_TRUE(reader.ok());

  TraceQuery by_origin;
  by_origin.origins = {3, 150};
  ReadStats origin_stats;
  auto origin_hits = reader.ReadFiltered(by_origin, 2, &origin_stats);
  ASSERT_TRUE(origin_hits.has_value());
  ExpectSameEntries(*origin_hits, FilterFullScan(entries, by_origin));
  EXPECT_FALSE(origin_hits->empty());

  TraceQuery by_act;
  by_act.activities = {MakeActivity(1, 1), MakeActivity(258, 2)};
  ReadStats act_stats;
  auto act_hits = reader.ReadFiltered(by_act, 2, &act_stats);
  ASSERT_TRUE(act_hits.has_value());
  ExpectSameEntries(*act_hits, FilterFullScan(entries, by_act));

  // Conjunction of all three filter kinds.
  TraceQuery all;
  all.has_time_range = true;
  all.time_min = 0xFFFF0000u;
  all.time_max = 0xFFFFFFFFull + 200000;
  all.origins = {3, 5, 7, 150};
  all.activities = {MakeActivity(3, 4), MakeActivity(150, 8)};
  ReadStats all_stats;
  auto all_hits = reader.ReadFiltered(all, 4, &all_stats);
  ASSERT_TRUE(all_hits.has_value());
  ExpectSameEntries(*all_hits, FilterFullScan(entries, all));

  // A query for an origin no entry carries (generated origins stop at
  // 400) decodes nothing at all: the footers prove absence everywhere.
  TraceQuery absent;
  absent.origins = {401};
  ReadStats absent_stats;
  auto none = reader.ReadFiltered(absent, 1, &absent_stats);
  ASSERT_TRUE(none.has_value());
  EXPECT_TRUE(none->empty());
  EXPECT_EQ(absent_stats.segments_read, 0u);
  std::remove(path.c_str());
}

TEST(TraceReadPathTest, SummaryAnswersFromFootersWithoutDecoding) {
  auto entries = SyntheticStream(20000);
  std::string indexed = TempPath("sum_indexed");
  std::string plain = TempPath("sum_plain");
  WriteSpill(indexed, entries, 512, true);
  WriteSpill(plain, entries, 512, false);

  TraceFileReader fast(indexed);
  ReadStats fast_stats;
  auto fast_totals = fast.ActivityTotals(&fast_stats);
  ASSERT_TRUE(fast_totals.has_value());
  EXPECT_EQ(fast_stats.segments_read, 0u);
  EXPECT_EQ(fast_stats.segments_skipped, fast_stats.segments_total);
  EXPECT_EQ(fast_stats.entries_decoded, 0u);

  TraceFileReader slow(plain);
  EXPECT_FALSE(slow.has_index());
  EXPECT_NE(slow.index_note().find("no index"), std::string::npos);
  ReadStats slow_stats;
  auto slow_totals = slow.ActivityTotals(&slow_stats);
  ASSERT_TRUE(slow_totals.has_value());
  EXPECT_GT(slow_stats.entries_decoded, 0u);

  // Footers, full scan of the unindexed twin, and a direct scan of the
  // in-memory stream all agree.
  auto direct = TraceIndexBuilder::ScanActivityTotals(entries);
  ASSERT_EQ(fast_totals->size(), direct.size());
  ASSERT_EQ(slow_totals->size(), direct.size());
  for (const auto& [act, row] : direct) {
    EXPECT_EQ((*fast_totals)[act].entries, row.entries);
    EXPECT_EQ((*fast_totals)[act].pulses, row.pulses);
    EXPECT_EQ((*slow_totals)[act].entries, row.entries);
    EXPECT_EQ((*slow_totals)[act].pulses, row.pulses);
  }
  std::remove(indexed.c_str());
  std::remove(plain.c_str());
}

TEST(TraceReadPathTest, UnindexedFileServesEveryQueryLinearly) {
  auto entries = SyntheticStream(10000);
  std::string path = TempPath("linear");
  WriteSpill(path, entries, 512, false);
  TraceFileReader reader(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader.has_index());

  auto all = reader.ReadAll(4);  // Thread count is a no-op without index.
  ASSERT_TRUE(all.has_value());
  ExpectSameEntries(*all, entries);

  TraceQuery q;
  q.has_time_range = true;
  q.time_min = 0xFFFF8000u;
  q.time_max = 0xFFFFFFFFull + 100000;
  q.origins = {3, 9, 150};
  ReadStats stats;
  auto filtered = reader.ReadFiltered(q, 4, &stats);
  ASSERT_TRUE(filtered.has_value());
  ExpectSameEntries(*filtered, FilterFullScan(entries, q));
  EXPECT_EQ(stats.segments_skipped, 0u);  // Nothing to skip without footers.
  std::remove(path.c_str());
}

// --- Real network spills (grid and chain) ----------------------------------

std::vector<LogEntry> RunIndexedNetworkSpill(const std::string& path,
                                             ScaleTopology topology,
                                             size_t motes, size_t sinks,
                                             double seconds,
                                             size_t segment_entries) {
  ShardedSimulator::Config sim_cfg;
  sim_cfg.shards = 8;
  sim_cfg.threads = 2;
  sim_cfg.lookahead = Microseconds(512);
  ShardedSimulator sim(sim_cfg);
  MediumFabric fabric(&sim);
  FileTraceSink::Options opts;
  opts.segment_entries = segment_entries;
  opts.write_index = true;
  FileTraceSink spill(path, opts);
  EXPECT_TRUE(spill.ok());
  std::vector<LogEntry> reference;
  StreamingTraceMerger merger([&spill, &reference](const MergedEntry& m) {
    spill.Append(m.entry);
    reference.push_back(m.entry);
  });
  // Joins before the merger, the spill and the reference are destroyed.
  EmissionPipeline emission(&merger);
  ScaleNetworkConfig cfg;
  cfg.motes = motes;
  cfg.log_capacity = 512;
  cfg.batch_log_charging = true;
  cfg.topology = topology;
  cfg.sinks = sinks;
  cfg.emission_pipeline = &emission;
  ScaleNetwork net(&sim, &fabric, cfg);
  net.PowerUp();
  sim.RunFor(Milliseconds(5));
  net.StartApps();
  sim.RunFor(static_cast<Tick>(seconds * kTicksPerSecond));
  // Drains the pipeline; the merger, the spill and `reference` are safe
  // to touch from this thread after it.
  net.SealAllChunks();
  merger.Finish();
  EXPECT_EQ(net.entries_dropped(), 0u);
  EXPECT_TRUE(spill.Close());
  EXPECT_GT(spill.index_bytes_written(), 0u);
  return reference;
}

void CheckNetworkSpillReadPath(const std::string& path,
                               const std::vector<LogEntry>& reference) {
  TraceFileReader reader(path);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader.has_index());
  size_t segments = reader.index().segments.size();
  ASSERT_GE(segments, 8u) << "spill too small to exercise pruning";

  // Parallel decode identity.
  uint64_t want = EntryStreamHash(reference);
  for (size_t threads : {1u, 2u, 4u}) {
    auto got = reader.ReadAll(threads);
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(got->size(), reference.size());
    EXPECT_EQ(EntryStreamHash(*got), want) << threads << " threads";
  }

  // Middle-10% time slice: equals full-scan-then-filter and skips.
  StreamIngestState chain;
  uint64_t t_min = 0;
  uint64_t t_max = 0;
  for (size_t i = 0; i < reference.size(); ++i) {
    uint64_t t64 = chain.Unwrap(reference[i]);
    if (i == 0) {
      t_min = t64;
    }
    t_max = t64;
  }
  TraceQuery slice;
  slice.has_time_range = true;
  slice.time_min = t_min + (t_max - t_min) * 45 / 100;
  slice.time_max = t_min + (t_max - t_min) * 55 / 100;
  ReadStats stats;
  auto sliced = reader.ReadFiltered(slice, 4, &stats);
  ASSERT_TRUE(sliced.has_value());
  ExpectSameEntries(*sliced, FilterFullScan(reference, slice));
  EXPECT_LT(stats.segments_read, stats.segments_total);
  if (stats.segments_total >= 20) {
    EXPECT_LE(stats.segments_read * 4, stats.segments_total)
        << "10% slice decoded more than 25% of " << stats.segments_total
        << " segments";
  }

  // Origin filter: a couple of mote origins, equality with the full scan.
  TraceQuery origins;
  origins.origins = {2, 5};
  auto origin_hits = reader.ReadFiltered(origins, 2);
  ASSERT_TRUE(origin_hits.has_value());
  ExpectSameEntries(*origin_hits, FilterFullScan(reference, origins));

  // Footer summary == full-scan totals.
  ReadStats summary_stats;
  auto totals = reader.ActivityTotals(&summary_stats);
  ASSERT_TRUE(totals.has_value());
  EXPECT_EQ(summary_stats.segments_read, 0u);
  auto scan = TraceIndexBuilder::ScanActivityTotals(reference);
  ASSERT_EQ(totals->size(), scan.size());
  for (const auto& [act, row] : scan) {
    EXPECT_EQ((*totals)[act].entries, row.entries);
    EXPECT_EQ((*totals)[act].pulses, row.pulses);
  }
}

TEST(TraceReadPathTest, GridNetworkSpillFilteredQueriesMatchFullScan) {
  std::string path = TempPath("grid_indexed");
  auto reference =
      RunIndexedNetworkSpill(path, ScaleTopology::kGrid, 96, 2, 1.0, 256);
  ASSERT_GT(reference.size(), 2000u);
  CheckNetworkSpillReadPath(path, reference);
  std::remove(path.c_str());
}

TEST(TraceReadPathTest, ChainNetworkSpillFilteredQueriesMatchFullScan) {
  std::string path = TempPath("chain_indexed");
  auto reference =
      RunIndexedNetworkSpill(path, ScaleTopology::kChain, 48, 1, 1.0, 256);
  ASSERT_GT(reference.size(), 1000u);
  CheckNetworkSpillReadPath(path, reference);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace quanto
