#include "src/analysis/trace_io.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "src/hw/sinks.h"
#include "tests/test_files.h"

namespace quanto {
namespace {

// Every label fits the legacy encoding, so this serializes as v1 — the
// paper's 12-byte records.
std::vector<LogEntry> SampleTrace() {
  std::vector<LogEntry> entries;
  for (uint32_t i = 0; i < 100; ++i) {
    LogEntry e;
    e.type = static_cast<uint8_t>(i % 5);
    e.res_id = static_cast<res_id_t>(i % kSinkCount);
    e.time = i * 1000;
    e.icount = i * 7;
    e.payload = EntryType(e) == LogEntryType::kPowerState
                    ? i
                    : MakeActivity(1, static_cast<act_id_t>(i & 0xFF));
    entries.push_back(e);
  }
  return entries;
}

// At least one label needs the wide encoding (origin > 255), forcing v2.
std::vector<LogEntry> WideSampleTrace() {
  auto entries = SampleTrace();
  for (uint32_t i = 0; i < 40; ++i) {
    LogEntry e;
    e.type = static_cast<uint8_t>(LogEntryType::kActivitySet);
    e.res_id = kSinkCpu;
    e.time = 200000 + i;
    e.icount = i;
    e.payload = MakeActivity(static_cast<node_id_t>(300 + i),
                             static_cast<act_id_t>(1000 + i));
    entries.push_back(e);
  }
  return entries;
}

TEST(TraceIoTest, RoundTripPreservesEveryField) {
  auto original = SampleTrace();
  auto blob = SerializeTrace(original);
  auto restored = DeserializeTrace(blob);
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ((*restored)[i].type, original[i].type);
    EXPECT_EQ((*restored)[i].res_id, original[i].res_id);
    EXPECT_EQ(uint32_t{(*restored)[i].time}, uint32_t{original[i].time});
    EXPECT_EQ(uint32_t{(*restored)[i].icount}, uint32_t{original[i].icount});
    EXPECT_EQ(uint64_t{(*restored)[i].payload}, uint64_t{original[i].payload});
  }
}

TEST(TraceIoTest, EmptyTraceRoundTrips) {
  auto blob = SerializeTrace({});
  auto restored = DeserializeTrace(blob);
  ASSERT_TRUE(restored.has_value());
  EXPECT_TRUE(restored->empty());
}

TEST(TraceIoTest, LegacyBlobSizeIsHeaderPlusTwelvePerEntry) {
  // Legacy-encodable traces keep the paper's 12-byte records (v1).
  auto blob = SerializeTrace(SampleTrace());
  EXPECT_EQ(blob.size(), 12u + 100 * 12);
  EXPECT_EQ(blob[4], kTraceVersionLegacy);
}

TEST(TraceIoTest, WideLabelsSelectVersionTwo) {
  auto trace = WideSampleTrace();
  EXPECT_EQ(TraceSerializationVersion(trace), kTraceVersionWide);
  auto blob = SerializeTrace(trace);
  EXPECT_EQ(blob[4], kTraceVersionWide);
  EXPECT_EQ(blob.size(), 12u + trace.size() * 14);
  // And wide records round-trip every field, including >8-bit origins.
  auto restored = DeserializeTrace(blob);
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(uint64_t{(*restored)[i].payload}, uint64_t{trace[i].payload})
        << "entry " << i;
  }
  EXPECT_EQ(ActivityOrigin(restored->back().payload), 339);
}

TEST(TraceIoTest, ForcedV2RoundTripsLegacyTrace) {
  auto trace = SampleTrace();
  auto blob = SerializeTrace(trace, TraceFormat::kV2);
  EXPECT_EQ(blob[4], kTraceVersionWide);
  auto restored = DeserializeTrace(blob);
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(uint64_t{(*restored)[i].payload}, uint64_t{trace[i].payload})
        << "entry " << i;
  }
}

TEST(TraceIoTest, VersionOneBlobParsesToWideLabels) {
  // A v1 file written by the pre-widening toolchain: its 16-bit activity
  // payloads must widen into the in-memory <<16 encoding on read.
  std::vector<uint8_t> blob = {'Q', 'N', 'T', 'O', 1, 0, 0, 0, 1, 0, 0, 0};
  LogEntry e{};
  e.type = static_cast<uint8_t>(LogEntryType::kActivitySet);
  e.res_id = kSinkCpu;
  e.time = 42;
  e.icount = 7;
  blob.push_back(e.type);
  blob.push_back(e.res_id);
  for (int i = 0; i < 4; ++i) {
    blob.push_back(static_cast<uint8_t>((e.time >> (8 * i)) & 0xFF));
  }
  for (int i = 0; i < 4; ++i) {
    blob.push_back(static_cast<uint8_t>((e.icount >> (8 * i)) & 0xFF));
  }
  // Legacy label 0x0403 = node 4, activity 3.
  blob.push_back(0x03);
  blob.push_back(0x04);
  auto restored = DeserializeTrace(blob);
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->size(), 1u);
  EXPECT_EQ(uint64_t{(*restored)[0].payload}, MakeActivity(4, 3));
}

TEST(TraceIoTest, BadMagicRejected) {
  auto blob = SerializeTrace(SampleTrace());
  blob[0] = 'X';
  EXPECT_FALSE(DeserializeTrace(blob).has_value());
}

TEST(TraceIoTest, WrongVersionRejected) {
  auto blob = SerializeTrace(SampleTrace());
  blob[4] = 99;
  EXPECT_FALSE(DeserializeTrace(blob).has_value());
}

TEST(TraceIoTest, TruncatedDumpRejected) {
  auto blob = SerializeTrace(SampleTrace());
  blob.resize(blob.size() - 5);
  EXPECT_FALSE(DeserializeTrace(blob).has_value());
}

TEST(TraceIoTest, TooShortForHeaderRejected) {
  EXPECT_FALSE(DeserializeTrace({'Q', 'N'}).has_value());
  EXPECT_FALSE(DeserializeTrace({}).has_value());
}

TEST(TraceIoTest, FileRoundTrip) {
  std::string path = TempPath("quanto_trace_test");
  auto original = SampleTrace();
  ASSERT_TRUE(WriteTraceFile(path, original));
  auto restored = ReadTraceFile(path);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->size(), original.size());
  std::remove(path.c_str());
}

TEST(TraceIoTest, MissingFileReturnsNullopt) {
  EXPECT_FALSE(ReadTraceFile("/nonexistent/path/trace.qnto").has_value());
}

TEST(TraceIoTest, TextDumpNamesKnownThings) {
  ActivityRegistry registry;
  registry.RegisterName(1, "Red");
  LogEntry power{};
  power.type = static_cast<uint8_t>(LogEntryType::kPowerState);
  power.res_id = kSinkLed0;
  power.time = 5;
  power.payload = kLedOn;
  LogEntry act{};
  act.type = static_cast<uint8_t>(LogEntryType::kActivitySet);
  act.res_id = kSinkCpu;
  act.time = 9;
  act.payload = MakeActivity(1, 1);
  std::string text = DumpTraceText({power, act}, registry);
  EXPECT_NE(text.find("POW LED0 ON"), std::string::npos);
  EXPECT_NE(text.find("ACT CPU 1:Red"), std::string::npos);
}

TEST(TraceIoTest, ConcatenatedSegmentsParseAsOneTrace) {
  // The spill-file container: several complete QNTO blobs back to back,
  // each with its own version — here a legacy v1 segment followed by a
  // wide v2 segment. The reader concatenates their entries in order.
  auto legacy = SampleTrace();
  auto wide = WideSampleTrace();
  auto blob = SerializeTrace(legacy);
  auto second = SerializeTrace(wide);
  blob.insert(blob.end(), second.begin(), second.end());

  auto restored = DeserializeTrace(blob);
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->size(), legacy.size() + wide.size());
  for (size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(uint64_t{(*restored)[i].payload}, uint64_t{legacy[i].payload})
        << "entry " << i;
  }
  for (size_t i = 0; i < wide.size(); ++i) {
    EXPECT_EQ(uint64_t{(*restored)[legacy.size() + i].payload},
              uint64_t{wide[i].payload})
        << "wide entry " << i;
  }
}

TEST(TraceIoTest, TrailingGarbageAfterSegmentRejected) {
  auto blob = SerializeTrace(SampleTrace());
  blob.push_back(0xFF);  // Not a segment header.
  EXPECT_FALSE(DeserializeTrace(blob).has_value());
}

TEST(TraceIoTest, TruncatedSecondSegmentRejected) {
  auto blob = SerializeTrace(SampleTrace());
  auto second = SerializeTrace(SampleTrace());
  blob.insert(blob.end(), second.begin(), second.end() - 4);
  EXPECT_FALSE(DeserializeTrace(blob).has_value());
}

TEST(TraceIoTest, FileTraceSinkSingleSegmentMatchesWriteTraceFile) {
  // A stream that fits one segment must produce a file byte-identical to
  // the batch writer's — the offline tooling cannot tell them apart.
  auto entries = SampleTrace();
  std::string batch_path = TempPath("batch");
  std::string spill_path = TempPath("spill");
  ASSERT_TRUE(WriteTraceFile(batch_path, entries));
  {
    FileTraceSink sink(spill_path);
    ASSERT_TRUE(sink.ok());
    for (const LogEntry& e : entries) {
      sink.Append(e);
    }
    ASSERT_TRUE(sink.Close());
    EXPECT_EQ(sink.segments_written(), 1u);
  }
  std::ifstream a(batch_path, std::ios::binary);
  std::ifstream b(spill_path, std::ios::binary);
  std::vector<char> bytes_a((std::istreambuf_iterator<char>(a)),
                            std::istreambuf_iterator<char>());
  std::vector<char> bytes_b((std::istreambuf_iterator<char>(b)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes_a, bytes_b);
  std::remove(batch_path.c_str());
  std::remove(spill_path.c_str());
}

TEST(TraceIoTest, FileTraceSinkSpillsSegmentsAndReadsBack) {
  auto entries = WideSampleTrace();  // 140 entries, mixed legacy/wide.
  std::string path = TempPath("segments");
  {
    FileTraceSink sink(path, 32);  // Force several segments.
    for (const LogEntry& e : entries) {
      sink.Append(e);
    }
    ASSERT_TRUE(sink.Close());
    EXPECT_EQ(sink.entries_written(), entries.size());
    EXPECT_EQ(sink.segments_written(), (entries.size() + 31) / 32);
  }
  auto restored = ReadTraceFile(path);
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(uint64_t{(*restored)[i].payload}, uint64_t{entries[i].payload})
        << "entry " << i;
    EXPECT_EQ(uint32_t{(*restored)[i].time}, uint32_t{entries[i].time})
        << "entry " << i;
  }
  std::remove(path.c_str());
}

TEST(TraceIoTest, EmptyFileTraceSinkWritesValidEmptyTrace) {
  std::string path = TempPath("empty");
  {
    FileTraceSink sink(path);
    ASSERT_TRUE(sink.Close());
  }
  auto restored = ReadTraceFile(path);
  ASSERT_TRUE(restored.has_value());
  EXPECT_TRUE(restored->empty());
  std::remove(path.c_str());
}

TEST(TraceIoTest, TextDumpHandlesAllTypes) {
  ActivityRegistry registry;
  std::vector<LogEntry> entries;
  for (int t = 0; t < 5; ++t) {
    LogEntry e{};
    e.type = static_cast<uint8_t>(t);
    e.res_id = kSinkCpu;
    entries.push_back(e);
  }
  std::string text = DumpTraceText(entries, registry);
  for (const char* tag : {"POW", "ACT", "BND", "ADD", "REM"}) {
    EXPECT_NE(text.find(tag), std::string::npos) << tag;
  }
}

}  // namespace
}  // namespace quanto
