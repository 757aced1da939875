// Hostile-input sweeps over the trace containers: every truncation and
// every single-bit flip of the golden v1 and v2 containers, a v3
// container and a three-segment indexed spill, fed through
// DeserializeTrace and through TraceFileReader (ReadAll and one
// activity-filtered read). Each mutated file must parse or be rejected:
// no crash, no read past its bytes (ASan), no more entries than its bytes
// could hold. Where the two readers run the same rules, they must agree.

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "src/analysis/trace_io.h"
#include "src/analysis/trace_reader.h"
#include "src/hw/sinks.h"
#include "tests/golden_containers.h"
#include "tests/test_files.h"

namespace quanto {
namespace {

LogEntry E(LogEntryType type, res_id_t res, uint32_t time, uint32_t icount,
           uint64_t payload) {
  LogEntry e{};
  e.type = static_cast<uint8_t>(type);
  e.res_id = res;
  e.time = time;
  e.icount = icount;
  e.payload = payload;
  return e;
}

bool CarriesLabel(const LogEntry& e, act_t label) {
  return IsActivityEntry(e) && uint64_t{e.payload} == label;
}

std::vector<LogEntry> FilterLabel(const std::vector<LogEntry>& all,
                                  act_t label) {
  std::vector<LogEntry> out;
  for (const LogEntry& e : all) {
    if (CarriesLabel(e, label)) {
      out.push_back(e);
    }
  }
  return out;
}

// No reader may produce more entries than the bytes hold at the smallest
// record size.
size_t MaxEntries(size_t bytes) {
  return bytes / TraceContainerEntryBytes(kTraceVersionLegacy);
}

// Sweeps every truncation and every single-bit flip of `blob`, whose
// first `data_bytes` bytes are data segments and the rest (if any) an
// index block. `label` is the activity the filtered read asks for.
void SweepContainerMutations(const std::vector<uint8_t>& blob,
                             size_t data_bytes, act_t label,
                             const std::string& name) {
  auto original = DeserializeTrace(blob);
  ASSERT_TRUE(original.has_value()) << name;
  ASSERT_FALSE(FilterLabel(*original, label).empty()) << name;
  std::string path = TempPath(name);
  TraceQuery query;
  query.activities = {label};
  size_t accepted = 0;
  size_t rejected = 0;
  auto check = [&](const std::vector<uint8_t>& mutated, bool data_intact,
                   const std::string& what) {
    auto linear = DeserializeTrace(mutated);
    if (linear.has_value()) {
      EXPECT_LE(linear->size(), MaxEntries(mutated.size())) << what;
    }
    WriteBytes(path, mutated);
    TraceFileReader reader(path);
    if (!reader.ok()) {  // Shorter than one container header.
      EXPECT_LT(mutated.size(), kTraceContainerHeaderBytes) << what;
      EXPECT_FALSE(linear.has_value()) << what;
      EXPECT_FALSE(reader.ReadAll().has_value()) << what;
      EXPECT_FALSE(reader.ReadFiltered(query).has_value()) << what;
      ++rejected;
      return;
    }
    auto all = reader.ReadAll(2);
    auto filtered = reader.ReadFiltered(query, 2);
    if (all.has_value()) {
      EXPECT_LE(all->size(), MaxEntries(mutated.size())) << what;
      // The same segments decode to the same entries.
      if (linear.has_value()) {
        ASSERT_EQ(all->size(), linear->size()) << what;
        EXPECT_EQ(EntryStreamHash(*all), EntryStreamHash(*linear)) << what;
      }
    }
    if (!reader.has_index()) {
      // Both readers fall back to the same linear scan.
      EXPECT_EQ(all.has_value(), linear.has_value()) << what;
      EXPECT_EQ(filtered.has_value(), all.has_value()) << what;
    }
    if (filtered.has_value()) {
      for (const LogEntry& e : *filtered) {
        EXPECT_TRUE(CarriesLabel(e, label)) << what;
      }
      if (all.has_value()) {
        auto want = FilterLabel(*all, label);
        if (!reader.has_index() || data_intact) {
          // The footers describe these very segments: pruning is exact.
          ASSERT_EQ(filtered->size(), want.size()) << what;
          EXPECT_EQ(EntryStreamHash(*filtered), EntryStreamHash(want))
              << what;
        } else {
          // A flipped record can carry a label its footer does not list;
          // the index may then skip it, never invent an entry.
          EXPECT_LE(filtered->size(), want.size()) << what;
        }
      }
    }
    ++(all.has_value() ? accepted : rejected);
  };
  for (size_t len = 0; len < blob.size(); ++len) {
    std::vector<uint8_t> cut(blob.begin(),
                             blob.begin() + static_cast<std::ptrdiff_t>(len));
    check(cut, len >= data_bytes, "cut to " + std::to_string(len));
  }
  for (size_t bit = 0; bit < blob.size() * 8; ++bit) {
    auto flipped = blob;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    check(flipped, bit / 8 >= data_bytes, "bit " + std::to_string(bit));
  }
  // Both outcomes occur: payload flips still parse, header flips do not.
  EXPECT_GT(accepted, 0u) << name;
  EXPECT_GT(rejected, 0u) << name;
  std::remove(path.c_str());
}

TEST(ContainerMutationTest, GoldenV1ContainerParsesOrRejects) {
  std::vector<uint8_t> blob(std::begin(kGoldenV1Blob),
                            std::end(kGoldenV1Blob));
  SweepContainerMutations(blob, blob.size(), MakeActivity(4, 9), "v1");
}

TEST(ContainerMutationTest, GoldenV2ContainerParsesOrRejects) {
  std::vector<uint8_t> blob(std::begin(kGoldenV2Blob),
                            std::end(kGoldenV2Blob));
  SweepContainerMutations(blob, blob.size(), MakeActivity(300, 9), "v2");
}

TEST(ContainerMutationTest, V3ContainerParsesOrRejects) {
  std::vector<LogEntry> entries = {
      E(LogEntryType::kActivitySet, kSinkCpu, 100, 7, MakeActivity(70000, 9)),
      E(LogEntryType::kPowerState, 3, 150, 9, 0x123456789ull),
      E(LogEntryType::kActivityAdd, 5, 152, 10, MakeActivity(1, 1)),
  };
  auto blob = SerializeTrace(entries);
  ASSERT_EQ(blob[4], kTraceVersionWideNode);
  SweepContainerMutations(blob, blob.size(), MakeActivity(70000, 9), "v3");
}

TEST(ContainerMutationTest, ThreeSegmentIndexedSpillParsesOrRejects) {
  // Three segments of three entries, one per container version (their
  // widest origins are 7, 300 and 70 000), behind a version 2 index. The
  // queried label sits in the first and last segments only, so the
  // filtered read prunes the middle one.
  act_t label = MakeActivity(5, 2);
  std::vector<LogEntry> entries = {
      E(LogEntryType::kActivitySet, kSinkCpu, 100, 50, label),
      E(LogEntryType::kPowerState, kSinkLed0, 110, 55, 1),
      E(LogEntryType::kActivityAdd, kSinkRadioRx, 120, 60,
        MakeActivity(7, 3)),
      E(LogEntryType::kActivitySet, kSinkCpu, 130, 62, MakeActivity(300, 1)),
      E(LogEntryType::kPowerState, kSinkLed0, 140, 64, 0),
      E(LogEntryType::kActivityAdd, kSinkRadioRx, 150, 70,
        MakeActivity(300, 2)),
      E(LogEntryType::kActivitySet, kSinkCpu, 160, 71, MakeActivity(70000, 4)),
      E(LogEntryType::kActivitySet, kSinkCpu, 170, 75, label),
      E(LogEntryType::kPowerState, kSinkLed0, 180, 79, 1),
  };
  std::string spill = TempPath("three_segments");
  FileTraceSink::Options opts;
  opts.segment_entries = 3;
  opts.write_index = true;
  {
    FileTraceSink sink(spill, opts);
    ASSERT_TRUE(sink.ok());
    for (const LogEntry& e : entries) {
      sink.Append(e);
    }
    ASSERT_TRUE(sink.Close());
  }
  auto blob = Slurp(spill);
  std::remove(spill.c_str());
  size_t data_bytes = 3 * kTraceContainerHeaderBytes + 3 * (12 + 14 + 16);
  {
    WriteBytes(spill, blob);
    TraceFileReader reader(spill);
    ASSERT_TRUE(reader.has_index()) << reader.index_note();
    ASSERT_EQ(reader.data_bytes(), data_bytes);
    ASSERT_EQ(reader.index().segments.size(), 3u);
    TraceQuery query;
    query.activities = {label};
    ReadStats stats;
    ASSERT_TRUE(reader.ReadFiltered(query, 1, &stats).has_value());
    EXPECT_EQ(stats.segments_read, 2u);
    std::remove(spill.c_str());
  }
  SweepContainerMutations(blob, data_bytes, label, "three_segments");
}

}  // namespace
}  // namespace quanto
