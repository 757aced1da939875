// Tests of radio trace exfiltration: a Blink node ships its Quanto log to
// a collector over the air; the collector's reconstruction must support
// the same offline analysis as a locally-read log.

#include <gtest/gtest.h>

#include "src/analysis/accounting.h"
#include "src/analysis/pipeline.h"
#include "src/analysis/trace.h"
#include "src/apps/blink.h"
#include "src/apps/mote.h"
#include "src/apps/trace_dump.h"

namespace quanto {
namespace {

struct DumpRig {
  DumpRig() : medium(&queue) {
    Mote::Config source_cfg;
    source_cfg.id = 1;
    source = std::make_unique<Mote>(&queue, &medium, source_cfg);
    Mote::Config sink_cfg;
    sink_cfg.id = 9;
    sink = std::make_unique<Mote>(&queue, &medium, sink_cfg);
    source->radio().PowerOn(nullptr);
    sink->radio().PowerOn([this] { sink->radio().StartListening(); });
    queue.RunFor(Milliseconds(5));

    TraceDumpService::Config dump_cfg;
    dump_cfg.collector = 9;
    dump = std::make_unique<TraceDumpService>(source.get(), dump_cfg);
    collector = std::make_unique<TraceCollector>(sink.get());
    collector->Start();
  }

  EventQueue queue;
  Medium medium;
  std::unique_ptr<Mote> source;
  std::unique_ptr<Mote> sink;
  std::unique_ptr<TraceDumpService> dump;
  std::unique_ptr<TraceCollector> collector;
};

TEST(TraceDumpTest, EntriesArriveAtCollector) {
  DumpRig rig;
  BlinkApp app(rig.source.get());
  app.Start();
  rig.dump->Start();
  rig.queue.RunFor(Seconds(20));
  rig.dump->Flush();
  rig.queue.RunFor(Seconds(1));

  EXPECT_GT(rig.collector->packets_received(), 0u);
  const auto& received = rig.collector->TraceFrom(1);
  EXPECT_GT(received.size(), 50u);
  ASSERT_EQ(rig.collector->Nodes().size(), 1u);
  EXPECT_EQ(rig.collector->Nodes()[0], 1);
}

TEST(TraceDumpTest, ReceivedEntriesMatchLocalArchive) {
  DumpRig rig;
  BlinkApp app(rig.source.get());
  app.Start();
  rig.dump->Start();
  rig.queue.RunFor(Seconds(20));
  rig.dump->Flush();
  rig.queue.RunFor(Seconds(1));

  // Everything shipped must byte-match the source's archive prefix.
  const auto& received = rig.collector->TraceFrom(1);
  auto local = rig.source->logger().Trace();
  ASSERT_LE(received.size(), local.size());
  for (size_t i = 0; i < received.size(); ++i) {
    ASSERT_EQ(received[i].type, local[i].type) << "entry " << i;
    ASSERT_EQ(received[i].res_id, local[i].res_id);
    ASSERT_EQ(uint32_t{received[i].time}, uint32_t{local[i].time});
    ASSERT_EQ(uint32_t{received[i].icount}, uint32_t{local[i].icount});
    ASSERT_EQ(uint64_t{received[i].payload}, uint64_t{local[i].payload});
  }
}

TEST(TraceDumpTest, CollectedTraceIsAnalyzable) {
  DumpRig rig;
  BlinkApp app(rig.source.get());
  app.Start();
  rig.dump->Start();
  rig.queue.RunFor(Seconds(33));
  rig.dump->Flush();
  rig.queue.RunFor(Seconds(1));

  auto events = TraceParser::Parse(rig.collector->TraceFrom(1));
  ASSERT_GT(events.size(), 100u);
  auto intervals = ExtractPowerIntervals(events, 8.33);
  auto problem = BuildRegressionProblem(intervals);
  auto fit = SolveQuanto(problem);
  ASSERT_TRUE(fit.ok) << fit.error;
  int led0 = problem.ColumnIndex(kSinkLed0, kLedOn);
  ASSERT_GE(led0, 0);
  // The remotely collected trace supports the same calibration.
  EXPECT_NEAR(fit.coefficients[led0] / 3.0, 4300.0, 200.0);
}

TEST(TraceDumpTest, LoggingPausesDuringDump) {
  // Paper: the RAM mode "periodically stops the logging, and dumps". The
  // dump's own radio operations must not appear in the shipped trace.
  DumpRig rig;
  BlinkApp app(rig.source.get());
  app.Start();
  rig.dump->Start();
  rig.queue.RunFor(Seconds(20));
  rig.dump->Flush();
  rig.queue.RunFor(Seconds(1));

  // The flush timer's CPU dispatch is logged (it runs while logging is
  // still enabled, under the Logger activity — correct self-accounting),
  // but the dump's *radio* operations happen with logging paused, so the
  // radio TX device must never appear painted with the Logger label.
  const auto& received = rig.collector->TraceFrom(1);
  for (const auto& e : received) {
    if (EntryType(e) == LogEntryType::kActivitySet &&
        e.res_id == kSinkRadioTx) {
      EXPECT_NE(e.payload, MakeActivity(1, kActLogger));
    }
  }
  // Logging resumed after the dump.
  EXPECT_TRUE(rig.source->logger().enabled());
}

TEST(TraceDumpTest, NoTrafficBelowBatchThreshold) {
  // A batch threshold larger than anything the workload accumulates keeps
  // the radio silent (the periodic flush only ships full batches).
  EventQueue queue;
  Medium medium(&queue);
  Mote::Config cfg;
  cfg.id = 1;
  Mote source(&queue, &medium, cfg);
  source.radio().PowerOn(nullptr);
  queue.RunFor(Milliseconds(5));
  TraceDumpService::Config dump_cfg;
  dump_cfg.collector = 9;
  dump_cfg.min_batch = 100000;
  TraceDumpService dump(&source, dump_cfg);
  dump.Start();
  BlinkApp app(&source);
  app.Start();
  queue.RunFor(Seconds(5));
  EXPECT_EQ(dump.packets_sent(), 0u);
}

// --- Hostile frames ----------------------------------------------------------

LogEntry DumpEntry(LogEntryType type, res_id_t res, uint32_t time,
                   uint64_t payload) {
  LogEntry e{};
  e.type = static_cast<uint8_t>(type);
  e.res_id = res;
  e.time = time;
  e.icount = time / 3;
  e.payload = payload;
  return e;
}

bool SameEntry(const LogEntry& a, const LogEntry& b) {
  return a.type == b.type && a.res_id == b.res_id &&
         uint32_t{a.time} == uint32_t{b.time} &&
         uint32_t{a.icount} == uint32_t{b.icount} &&
         uint64_t{a.payload} == uint64_t{b.payload};
}

// `count` entries for one frame, half of them activity labels of `node`.
std::vector<LogEntry> FrameEntries(node_id_t node, size_t count) {
  std::vector<LogEntry> entries;
  for (size_t i = 0; i < count; ++i) {
    uint32_t time = 1000 + 37 * static_cast<uint32_t>(i);
    if (i % 3 == 2) {
      entries.push_back(
          DumpEntry(LogEntryType::kPowerState, kSinkLed0, time, i % 2));
    } else {
      entries.push_back(DumpEntry(LogEntryType::kActivitySet, kSinkCpu, time,
                                  MakeActivity(node, kActLogger)));
    }
  }
  return entries;
}

TEST(DumpFrameMutationTest, TruncationsAndBitFlipsYieldWholeRecords) {
  // Every truncation and every single-bit flip of a valid frame of each
  // dump format, decoded as the collector decodes it: whole records or
  // none, no read past the payload (ASan), never more records than the
  // payload's length holds, and a flip damages no record but its own.
  struct Frame {
    uint8_t am_type;
    std::vector<LogEntry> entries;
  };
  std::vector<Frame> frames = {
      {TraceDumpService::kAmType,
       FrameEntries(1, TraceDumpService::kEntriesPerPacket)},
      {TraceDumpService::kAmTypeWide,
       FrameEntries(300, TraceDumpService::kEntriesPerPacketWide)},
      {TraceDumpService::kAmTypeWideNode,
       FrameEntries(70000, TraceDumpService::kEntriesPerPacketWideNode)},
  };
  for (const Frame& frame : frames) {
    SCOPED_TRACE(static_cast<int>(frame.am_type));
    size_t record = DumpRecordBytes(frame.am_type);
    ASSERT_GT(record, 0u);
    PayloadBytes valid;
    EncodeDumpFrame(frame.am_type, frame.entries, &valid);
    ASSERT_EQ(valid.size(), frame.entries.size() * record);
    std::vector<LogEntry> decoded;
    ASSERT_EQ(DecodeDumpFrame(frame.am_type, valid, &decoded),
              frame.entries.size());
    for (size_t i = 0; i < decoded.size(); ++i) {
      ASSERT_TRUE(SameEntry(decoded[i], frame.entries[i])) << "entry " << i;
    }

    auto decode = [&](const PayloadBytes& mutated) {
      std::vector<LogEntry> out;
      size_t n = DecodeDumpFrame(frame.am_type, mutated, &out);
      EXPECT_EQ(n, out.size());
      EXPECT_LE(n, mutated.size() / record);
      return out;
    };
    for (size_t len = 0; len < valid.size(); ++len) {
      PayloadBytes cut;
      cut.assign(valid.begin(), valid.begin() + len);
      std::vector<LogEntry> out = decode(cut);
      ASSERT_EQ(out.size(), len / record) << "truncated to " << len;
      for (size_t i = 0; i < out.size(); ++i) {
        ASSERT_TRUE(SameEntry(out[i], decoded[i]))
            << "truncated to " << len << ", entry " << i;
      }
    }
    for (size_t bit = 0; bit < valid.size() * 8; ++bit) {
      PayloadBytes flipped = valid;
      flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      std::vector<LogEntry> out = decode(flipped);
      ASSERT_EQ(out.size(), decoded.size()) << "bit " << bit;
      for (size_t i = 0; i < out.size(); ++i) {
        if (i != bit / 8 / record) {
          ASSERT_TRUE(SameEntry(out[i], decoded[i]))
              << "bit " << bit << ", entry " << i;
        }
      }
    }
  }
  // A payload of any other AM type is not a dump frame.
  PayloadBytes legacy;
  EncodeDumpFrame(TraceDumpService::kAmType, frames[0].entries, &legacy);
  std::vector<LogEntry> none;
  EXPECT_EQ(DumpRecordBytes(0x5C), 0u);
  EXPECT_EQ(DecodeDumpFrame(0x5C, legacy, &none), 0u);
  EXPECT_TRUE(none.empty());
}

}  // namespace
}  // namespace quanto
