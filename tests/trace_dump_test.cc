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

}  // namespace
}  // namespace quanto
