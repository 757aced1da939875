// The parallel barrier pipeline: dirty-list sealing, per-shard pre-merged
// runs, and freelist recycling.
//
// The contract under test is threefold:
//  * Equivalence — pre-merged runs reproduce the batch merge exactly,
//    including boundary holdback and 32-bit wraps; at network level the
//    streamed run emits the exact merged sequence (order, content, FNV
//    fingerprint, spill bytes) of a coordinator-side seal of every mote
//    at every barrier and of the batch merge, at any thread count.
//  * Dirty-list economics — an idle mote costs the collector nothing: no
//    sweep visit, no seal call, no chunk, no merger churn.
//  * Recycling — after warm-up, the seal -> merge -> recycle loop
//    performs no entry-buffer allocation, and the run buffers in
//    circulation stay bounded by the runs in flight.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/emission_pipeline.h"
#include "src/analysis/streaming.h"
#include "src/analysis/trace_io.h"
#include "src/analysis/trace_merge.h"
#include "src/apps/scale_network.h"
#include "src/core/logger.h"
#include "src/net/medium.h"
#include "src/sim/sharded_sim.h"
#include "tests/test_files.h"

namespace quanto {
namespace {

class FakeClock : public Clock {
 public:
  Tick Now() const override { return now; }
  Tick now = 0;
};

class FakeCounter : public EnergyCounter {
 public:
  uint32_t ReadPulses() override { return pulses; }
  uint32_t pulses = 0;
};

// --- Dirty list --------------------------------------------------------------

TEST(DirtyListTest, HookFiresOncePerSealInterval) {
  FakeClock clock;
  FakeCounter meter;
  QuantoLogger logger(&clock, &meter, 16);
  int fires = 0;
  logger.SetDirtyHook(
      [](void* ctx, QuantoLogger*) { ++*static_cast<int*>(ctx); }, &fires);

  EXPECT_FALSE(logger.dirty());
  clock.now = 10;
  logger.Append(LogEntryType::kPowerState, 0, 1);
  logger.Append(LogEntryType::kPowerState, 0, 2);
  logger.Append(LogEntryType::kPowerState, 0, 3);
  EXPECT_TRUE(logger.dirty());
  EXPECT_EQ(fires, 1);  // Once per interval, not per append.

  // Sealing re-arms the hook.
  ShardRunBuilder builder(0);
  logger.SetSink(&builder, 1);
  logger.SealToSink();
  EXPECT_FALSE(logger.dirty());
  clock.now = 20;
  logger.Append(LogEntryType::kPowerState, 0, 4);
  EXPECT_EQ(fires, 2);
}

TEST(DirtyListTest, IdleLoggersAreNeverSwept) {
  FakeClock clock;
  FakeCounter meter;
  ShardRunBuilder builder(3);
  QuantoLogger busy(&clock, &meter, 16);
  QuantoLogger idle(&clock, &meter, 16);
  for (QuantoLogger* logger : {&busy, &idle}) {
    logger->SetSink(&builder, logger == &busy ? 1 : 2);
    logger->SetChunkPool(&builder.pool());
    logger->SetDirtyHook(ShardRunBuilder::MarkDirtyHook, &builder);
  }

  clock.now = 50;
  busy.Append(LogEntryType::kPowerState, 0, 1);
  EXPECT_EQ(builder.dirty_count(), 1u);

  EXPECT_EQ(builder.BuildRun(100), 1u);
  // Only the dirty logger was sealed; the idle one was never visited.
  EXPECT_EQ(builder.seal_calls(), 1u);
  EXPECT_EQ(busy.chunks_sealed(), 1u);
  EXPECT_EQ(idle.chunks_sealed(), 0u);
  EXPECT_EQ(idle.empty_seals_skipped(), 0u);
  builder.TakeRun();

  // A window where nothing logged builds nothing and seals nothing.
  EXPECT_EQ(builder.BuildRun(200), 0u);
  EXPECT_EQ(builder.seal_calls(), 1u);
  EXPECT_FALSE(builder.HasRun());
}

// --- ShardRunBuilder ---------------------------------------------------------

TEST(ShardRunBuilderTest, HoldsBackBoundaryEntriesForNextRun) {
  FakeClock clock;
  FakeCounter meter;
  ShardRunBuilder builder(0);
  QuantoLogger logger(&clock, &meter, 16);
  logger.SetSink(&builder, 7);
  logger.SetChunkPool(&builder.pool());
  logger.SetDirtyHook(ShardRunBuilder::MarkDirtyHook, &builder);

  clock.now = 90;
  logger.Append(LogEntryType::kPowerState, 0, 1);
  clock.now = 100;  // Exactly at the barrier: a hook-time entry.
  logger.Append(LogEntryType::kPowerState, 0, 2);

  // The barrier-time entry is held back so this run stays strictly below
  // its barrier (the watermark would not have released it anyway).
  EXPECT_EQ(builder.BuildRun(100), 1u);
  std::vector<MergedEntry> first = builder.TakeRun();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].time64, 90u);
  EXPECT_EQ(builder.entries_carried(), 1u);

  // The held-back entry leads the next run, before anything logged later.
  clock.now = 150;
  logger.Append(LogEntryType::kPowerState, 0, 3);
  EXPECT_EQ(builder.BuildRun(200), 2u);
  std::vector<MergedEntry> second = builder.TakeRun();
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0].time64, 100u);
  EXPECT_EQ(uint64_t{second[0].entry.payload}, 2u);
  EXPECT_EQ(second[1].time64, 150u);

  // Left untaken, the run keeps its entries and the next BuildRun appends
  // behind them; each call returns only the entries it added.
  clock.now = 250;
  logger.Append(LogEntryType::kPowerState, 0, 4);
  clock.now = 300;  // At the barrier again: held back.
  logger.Append(LogEntryType::kPowerState, 0, 5);
  EXPECT_EQ(builder.BuildRun(300), 1u);
  EXPECT_EQ(builder.run_size(), 1u);
  clock.now = 350;
  logger.Append(LogEntryType::kPowerState, 0, 6);
  EXPECT_EQ(builder.BuildRun(400), 2u);
  EXPECT_EQ(builder.BuildRun(500), 0u);  // Nothing logged: adds nothing.
  std::vector<MergedEntry> third = builder.TakeRun();
  ASSERT_EQ(third.size(), 3u);
  EXPECT_EQ(third[0].time64, 250u);
  EXPECT_EQ(third[1].time64, 300u);
  EXPECT_EQ(uint64_t{third[1].entry.payload}, 5u);
  EXPECT_EQ(third[2].time64, 350u);
  EXPECT_EQ(builder.entries_carried(), 2u);
}

TEST(ShardRunBuilderTest, PremergedRunsMatchBatchMergeIncludingWrap) {
  // Two loggers on one shard, same-tick ties across nodes and a 32-bit
  // wrap inside one log, runs cut at awkward barriers: feeding the built
  // runs through OnRun must reproduce MergeTraces exactly, hash included —
  // whether the run is taken at every barrier, at every other one, or
  // only at the last, so that one run is held across the tie and the wrap.
  for (size_t take_every : {size_t{1}, size_t{2}, size_t{3}}) {
    SCOPED_TRACE(take_every);
    FakeClock clock;
    FakeCounter meter;
    ShardRunBuilder builder(0);
    QuantoLogger a(&clock, &meter, 64);
    QuantoLogger b(&clock, &meter, 64);
    a.SetSink(&builder, 5);
    b.SetSink(&builder, 3);
    for (QuantoLogger* logger : {&a, &b}) {
      logger->SetChunkPool(&builder.pool());
      logger->SetDirtyHook(ShardRunBuilder::MarkDirtyHook, &builder);
    }

    struct Step {
      QuantoLogger* logger;
      uint32_t time;
      uint32_t payload;
    };
    std::vector<Step> steps = {
        {&a, 100, 1}, {&b, 100, 5},          // Tie across nodes.
        {&a, 0xFFFFFFF0u, 2},                // Near the wrap...
        {&a, 5, 3},  {&b, 6, 6}, {&a, 6, 4}  // ...and past it.
    };
    // Reference logs for the batch merge (unwrapped by MergeTraces itself).
    std::vector<NodeTrace> traces(2);
    traces[0].node = 5;
    traces[1].node = 3;

    StreamingTraceMerger merger;
    std::vector<MergedEntry> streamed;
    merger.SetEmit(
        [&streamed](const MergedEntry& m) { streamed.push_back(m); });

    // Log in three windows with barriers placed mid-sequence (in unwrapped
    // time the wrap puts entries 2..5 past 2^32). The watermark advances
    // only with a taken run, as at a network's hand-off.
    const std::vector<uint64_t> barriers = {uint64_t{0xFFFFFFF0u},
                                            uint64_t{1} << 32, ~uint64_t{0}};
    size_t step = 0;
    size_t added = 0;
    for (size_t i = 0; i < barriers.size(); ++i) {
      uint64_t barrier = barriers[i];
      while (step < steps.size()) {
        const Step& s = steps[step];
        uint64_t unwrapped = s.time < 100 ? (uint64_t{1} << 32) + s.time
                                          : uint64_t{s.time};
        if (unwrapped >= barrier) {
          break;
        }
        clock.now = s.time;
        s.logger->Append(LogEntryType::kPowerState, 0, s.payload);
        LogEntry e;
        e.type = static_cast<uint8_t>(LogEntryType::kPowerState);
        e.res_id = 0;
        e.time = s.time;
        e.icount = 0;
        e.payload = s.payload;
        (s.logger == &a ? traces[0] : traces[1]).entries.push_back(e);
        ++step;
      }
      added += builder.BuildRun(barrier);
      bool take = (i + 1) % take_every == 0 || i + 1 == barriers.size();
      if (!take) {
        continue;
      }
      if (builder.HasRun()) {
        merger.OnRun(0, builder.TakeRun());
      }
      merger.AdvanceWatermark(barrier);
    }
    merger.Finish();
    EXPECT_EQ(added, steps.size());

    std::vector<MergedEntry> batch = MergeTraces(traces);
    ASSERT_EQ(streamed.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(streamed[i].time64, batch[i].time64) << "entry " << i;
      EXPECT_EQ(streamed[i].node, batch[i].node) << "entry " << i;
      EXPECT_EQ(uint64_t{streamed[i].entry.payload},
                uint64_t{batch[i].entry.payload})
          << "entry " << i;
    }
    EXPECT_EQ(merger.hash(), MergedTraceHash(batch));
    EXPECT_EQ(builder.seq_gaps(), 0u);
  }
}

// --- Freelist recycling ------------------------------------------------------

TEST(TraceChunkPoolTest, SteadyStateSealAndMergeAllocateNothing) {
  FakeClock clock;
  FakeCounter meter;
  ShardRunBuilder builder(0);
  QuantoLogger logger(&clock, &meter, 64);
  logger.SetSink(&builder, 1);
  logger.SetChunkPool(&builder.pool());
  logger.SetDirtyHook(ShardRunBuilder::MarkDirtyHook, &builder);
  StreamingTraceMerger merger;

  uint64_t allocated_after_warmup = 0;
  // Run buffers the merger has retired: each taken run's place is filled
  // with one of them.
  std::vector<std::vector<MergedEntry>> retired;
  for (int window = 0; window < 50; ++window) {
    clock.now = 1000 * (window + 1);
    for (int j = 0; j < 8; ++j) {
      logger.Append(LogEntryType::kPowerState, 0, window);
    }
    Tick barrier = clock.now + 1;
    builder.BuildRun(barrier);
    if (builder.HasRun()) {
      std::vector<MergedEntry> next;
      if (!retired.empty()) {
        next = std::move(retired.back());
        retired.pop_back();
      }
      merger.OnRun(0, builder.TakeRun(std::move(next)));
    }
    merger.AdvanceWatermark(barrier);
    merger.TakeRetiredRuns(&retired);
    if (window == 4) {
      allocated_after_warmup = builder.pool().allocated();
    }
  }
  merger.Finish();

  // Entry buffers: every seal acquired one, but after warm-up all of them
  // were recycled buffers — zero fresh allocations in the steady state.
  EXPECT_EQ(builder.pool().acquired(), 50u);
  EXPECT_EQ(builder.pool().recycled(), 50u);
  EXPECT_GT(allocated_after_warmup, 0u);
  EXPECT_EQ(builder.pool().allocated(), allocated_after_warmup);
  EXPECT_EQ(merger.emitted(), 400u);
  EXPECT_EQ(merger.buffered(), 0u);
  // One run taken per window, one buffer back: none piles up.
  EXPECT_EQ(retired.size(), 1u);
}

// --- End-to-end equivalence --------------------------------------------------

struct PipelineRun {
  uint64_t executed = 0;
  uint64_t merge_hash = 0;
  uint64_t emitted = 0;
  uint64_t dropped = 0;
  uint64_t seq_gaps = 0;
  uint64_t windows = 0;
  uint64_t seal_calls = 0;
  uint64_t chunks_sealed = 0;
  uint64_t empty_seals_skipped = 0;
  size_t motes = 0;
  // kPremerged only: hand-offs submitted, run buffers the network added,
  // and the shards × (max_depth + 4) bound they must stay within.
  uint64_t handoffs = 0;
  uint64_t run_buffers_allocated = 0;
  uint64_t run_buffer_bound = 0;
  PipelineResult fit;
};

// kBatch merges the whole traces after the run. kPremerged is the
// runner's streamed path: dirty loggers sealed into per-shard runs on the
// workers, merged behind the barrier by an EmissionPipeline.
// kCoordinator is a reference this test assembles from logger and merger
// calls alone: a batch-collected network whose loggers seal every mote,
// every window, chunk by chunk into the merger from a barrier hook on the
// coordinating thread (after the network's charge-flush hook), before the
// watermark advances.
enum class SealMode { kBatch, kCoordinator, kPremerged };

PipelineRun RunRelay(SealMode mode, size_t threads, size_t motes,
                     double seconds, size_t log_capacity,
                     StreamingPipeline* pipeline = nullptr,
                     const std::string& spill_path = std::string()) {
  ShardedSimulator::Config sim_cfg;
  sim_cfg.shards = 8;
  sim_cfg.threads = threads;
  sim_cfg.lookahead = Microseconds(512);
  ShardedSimulator sim(sim_cfg);
  MediumFabric fabric(&sim);

  StreamingTraceMerger merger;
  std::unique_ptr<FileTraceSink> spill;
  if (!spill_path.empty()) {
    // One huge segment, so the spill is byte-comparable to the batch
    // writer's single-blob output.
    spill = std::make_unique<FileTraceSink>(spill_path, 1 << 24);
    FileTraceSink* sink = spill.get();
    merger.SetEmit([sink](const MergedEntry& m) { sink->Append(m.entry); });
  } else if (pipeline != nullptr) {
    merger.SetEmit(
        [pipeline](const MergedEntry& m) { pipeline->Add(m.entry); });
  }
  // Joins before merger/spill are destroyed (reverse declaration order).
  std::unique_ptr<EmissionPipeline> emission;

  ScaleNetworkConfig cfg;
  cfg.motes = motes;
  cfg.log_capacity = log_capacity;
  cfg.batch_log_charging = true;
  if (mode == SealMode::kPremerged) {
    emission = std::make_unique<EmissionPipeline>(&merger);
    cfg.emission_pipeline = emission.get();
  }
  ScaleNetwork net(&sim, &fabric, cfg);
  if (mode == SealMode::kCoordinator) {
    for (size_t i = 0; i < net.size(); ++i) {
      net.mote(i).logger().SetSink(&merger, net.mote(i).id());
    }
    sim.AddBarrierHook([&net, &merger](Tick window_end) {
      for (size_t i = 0; i < net.size(); ++i) {
        net.mote(i).logger().SealToSink();
      }
      merger.AdvanceWatermark(window_end);
    });
  }

  net.PowerUp();
  sim.RunFor(Milliseconds(5));
  net.StartApps();
  sim.RunFor(static_cast<Tick>(seconds * kTicksPerSecond));

  PipelineRun run;
  run.executed = sim.executed_count();
  run.windows = sim.windows_run();
  run.dropped = net.entries_dropped();
  run.motes = motes;
  if (mode == SealMode::kBatch) {
    std::vector<MergedEntry> merged = MergeTraces(CollectNodeTraces(net));
    run.merge_hash = MergedTraceHash(merged);
    run.emitted = merged.size();
    if (pipeline != nullptr) {
      for (const MergedEntry& m : merged) {
        pipeline->Add(m.entry);
      }
    }
  } else {
    // Streamed: drains the emission pipeline (kPremerged) or seals every
    // logger's tail into the merger (kCoordinator, a network without
    // builders), so this thread may read the merger afterwards.
    net.SealAllChunks();
    merger.Finish();
    run.merge_hash = merger.hash();
    run.emitted = merger.emitted();
    run.seq_gaps = merger.seq_gaps() + net.premerge_seq_gaps();
    run.seal_calls = net.premerge_seal_calls();
    run.chunks_sealed = net.chunks_sealed();
    run.empty_seals_skipped = net.empty_seals_skipped();
    if (emission != nullptr) {
      run.handoffs = emission->windows_submitted();
      run.run_buffers_allocated = net.run_buffers_allocated();
      run.run_buffer_bound = sim_cfg.shards * (emission->max_depth() + 4);
    }
  }
  if (spill != nullptr) {
    EXPECT_TRUE(spill->Close());
  }
  if (pipeline != nullptr) {
    run.fit = pipeline->Solve();
  }
  return run;
}

TEST(BarrierPipelineTest, PremergedMatchesCoordinatorSealAndBatchAt1_2_4) {
  // The golden-hash equivalence proof for the parallel barrier pipeline:
  // identical event sequences, merged fingerprints and streamed
  // regression coefficients vs both a coordinator-side seal of every mote
  // and the batch merge, at 1, 2 and 4 worker threads.
  StreamingPipeline batch_pipeline;
  PipelineRun batch =
      RunRelay(SealMode::kBatch, 1, 64, 1.5, 1 << 16, &batch_pipeline);
  ASSERT_GT(batch.emitted, 1000u);

  StreamingPipeline coord_pipeline;
  PipelineRun coordinator = RunRelay(SealMode::kCoordinator, 1, 64, 1.5, 512,
                                     &coord_pipeline);
  EXPECT_EQ(coordinator.dropped, 0u);
  EXPECT_EQ(coordinator.seq_gaps, 0u);
  EXPECT_EQ(coordinator.executed, batch.executed);
  EXPECT_EQ(coordinator.emitted, batch.emitted);
  EXPECT_EQ(coordinator.merge_hash, batch.merge_hash);
  // The sweep visits idle motes too: its empty seals (suppressed before
  // the merger, so chunks stay below one per mote per window) are what
  // the dirty lists avoid.
  EXPECT_GT(coordinator.empty_seals_skipped, 0u);
  EXPECT_GT(coordinator.chunks_sealed, 0u);
  EXPECT_LT(coordinator.chunks_sealed,
            coordinator.windows * coordinator.motes);
  ASSERT_EQ(coordinator.fit.ok, batch.fit.ok);
  ASSERT_EQ(coordinator.fit.coefficients.size(),
            batch.fit.coefficients.size());
  for (size_t i = 0; i < batch.fit.coefficients.size(); ++i) {
    EXPECT_EQ(coordinator.fit.coefficients[i], batch.fit.coefficients[i])
        << "coefficient " << i;
  }

  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    StreamingPipeline premerge_pipeline;
    PipelineRun premerged = RunRelay(SealMode::kPremerged, threads, 64, 1.5,
                                     512, &premerge_pipeline);
    EXPECT_EQ(premerged.dropped, 0u) << threads;
    EXPECT_EQ(premerged.seq_gaps, 0u) << threads;
    EXPECT_EQ(premerged.executed, batch.executed) << threads;
    EXPECT_EQ(premerged.emitted, batch.emitted) << threads;
    EXPECT_EQ(premerged.merge_hash, batch.merge_hash) << threads;
    EXPECT_EQ(premerged.merge_hash, coordinator.merge_hash) << threads;

    // Bitwise-equal regression output (the analysis sees the same bytes).
    ASSERT_EQ(premerged.fit.ok, batch.fit.ok);
    ASSERT_EQ(premerged.fit.coefficients.size(),
              batch.fit.coefficients.size());
    for (size_t i = 0; i < batch.fit.coefficients.size(); ++i) {
      EXPECT_EQ(premerged.fit.coefficients[i], batch.fit.coefficients[i])
          << "coefficient " << i << " at " << threads << " threads";
    }

    // Dirty-list economics: seal cost is O(motes that logged), far below
    // the motes * windows cost of a full sweep, and every seal produced a
    // chunk (no empty-seal churn at all on this pipeline).
    EXPECT_GT(premerged.seal_calls, 0u);
    EXPECT_LT(premerged.seal_calls, premerged.windows * premerged.motes / 4)
        << threads;
    EXPECT_EQ(premerged.seal_calls, premerged.chunks_sealed) << threads;
    EXPECT_EQ(premerged.empty_seals_skipped, 0u) << threads;
  }
}

TEST(BarrierPipelineTest, SmallWindowsShareAHandOff) {
  // A 64-mote chain logs a few dozen entries per 512 µs window. The
  // builders keep appending windows to their runs until together they
  // hold ScaleNetwork::kHandOffEntries, so one hand-off serves many
  // windows — and the merge still equals the batch merge, with the run
  // buffers in circulation still bounded by one run per shard in flight.
  PipelineRun batch = RunRelay(SealMode::kBatch, 1, 64, 2.0, 1 << 16);
  ASSERT_GT(batch.emitted, 4 * ScaleNetwork::kHandOffEntries);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE(threads);
    PipelineRun premerged =
        RunRelay(SealMode::kPremerged, threads, 64, 2.0, 512);
    EXPECT_EQ(premerged.dropped, 0u);
    EXPECT_EQ(premerged.seq_gaps, 0u);
    EXPECT_EQ(premerged.emitted, batch.emitted);
    EXPECT_EQ(premerged.merge_hash, batch.merge_hash);
    EXPECT_GT(premerged.handoffs, 1u);
    EXPECT_LE(premerged.handoffs * 10, premerged.windows);
    EXPECT_GT(premerged.run_buffers_allocated, 0u);
    EXPECT_LE(premerged.run_buffers_allocated, premerged.run_buffer_bound);
  }
}

TEST(BarrierPipelineTest, MergeSamplesLineUpWithWindows) {
  // The consumer times one merge per hand-off; the network places each
  // sample at the window that submitted it and 0 at the others, so the
  // profiled merge series lines up with the seal series window for window
  // and loses none of the consumer's time.
  ShardedSimulator::Config sim_cfg;
  sim_cfg.shards = 8;
  sim_cfg.threads = 2;
  sim_cfg.lookahead = Microseconds(512);
  ShardedSimulator sim(sim_cfg);
  MediumFabric fabric(&sim);
  StreamingTraceMerger merger;
  EmissionPipeline emission(&merger);
  ScaleNetworkConfig cfg;
  cfg.motes = 64;
  cfg.log_capacity = 512;
  cfg.batch_log_charging = true;
  cfg.emission_pipeline = &emission;
  cfg.profile_barrier = true;
  ScaleNetwork net(&sim, &fabric, cfg);
  net.PowerUp();
  sim.RunFor(Milliseconds(5));
  net.StartApps();
  sim.RunFor(Seconds(2));
  net.SealAllChunks();
  merger.Finish();

  const std::vector<uint32_t>& seal_us = net.seal_us_samples();
  const std::vector<uint32_t>& merge_us = net.merge_us_samples();
  EXPECT_EQ(seal_us.size(), sim.windows_run());
  ASSERT_EQ(merge_us.size(), seal_us.size());
  // Every hand-off but the unprofiled tail left one sample.
  std::vector<uint32_t> handoff_us = emission.merge_us_samples();
  EXPECT_EQ(handoff_us.size() + 1, emission.windows_submitted());
  EXPECT_LE(handoff_us.size() * 10, merge_us.size());
  uint64_t handoff_total = 0;
  for (uint32_t us : handoff_us) {
    handoff_total += us;
  }
  uint64_t window_total = 0;
  for (uint32_t us : merge_us) {
    window_total += us;
  }
  EXPECT_GT(handoff_total, 0u);
  EXPECT_EQ(window_total, handoff_total);
}

TEST(BarrierPipelineTest, SpillBytesIdenticalToBatchWriter) {
  // Byte-level equivalence all the way to disk: streamed runs spilling
  // through FileTraceSink (single segment) — pre-merged at 4 threads, and
  // the coordinator-side seal — produce the exact file the batch path's
  // WriteTraceFile produces, which is what makes quanto_report output
  // byte-identical across collection modes.
  std::string batch_path = TempPath("barrier_batch");
  {
    ShardedSimulator::Config sim_cfg;
    sim_cfg.shards = 8;
    sim_cfg.threads = 2;
    sim_cfg.lookahead = Microseconds(512);
    ShardedSimulator sim(sim_cfg);
    MediumFabric fabric(&sim);
    ScaleNetworkConfig cfg;
    cfg.motes = 48;
    cfg.log_capacity = 1 << 16;
    cfg.batch_log_charging = true;
    ScaleNetwork net(&sim, &fabric, cfg);
    net.PowerUp();
    sim.RunFor(Milliseconds(5));
    net.StartApps();
    sim.RunFor(Seconds(1));
    ASSERT_TRUE(WriteTraceFile(
        batch_path, MergedEntryStream(MergeTraces(CollectNodeTraces(net)))));
  }

  std::string premerge_path = TempPath("barrier_premerge");
  PipelineRun premerged =
      RunRelay(SealMode::kPremerged, 4, 48, 1.0, 512, nullptr, premerge_path);
  std::string coord_path = TempPath("barrier_coord");
  PipelineRun coordinator =
      RunRelay(SealMode::kCoordinator, 1, 48, 1.0, 512, nullptr, coord_path);
  EXPECT_EQ(premerged.dropped, 0u);
  EXPECT_EQ(coordinator.dropped, 0u);
  EXPECT_EQ(premerged.merge_hash, coordinator.merge_hash);

  auto read_all = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  std::string batch_bytes = read_all(batch_path);
  ASSERT_FALSE(batch_bytes.empty());
  EXPECT_EQ(read_all(premerge_path), batch_bytes);
  EXPECT_EQ(read_all(coord_path), batch_bytes);
  std::remove(batch_path.c_str());
  std::remove(premerge_path.c_str());
  std::remove(coord_path.c_str());
}

TEST(BarrierPipelineTest, RunBuffersStayBoundedWithQuietShards) {
  // A 64-mote chain over 8 shards: in most windows only one or two shards
  // log anything. Retired run buffers go only to builders whose run is
  // taken, so the buffers in circulation stay within what the pipeline
  // can hold in flight, shards × (max_depth + 4), however the runs are
  // spread over the shards.
  for (size_t threads : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE(threads);
    ShardedSimulator::Config sim_cfg;
    sim_cfg.shards = 8;
    sim_cfg.threads = threads;
    sim_cfg.lookahead = Microseconds(512);
    ShardedSimulator sim(sim_cfg);
    MediumFabric fabric(&sim);
    StreamingTraceMerger merger;
    EmissionPipeline emission(&merger);
    ScaleNetworkConfig cfg;
    cfg.motes = 64;
    cfg.log_capacity = 512;
    cfg.batch_log_charging = true;
    cfg.emission_pipeline = &emission;
    ScaleNetwork net(&sim, &fabric, cfg);
    net.PowerUp();
    sim.RunFor(Milliseconds(5));
    net.StartApps();

    const uint64_t bound = sim_cfg.shards * (emission.max_depth() + 4);
    // Warm-up is the first two simulated seconds (about 1 000 windows).
    uint64_t warmup_windows = 0;
    uint64_t warmup_allocated = 0;
    for (int second = 1; sim.windows_run() < 10000; ++second) {
      ASSERT_LE(second, 120) << "too few windows per simulated second";
      sim.RunFor(Seconds(1));
      ASSERT_LE(net.run_buffers_allocated(), bound)
          << "after " << sim.windows_run() << " windows";
      if (second == 2) {
        warmup_windows = sim.windows_run();
        warmup_allocated = net.run_buffers_allocated();
      }
    }
    net.SealAllChunks();
    merger.Finish();
    EXPECT_EQ(net.entries_dropped(), 0u);
    EXPECT_EQ(net.premerge_seq_gaps(), 0u);
    EXPECT_GT(warmup_allocated, 0u);
    EXPECT_LE(net.run_buffers_allocated(), bound);
    // After warm-up fewer than 1 window in 100 adds a buffer: only a
    // deeper backlog than any before can add one.
    uint64_t later_windows = sim.windows_run() - warmup_windows;
    EXPECT_LT((net.run_buffers_allocated() - warmup_allocated) * 100,
              later_windows);
  }
}

TEST(BarrierPipelineTest, SingleEngineBuildDegradesToPlainStreaming) {
  // A single-engine build has no shards to pre-merge across: the config
  // degrades to plain streamed collection — every logger sealed straight
  // into the pipeline's merger by SealAllChunks — and that stream equals
  // the batch merge of the same single-engine run.
  auto run = [](bool streamed, uint64_t* hash, uint64_t* emitted) {
    EventQueue queue;
    Medium medium(&queue);
    StreamingTraceMerger merger;
    EmissionPipeline pipeline(&merger);
    ScaleNetworkConfig cfg;
    cfg.motes = 8;
    cfg.log_capacity = 1 << 12;
    if (streamed) {
      cfg.emission_pipeline = &pipeline;
    }
    ScaleNetwork net(&queue, &medium, cfg);
    EXPECT_FALSE(net.premerge_active());
    net.PowerUp();
    queue.RunFor(Milliseconds(5));
    net.StartApps();
    queue.RunFor(Seconds(0.2));
    EXPECT_EQ(net.entries_dropped(), 0u);
    if (streamed) {
      net.SealAllChunks();
      merger.Finish();
      EXPECT_EQ(merger.seq_gaps(), 0u);
      *hash = merger.hash();
      *emitted = merger.emitted();
    } else {
      std::vector<MergedEntry> merged = MergeTraces(CollectNodeTraces(net));
      *hash = MergedTraceHash(merged);
      *emitted = merged.size();
    }
  };
  uint64_t batch_hash = 0;
  uint64_t batch_emitted = 0;
  run(false, &batch_hash, &batch_emitted);
  uint64_t streamed_hash = 0;
  uint64_t streamed_emitted = 0;
  run(true, &streamed_hash, &streamed_emitted);
  EXPECT_GT(streamed_emitted, 10u);
  EXPECT_EQ(streamed_emitted, batch_emitted);
  EXPECT_EQ(streamed_hash, batch_hash);
}

}  // namespace
}  // namespace quanto
