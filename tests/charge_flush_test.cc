// The fused worker-side charge flush: one dirty pass per mote-window.
//
// PR 9 moved the batched CPU self-charge flush of streamed runs off the
// serial barrier hook and fused it into the per-shard pre-barrier seal
// pass (ShardRunBuilder::BuildRun with flush_charges), reusing the seal
// dirty list as the unified dirty list. Batch-collected runs have no
// builders and keep the serial hook — over per-shard dirty lists, or
// over every mote with legacy_full_charge_sweep — which makes them the
// references the fused pass is compared against. The contract under test
// is fourfold:
//  * Equivalence — the fused pass reproduces the serial-hook and full-
//    sweep simulations event for event: equal merged-trace hashes, equal
//    executed-event counts, at 1/2/4 threads, on both topologies.
//  * One pass, not two — the fused pass and the serial dirty-list hook
//    visit exactly the same dirty loggers (charge_flush_visits equal),
//    and every visit that owed cycles handed them over (charge_flushes
//    equal on all three, the full sweep included — its extra visits are
//    zero-pending no-ops).
//  * Order — a shard's fused pass flushes in ascending node-id order,
//    the historical sweep's per-queue order.
//  * Unified dirty list — under batch charging the log-dirty and
//    charge-dirty hooks fire together, once per window, on the first
//    Append; the fused path's reuse of the seal list rests on exactly
//    that coincidence.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/analysis/emission_pipeline.h"
#include "src/analysis/trace_merge.h"
#include "src/apps/scale_network.h"
#include "src/core/logger.h"
#include "src/net/medium.h"
#include "src/sim/sharded_sim.h"

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

// Records which logger's charge arrived, in order — the observable the
// flush-order test pins.
class RecordingChargeHook : public CpuChargeHook {
 public:
  RecordingChargeHook(std::vector<uint32_t>* order, uint32_t id)
      : order_(order), id_(id) {}
  void ChargeCycles(Cycles cycles) override {
    order_->push_back(id_);
    total += cycles;
  }
  Cycles total = 0;

 private:
  std::vector<uint32_t>* order_;
  uint32_t id_;
};

// --- Workload equivalence: fused pass vs the serial flush -------------------

struct FlushRun {
  uint64_t hash = 0;  // Streamed: the merger's online fingerprint; batch:
                      // the post-hoc merge. Equal for one simulation.
  uint64_t visits = 0;
  uint64_t windows = 0;
  uint64_t flushes = 0;  // Nonzero-pending FlushCpuCharge calls.
  uint64_t executed = 0;
  bool fused = false;
};

// One 128-mote workload, either streamed through the emission pipeline
// (the fused flush) or batch-collected (the serial flush hook, over the
// dirty lists or, with `legacy_sweep`, over every mote).
FlushRun RunWorkload(ScaleTopology topology, size_t threads, bool streamed,
                     bool legacy_sweep = false) {
  ShardedSimulator::Config sim_cfg;
  sim_cfg.shards = 8;
  sim_cfg.threads = threads;
  sim_cfg.lookahead = Microseconds(512);
  ShardedSimulator sim(sim_cfg);
  MediumFabric fabric(&sim);
  StreamingTraceMerger merger;
  // Joins before the merger is destroyed (reverse declaration order).
  std::unique_ptr<EmissionPipeline> emission;
  ScaleNetworkConfig cfg;
  cfg.motes = 128;
  cfg.topology = topology;
  if (topology == ScaleTopology::kGrid) {
    cfg.sinks = 4;
  }
  cfg.batch_log_charging = true;
  cfg.legacy_full_charge_sweep = legacy_sweep;
  if (streamed) {
    emission = std::make_unique<EmissionPipeline>(&merger);
    cfg.emission_pipeline = emission.get();
    cfg.log_capacity = 1024;
  }
  ScaleNetwork net(&sim, &fabric, cfg);
  net.PowerUp();
  sim.RunFor(Milliseconds(5));
  net.StartApps();
  sim.RunFor(Seconds(1.0));
  FlushRun r;
  if (streamed) {
    net.SealAllChunks();
    merger.Finish();
    r.hash = merger.hash();
  } else {
    r.hash = MergedTraceHash(MergeTraces(CollectNodeTraces(net)));
  }
  r.visits = net.charge_flush_visits();
  r.windows = net.charge_flush_windows();
  r.flushes = net.charge_flushes();
  r.executed = sim.executed_count();
  r.fused = net.fused_charge_flush();
  return r;
}

class ChargeFlushPathTest : public ::testing::TestWithParam<ScaleTopology> {};

TEST_P(ChargeFlushPathTest, FusedMatchesSerialHookAcrossThreadCounts) {
  ScaleTopology topo = GetParam();
  FlushRun serial = RunWorkload(topo, 1, /*streamed=*/false);
  EXPECT_FALSE(serial.fused);
  EXPECT_GT(serial.visits, 0u);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    FlushRun fused = RunWorkload(topo, threads, /*streamed=*/true);
    EXPECT_TRUE(fused.fused) << "threads " << threads;
    // Same simulation, event for event and byte for byte.
    EXPECT_EQ(fused.executed, serial.executed) << "threads " << threads;
    EXPECT_EQ(fused.hash, serial.hash) << "threads " << threads;
    // One pass per dirty mote per window, not two: the fused walk visits
    // exactly the loggers the serial hook's charge-dirty lists held (the
    // unified-dirty-list coincidence), and every visit flushed.
    EXPECT_EQ(fused.windows, serial.windows) << "threads " << threads;
    EXPECT_EQ(fused.visits, serial.visits) << "threads " << threads;
    EXPECT_EQ(fused.flushes, serial.flushes) << "threads " << threads;
    EXPECT_EQ(fused.flushes, fused.visits) << "threads " << threads;
  }
}

TEST_P(ChargeFlushPathTest, LegacySweepMatchesFusedHashAndFlushes) {
  ScaleTopology topo = GetParam();
  FlushRun fused = RunWorkload(topo, 2, /*streamed=*/true);
  FlushRun sweep =
      RunWorkload(topo, 2, /*streamed=*/false, /*legacy_sweep=*/true);
  EXPECT_FALSE(sweep.fused);
  EXPECT_EQ(sweep.hash, fused.hash);
  EXPECT_EQ(sweep.executed, fused.executed);
  // The sweep visits every mote every window, exactly; only the visits
  // that owed cycles charged anything, and those equal the fused flushes.
  EXPECT_EQ(sweep.visits, sweep.windows * 128);
  EXPECT_EQ(sweep.flushes, fused.flushes);
  // The fused list stays sparse: that is what the sweep's extra visits
  // were paying for.
  EXPECT_LT(fused.visits, fused.windows * 128 / 4);
}

TEST_P(ChargeFlushPathTest, StreamedFusedMatchesBatchCollection) {
  ScaleTopology topo = GetParam();
  uint64_t batch = RunWorkload(topo, 2, /*streamed=*/false).hash;
  for (size_t threads : {size_t{1}, size_t{2}}) {
    FlushRun fused = RunWorkload(topo, threads, /*streamed=*/true);
    EXPECT_EQ(fused.hash, batch) << "threads " << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, ChargeFlushPathTest,
                         ::testing::Values(ScaleTopology::kChain,
                                           ScaleTopology::kGrid),
                         [](const auto& info) {
                           return info.param == ScaleTopology::kGrid
                                      ? "Grid"
                                      : "Chain";
                         });

// --- Fused pass order --------------------------------------------------------

TEST(FusedFlushOrderTest, FlushesInAscendingNodeIdOrder) {
  // Loggers marked dirty in scrambled order must flush in ascending node
  // id — the historical sweep's per-queue order, which is what makes the
  // fused pass event-identical to it.
  FakeClock clock;
  FakeCounter meter;
  ShardRunBuilder builder(0);
  std::vector<uint32_t> flush_order;
  constexpr uint32_t kNodes[] = {11, 3, 7, 1, 9};
  std::vector<std::unique_ptr<QuantoLogger>> loggers;
  std::vector<std::unique_ptr<RecordingChargeHook>> hooks;
  for (uint32_t node : kNodes) {
    auto logger = std::make_unique<QuantoLogger>(&clock, &meter, 16);
    hooks.push_back(std::make_unique<RecordingChargeHook>(&flush_order, node));
    logger->SetCpuChargeHook(hooks.back().get());
    logger->SetChargeBatching(true);
    logger->SetSink(&builder, node);
    logger->SetChunkPool(&builder.pool());
    logger->SetDirtyHook(ShardRunBuilder::MarkDirtyHook, &builder);
    loggers.push_back(std::move(logger));
  }
  clock.now = 10;
  for (auto& logger : loggers) {
    logger->Append(LogEntryType::kPowerState, 0, 1);  // Marks dirty, accrues.
  }
  EXPECT_EQ(builder.dirty_count(), 5u);

  EXPECT_EQ(builder.BuildRun(100, /*flush_charges=*/true), 5u);
  EXPECT_EQ(flush_order, (std::vector<uint32_t>{1, 3, 7, 9, 11}));
  EXPECT_EQ(builder.charge_flush_visits(), 5u);
  for (auto& logger : loggers) {
    EXPECT_EQ(logger->pending_charge(), 0u);
    EXPECT_EQ(logger->charge_flushes(), 1u);
  }
  // The flush precedes the seal in the same visit, so the entries the
  // pass sealed are untouched by it: one entry per logger, node-sorted.
  std::vector<MergedEntry> run = builder.TakeRun();
  ASSERT_EQ(run.size(), 5u);
  for (size_t i = 1; i < run.size(); ++i) {
    EXPECT_LT(run[i - 1].node, run[i].node);
  }
}

TEST(FusedFlushOrderTest, UnfusedBuildRunLeavesChargesPending) {
  // The tail flush (SealAllChunks) passes flush_charges=false: charges
  // stay pending, matching the serial flush, which never flushes at the
  // tail either — visit parity depends on it.
  FakeClock clock;
  FakeCounter meter;
  ShardRunBuilder builder(0);
  std::vector<uint32_t> flush_order;
  RecordingChargeHook hook(&flush_order, 1);
  QuantoLogger logger(&clock, &meter, 16);
  logger.SetCpuChargeHook(&hook);
  logger.SetChargeBatching(true);
  logger.SetSink(&builder, 1);
  logger.SetChunkPool(&builder.pool());
  logger.SetDirtyHook(ShardRunBuilder::MarkDirtyHook, &builder);
  clock.now = 10;
  logger.Append(LogEntryType::kPowerState, 0, 1);
  Cycles pending = logger.pending_charge();
  EXPECT_GT(pending, 0u);

  EXPECT_EQ(builder.BuildRun(~Tick{0}), 1u);
  EXPECT_TRUE(flush_order.empty());
  EXPECT_EQ(logger.pending_charge(), pending);
  EXPECT_EQ(builder.charge_flush_visits(), 0u);
  EXPECT_EQ(logger.charge_flushes(), 0u);
}

// --- Unified dirty list ------------------------------------------------------

TEST(UnifiedDirtyListTest, BothHooksFireTogetherOncePerWindow) {
  // Under batch charging the first Append of a window sets both dirty
  // bits, and both clear once per window (SealToSink / FlushCpuCharge) —
  // so the charge-dirty set always equals the log-dirty set. This is the
  // coincidence that lets the fused pass drop the charge-dirty hook and
  // reuse the seal list as the unified dirty list.
  FakeClock clock;
  FakeCounter meter;
  ShardRunBuilder builder(0);
  QuantoLogger logger(&clock, &meter, 16);
  logger.SetChargeBatching(true);
  logger.SetSink(&builder, 1);
  logger.SetChunkPool(&builder.pool());
  int log_dirty_fires = 0;
  int charge_dirty_fires = 0;
  logger.SetDirtyHook(
      [](void* ctx, QuantoLogger*) { ++*static_cast<int*>(ctx); },
      &log_dirty_fires);
  logger.SetChargeDirtyHook(
      [](void* ctx, QuantoLogger*) { ++*static_cast<int*>(ctx); },
      &charge_dirty_fires);

  // Window 1: three appends, one firing each.
  clock.now = 10;
  for (int i = 0; i < 3; ++i) {
    logger.Append(LogEntryType::kPowerState, 0, i);
    EXPECT_EQ(log_dirty_fires, 1);
    EXPECT_EQ(charge_dirty_fires, 1);
  }
  EXPECT_TRUE(logger.dirty());
  EXPECT_GT(logger.pending_charge(), 0u);

  // The window's once-per-mote visit: flush, then seal.
  logger.FlushCpuCharge();
  logger.SealToSink();
  EXPECT_FALSE(logger.dirty());
  EXPECT_EQ(logger.pending_charge(), 0u);

  // Window 2: the first Append re-arms both, together.
  clock.now = 20;
  logger.Append(LogEntryType::kPowerState, 0, 9);
  EXPECT_EQ(log_dirty_fires, 2);
  EXPECT_EQ(charge_dirty_fires, 2);
}

}  // namespace
}  // namespace quanto
