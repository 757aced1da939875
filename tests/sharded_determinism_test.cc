// Determinism proof for the sharded simulation core: the worker-thread
// count must be invisible to the simulation. A 1-thread run and an
// N-thread run of the same configuration (same shard count, same
// lookahead) must produce identical merged event sequences and identical
// streamed regression coefficients — the sharding refactor's contract.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "src/analysis/streaming.h"
#include "src/analysis/trace_merge.h"
#include "src/apps/scale_network.h"
#include "src/net/medium.h"
#include "src/sim/sharded_sim.h"

namespace quanto {
namespace {

struct ShardedRun {
  uint64_t executed = 0;
  uint64_t cross_posts = 0;
  uint64_t packets_delivered = 0;
  std::vector<MergedEntry> merged;
  uint64_t merge_hash = 0;
  // Streamed regression per representative mote (origin backbone, LPL
  // listener, mid-chain backbone).
  std::vector<PipelineResult> fits;
};

ShardedRun RunRelayWorkload(size_t threads) {
  ShardedSimulator::Config sim_cfg;
  sim_cfg.shards = 8;
  sim_cfg.threads = threads;
  sim_cfg.lookahead = Microseconds(512);
  ShardedSimulator sim(sim_cfg);
  MediumFabric fabric(&sim);

  ScaleNetworkConfig cfg;
  cfg.motes = 64;
  cfg.batch_log_charging = true;
  ScaleNetwork net(&sim, &fabric, cfg);
  net.PowerUp();
  sim.RunFor(Milliseconds(5));
  net.StartApps();
  sim.RunFor(Seconds(1.5));

  ShardedRun run;
  run.executed = sim.executed_count();
  run.cross_posts = fabric.cross_posts();
  run.packets_delivered = fabric.packets_delivered();

  run.merged = MergeTraces(CollectNodeTraces(net));
  run.merge_hash = MergedTraceHash(run.merged);

  for (size_t mote : {size_t{0}, size_t{1}, size_t{4}}) {
    run.fits.push_back(RunPipeline(net.mote(mote).logger().Trace()));
  }
  return run;
}

void ExpectIdentical(const ShardedRun& a, const ShardedRun& b) {
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.cross_posts, b.cross_posts);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.merge_hash, b.merge_hash);

  ASSERT_EQ(a.merged.size(), b.merged.size());
  for (size_t i = 0; i < a.merged.size(); ++i) {
    const MergedEntry& x = a.merged[i];
    const MergedEntry& y = b.merged[i];
    ASSERT_EQ(x.time64, y.time64) << "entry " << i;
    ASSERT_EQ(x.node, y.node) << "entry " << i;
    ASSERT_EQ(x.entry.type, y.entry.type) << "entry " << i;
    ASSERT_EQ(x.entry.res_id, y.entry.res_id) << "entry " << i;
    ASSERT_EQ(uint32_t{x.entry.time}, uint32_t{y.entry.time}) << "entry " << i;
    ASSERT_EQ(uint32_t{x.entry.icount}, uint32_t{y.entry.icount})
        << "entry " << i;
    ASSERT_EQ(uint64_t{x.entry.payload}, uint64_t{y.entry.payload})
        << "entry " << i;
  }

  // Streamed regression coefficients: exact (bitwise) equality — the
  // analysis input is byte-identical, so its output must be too.
  ASSERT_EQ(a.fits.size(), b.fits.size());
  for (size_t f = 0; f < a.fits.size(); ++f) {
    EXPECT_EQ(a.fits[f].ok, b.fits[f].ok) << "fit " << f;
    ASSERT_EQ(a.fits[f].coefficients.size(), b.fits[f].coefficients.size());
    for (size_t c = 0; c < a.fits[f].coefficients.size(); ++c) {
      EXPECT_EQ(a.fits[f].coefficients[c], b.fits[f].coefficients[c])
          << "fit " << f << " coefficient " << c;
    }
  }
}

TEST(ShardedDeterminismTest, RelayWorkloadIdenticalAt1_2_4Threads) {
  ShardedRun one = RunRelayWorkload(1);

  // The workload must actually exercise the cross-shard machinery, or the
  // test proves nothing.
  EXPECT_GT(one.cross_posts, 0u);
  EXPECT_GT(one.packets_delivered, 0u);
  EXPECT_GT(one.merged.size(), 1000u);

  ShardedRun two = RunRelayWorkload(2);
  ShardedRun four = RunRelayWorkload(4);
  {
    SCOPED_TRACE("1 thread vs 2 threads");
    ExpectIdentical(one, two);
  }
  {
    SCOPED_TRACE("1 thread vs 4 threads");
    ExpectIdentical(one, four);
  }
}

TEST(ShardedDeterminismTest, RepeatedRunsAreReproducible) {
  // Same thread count twice: guards against any hidden global state
  // leaking between constructions (RNGs, statics).
  ShardedRun a = RunRelayWorkload(2);
  ShardedRun b = RunRelayWorkload(2);
  ExpectIdentical(a, b);
}

TEST(ShardedSimulatorTest, FastForwardsIdleGaps) {
  // Two shards, one event far in the future: the runner must not grind
  // through every empty window between here and there.
  ShardedSimulator::Config cfg;
  cfg.shards = 2;
  cfg.threads = 1;
  cfg.lookahead = Microseconds(100);
  ShardedSimulator sim(cfg);
  bool fired = false;
  sim.queue(1).Schedule(Seconds(10.0), [&fired] { fired = true; });
  sim.RunUntil(Seconds(10.0));
  EXPECT_TRUE(fired);
  // Without fast-forward this would be 100k windows.
  EXPECT_LT(sim.windows_run(), 100u);
}

TEST(ShardedSimulatorTest, BarrierHooksRunOncePerWindow) {
  ShardedSimulator::Config cfg;
  cfg.shards = 2;
  cfg.threads = 2;
  cfg.lookahead = Microseconds(500);
  ShardedSimulator sim(cfg);
  // Keep both shards busy (a 100 us heartbeat each) so no windows are
  // skipped by the idle fast-forward.
  struct Heartbeat {
    EventQueue* q = nullptr;
    void Arm() {
      q->ScheduleAfter(Microseconds(100), [this] { Arm(); });
    }
  };
  Heartbeat beats[2];
  for (size_t s = 0; s < 2; ++s) {
    beats[s].q = &sim.queue(s);
    beats[s].Arm();
  }
  uint64_t hook_calls = 0;
  Tick last_end = 0;
  sim.AddBarrierHook([&](Tick window_end) {
    ++hook_calls;
    EXPECT_GT(window_end, last_end);
    last_end = window_end;
  });
  sim.RunFor(Milliseconds(50));
  EXPECT_EQ(hook_calls, sim.windows_run());
  EXPECT_GE(hook_calls, 100u - 1);
}

TEST(ShardedSimulatorTest, PhaseOrderAcrossThreads) {
  // One dispatch per window runs window tasks, the in-pool barrier and the
  // drain tasks back to back; hooks follow the completion count. Every
  // drain must see every shard's window task of this window done, and
  // every hook every drain done. The record slots are plain (non-atomic),
  // so under TSAN a missing happens-before edge also shows as a race.
  constexpr size_t kShards = 8;
  for (size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
    SCOPED_TRACE(threads);
    ShardedSimulator::Config cfg;
    cfg.shards = kShards;
    cfg.threads = threads;
    cfg.lookahead = Microseconds(100);
    ShardedSimulator sim(cfg);
    ASSERT_EQ(sim.thread_count(), threads);
    // A 20 us heartbeat on every shard: no window is idle or skipped.
    struct Heartbeat {
      EventQueue* q = nullptr;
      void Arm() {
        q->ScheduleAfter(Microseconds(20), [this] { Arm(); });
      }
    };
    Heartbeat beats[kShards];
    for (size_t s = 0; s < kShards; ++s) {
      beats[s].q = &sim.queue(s);
      beats[s].Arm();
    }
    std::vector<Tick> window_done(kShards, 0);
    std::vector<Tick> drain_done(kShards, 0);
    std::vector<uint64_t> window_calls(kShards, 0);
    std::vector<uint64_t> drain_calls(kShards, 0);
    std::vector<uint64_t> drain_errors(kShards, 0);
    uint64_t hook_calls = 0;
    uint64_t hook_errors = 0;
    sim.AddShardWindowTask([&](size_t shard, Tick window_end) {
      // Skew the arrivals: a different shard yields its core each window.
      if (window_calls[shard] % kShards == shard) {
        std::this_thread::yield();
      }
      window_done[shard] = window_end;
      ++window_calls[shard];
    });
    sim.AddShardDrainTask([&](size_t shard, Tick window_end) {
      for (Tick done : window_done) {
        if (done != window_end) {
          ++drain_errors[shard];
        }
      }
      drain_done[shard] = window_end;
      ++drain_calls[shard];
    });
    sim.AddBarrierHook([&](Tick window_end) {
      for (Tick done : drain_done) {
        if (done != window_end) {
          ++hook_errors;
        }
      }
      ++hook_calls;
    });
    while (sim.windows_run() < 10000) {
      sim.RunFor(Milliseconds(250));
    }
    uint64_t windows = sim.windows_run();
    EXPECT_EQ(hook_calls, windows);
    EXPECT_EQ(hook_errors, 0u);
    for (size_t s = 0; s < kShards; ++s) {
      EXPECT_EQ(window_calls[s], windows) << "shard " << s;
      EXPECT_EQ(drain_calls[s], windows) << "shard " << s;
      EXPECT_EQ(drain_errors[s], 0u) << "shard " << s;
    }
  }
}

TEST(ShardedSimulatorTest, DestroysParkedWorkers) {
  // A waiter parks once its bounded spin runs out; 20 ms is far past it.
  // Destruction must wake and join parked workers, whether or not the
  // pool ever ran a window. A hang here fails on the test timeout.
  ShardedSimulator::Config cfg;
  cfg.shards = 8;
  cfg.threads = 4;
  {
    ShardedSimulator sim(cfg);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  {
    ShardedSimulator sim(cfg);
    sim.AddShardDrainTask([](size_t, Tick) {});
    bool fired = false;
    sim.queue(3).Schedule(Milliseconds(1), [&fired] { fired = true; });
    sim.RunFor(Milliseconds(5));
    EXPECT_TRUE(fired);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

}  // namespace
}  // namespace quanto
