// Tests of the widened addressing refactor: 32-bit activity labels with
// 16-bit node fields end to end — medium broadcast with the widened
// broadcast address, AM label stamping past node 255, wide trace-dump
// records, the shared-frame cross-shard fan-out, and a 1000+ mote
// sharded-determinism smoke test.

#include <gtest/gtest.h>

#include <vector>

#include "src/analysis/trace_merge.h"
#include "src/apps/blink.h"
#include "src/apps/mote.h"
#include "src/apps/scale_network.h"
#include "src/apps/trace_dump.h"
#include "src/net/medium.h"
#include "src/sim/sharded_sim.h"

namespace quanto {
namespace {

class FakeRadio : public MediumClient {
 public:
  FakeRadio(node_id_t id, int channel) : id_(id), channel_(channel) {}

  node_id_t NodeId() const override { return id_; }
  int Channel() const override { return channel_; }
  bool Listening() const override { return true; }
  void OnFrameStart(node_id_t sender) override { starts.push_back(sender); }
  void OnFrameComplete(const Packet& packet) override {
    completes.push_back(packet);
  }

  std::vector<node_id_t> starts;
  std::vector<Packet> completes;

 private:
  node_id_t id_;
  int channel_;
};

TEST(WideLabelTest, BroadcastReachesWideNodeIds) {
  // Sender and listeners all carry ids beyond the old uint8_t range; the
  // widened kBroadcastAddr must not collide with any assignable id.
  EventQueue queue;
  Medium medium(&queue);
  FakeRadio sender(500, 26);
  FakeRadio a(300, 26);
  FakeRadio b(65534, 26);
  medium.Register(&sender);
  medium.Register(&a);
  medium.Register(&b);

  Packet p;
  p.src = 500;
  p.dst = kBroadcastAddr;
  p.am_type = 1;
  p.activity = MakeActivity(500, 9);
  EXPECT_TRUE(medium.BeginTransmit(500, 26, p, Microseconds(500)));
  queue.RunUntil(Milliseconds(1));

  ASSERT_EQ(a.completes.size(), 1u);
  ASSERT_EQ(b.completes.size(), 1u);
  EXPECT_EQ(a.completes[0].src, 500);
  EXPECT_EQ(a.completes[0].dst, kBroadcastAddr);
  EXPECT_EQ(ActivityOrigin(a.completes[0].activity), 500);
  EXPECT_TRUE(sender.completes.empty());  // No self-delivery.
  // One frame allocation served the whole local fan-out.
  EXPECT_EQ(medium.frames_allocated(), 1u);
}

TEST(WideLabelTest, AmSendStampsWideOriginAndUnicastFilters) {
  // Two motes past node 255: the receiver's radio must accept a unicast
  // addressed to its wide id, and the hidden field must carry the wide
  // origin through to the handler.
  EventQueue queue;
  Medium medium(&queue);
  Mote::Config a_cfg;
  a_cfg.id = 300;
  Mote a(&queue, &medium, a_cfg);
  Mote::Config b_cfg;
  b_cfg.id = 40000;
  Mote b(&queue, &medium, b_cfg);
  a.radio().PowerOn(nullptr);
  b.radio().PowerOn([&b] { b.radio().StartListening(); });
  queue.RunFor(Milliseconds(5));

  std::vector<Packet> received;
  b.am().RegisterHandler(0x42,
                         [&](const Packet& p) { received.push_back(p); });

  a.cpu().activity().set(a.Label(7));
  Packet p;
  p.dst = 40000;
  p.am_type = 0x42;
  p.payload = {1, 2, 3};
  ASSERT_TRUE(a.am().Send(p));
  a.cpu().activity().set(a.Label(kActIdle));
  queue.RunFor(Milliseconds(50));

  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].src, 300);
  EXPECT_EQ(received[0].activity, MakeActivity(300, 7));
  EXPECT_FALSE(IsLegacyEncodable(received[0].activity));
}

TEST(WideLabelTest, WideLabelCostsTwoExtraWireBytes) {
  Packet p;
  p.payload = {1, 2, 3, 4};
  p.activity = MakeActivity(255, 255);
  size_t legacy_wire = p.WireBytes();
  size_t legacy_fifo = p.FifoBytes();
  p.activity = MakeActivity(256, 1);
  EXPECT_EQ(p.WireBytes(), legacy_wire + 2);
  EXPECT_EQ(p.FifoBytes(), legacy_fifo + 2);
}

TEST(MediumFabricTest, BroadcastFanOutAllocatesOneFrame) {
  // A broadcast reaching listeners in every other shard must allocate
  // exactly one frame however many shards it fans out to — the delivery
  // closures share it by refcount.
  constexpr size_t kShards = 8;
  ShardedSimulator::Config cfg;
  cfg.shards = kShards;
  cfg.threads = 1;
  cfg.lookahead = Microseconds(512);
  ShardedSimulator sim(cfg);
  MediumFabric fabric(&sim);

  std::vector<std::unique_ptr<FakeRadio>> radios;
  for (size_t s = 0; s < kShards; ++s) {
    radios.push_back(
        std::make_unique<FakeRadio>(static_cast<node_id_t>(1000 + s), 26));
    fabric.medium(s).Register(radios[s].get());
  }

  sim.queue(0).Schedule(1000, [&] {
    Packet p;
    p.src = 1000;
    p.dst = kBroadcastAddr;
    p.am_type = 1;
    p.payload.assign(8, 0xAB);
    EXPECT_TRUE(
        fabric.medium(0).BeginTransmit(1000, 26, p, Microseconds(500)));
  });
  sim.RunFor(Milliseconds(5));

  EXPECT_EQ(fabric.cross_posts(), 1u);
  // One listener per remote shard heard the frame.
  for (size_t s = 1; s < kShards; ++s) {
    ASSERT_EQ(radios[s]->completes.size(), 1u) << "shard " << s;
    EXPECT_EQ(radios[s]->completes[0].src, 1000);
  }
  EXPECT_EQ(fabric.packets_delivered(), kShards - 1);
  // The contract under test: one allocation, independent of fan-out.
  EXPECT_EQ(fabric.frames_allocated(), 1u);
}

TEST(WideTraceDumpTest, WideRecordsShipAndReassemble) {
  // A mote past node 255 logs labels no legacy record can carry; the dump
  // service must switch to the wide AM format and the collector must
  // reassemble entries that byte-match the source archive.
  EventQueue queue;
  Medium medium(&queue);
  Mote::Config source_cfg;
  source_cfg.id = 300;
  Mote source(&queue, &medium, source_cfg);
  Mote::Config sink_cfg;
  sink_cfg.id = 9;
  Mote sink(&queue, &medium, sink_cfg);
  source.radio().PowerOn(nullptr);
  sink.radio().PowerOn([&sink] { sink.radio().StartListening(); });
  queue.RunFor(Milliseconds(5));

  TraceDumpService::Config dump_cfg;
  dump_cfg.collector = 9;
  TraceDumpService dump(&source, dump_cfg);
  TraceCollector collector(&sink);
  collector.Start();

  BlinkApp app(&source);
  app.Start();
  dump.Start();
  queue.RunFor(Seconds(20));
  dump.Flush();
  queue.RunFor(Seconds(1));

  ASSERT_GT(collector.packets_received(), 0u);
  const auto& received = collector.TraceFrom(300);
  ASSERT_GT(received.size(), 50u);
  auto local = source.logger().Trace();
  ASSERT_LE(received.size(), local.size());
  bool saw_wide_label = false;
  for (size_t i = 0; i < received.size(); ++i) {
    ASSERT_EQ(received[i].type, local[i].type) << "entry " << i;
    ASSERT_EQ(received[i].res_id, local[i].res_id) << "entry " << i;
    ASSERT_EQ(uint32_t{received[i].time}, uint32_t{local[i].time})
        << "entry " << i;
    ASSERT_EQ(uint32_t{received[i].icount}, uint32_t{local[i].icount})
        << "entry " << i;
    ASSERT_EQ(uint64_t{received[i].payload}, uint64_t{local[i].payload})
        << "entry " << i;
    if (IsActivityEntry(received[i]) &&
        ActivityOrigin(received[i].payload) == 300) {
      saw_wide_label = true;
    }
  }
  EXPECT_TRUE(saw_wide_label);
}

struct WideRun {
  uint64_t executed = 0;
  uint64_t cross_posts = 0;
  uint64_t packets_delivered = 0;
  uint64_t frames_allocated = 0;
  size_t merged_entries = 0;
  uint64_t merge_hash = 0;
};

WideRun RunGridWorkload(size_t threads) {
  ShardedSimulator::Config sim_cfg;
  sim_cfg.shards = 8;
  sim_cfg.threads = threads;
  sim_cfg.lookahead = Microseconds(512);
  ShardedSimulator sim(sim_cfg);
  MediumFabric fabric(&sim);

  ScaleNetworkConfig cfg;
  cfg.motes = 1024;
  cfg.topology = ScaleTopology::kGrid;
  cfg.sinks = 4;
  cfg.batch_log_charging = true;
  ScaleNetwork net(&sim, &fabric, cfg);
  net.PowerUp();
  sim.RunFor(Milliseconds(5));
  net.StartApps();
  sim.RunFor(Seconds(1.0));

  WideRun run;
  run.executed = sim.executed_count();
  run.cross_posts = fabric.cross_posts();
  run.packets_delivered = fabric.packets_delivered();
  run.frames_allocated = fabric.frames_allocated();
  std::vector<MergedEntry> merged = MergeTraces(CollectNodeTraces(net));
  run.merged_entries = merged.size();
  run.merge_hash = MergedTraceHash(merged);
  return run;
}

TEST(WideScaleSmokeTest, Grid1024MotesDeterministicAt1_2_4Threads) {
  // The old ceiling was 256 motes (8-bit node ids). A 1024-mote
  // grid/multi-sink network must run, move packets across shards, and
  // stay thread-count-invariant — the hash covers every merged log field,
  // including the wide labels.
  WideRun one = RunGridWorkload(1);
  EXPECT_GT(one.cross_posts, 0u);
  EXPECT_GT(one.packets_delivered, 0u);
  EXPECT_GT(one.merged_entries, 10000u);
  // Shared-frame accounting: every accepted transmission allocates exactly
  // one frame, cross-shard fan-out adds none.
  EXPECT_GT(one.frames_allocated, 0u);
  EXPECT_LE(one.frames_allocated, one.cross_posts + one.packets_delivered);

  WideRun two = RunGridWorkload(2);
  WideRun four = RunGridWorkload(4);
  for (const WideRun* other : {&two, &four}) {
    EXPECT_EQ(one.executed, other->executed);
    EXPECT_EQ(one.cross_posts, other->cross_posts);
    EXPECT_EQ(one.packets_delivered, other->packets_delivered);
    EXPECT_EQ(one.merged_entries, other->merged_entries);
    EXPECT_EQ(one.merge_hash, other->merge_hash);
  }
}

}  // namespace
}  // namespace quanto
