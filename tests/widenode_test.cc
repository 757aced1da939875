// Regression tests for the 32-bit node-id refactor.
//
// The refactor widened node_id_t to uint32 (act_t to a 48-bit label) and
// added the v3 wide-node trace record. Its contract is that nothing
// already on disk or on the air changes: v1 and v2 containers stay
// byte-identical whenever labels fit them, merged-trace hashes keep their
// historical values, and quanto_report's numbers are bit-identical. The
// golden constants below were generated by building the fixture workloads
// against the pre-refactor tree and recording the bytes/hashes it
// produced; these tests replay the same workloads and require identity.
//
// Also here: the v3 round-trips and version-selection rules, the
// broadcast-address mapping (0xFFFFFFFF in memory, 0xFFFF in v2, never in
// v1), the wide-node radio dump format, packet wire-byte tiers, and the
// dirty-list charge flush vs full-sweep equality proof.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/analysis/accounting.h"
#include "src/analysis/emission_pipeline.h"
#include "src/analysis/streaming.h"
#include "src/analysis/trace.h"
#include "src/analysis/trace_io.h"
#include "src/analysis/trace_merge.h"
#include "src/apps/blink.h"
#include "src/apps/mote.h"
#include "src/apps/scale_network.h"
#include "src/apps/trace_dump.h"
#include "src/net/medium.h"
#include "src/net/packet.h"
#include "src/sim/sharded_sim.h"
#include "tests/golden_containers.h"

namespace quanto {
namespace {

// --- Golden fixtures (pre-refactor build output) ---------------------------

uint64_t FnvBytes(const std::vector<uint8_t>& bytes) {
  uint64_t h = 14695981039346656037ull;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t FnvString(const std::string& s) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

LogEntry E(LogEntryType t, res_id_t r, uint32_t time, uint32_t ic,
           uint64_t payload) {
  LogEntry e;
  e.type = static_cast<uint8_t>(t);
  e.res_id = r;
  e.time = time;
  e.icount = ic;
  e.payload = payload;
  return e;
}

// Every payload fits the paper's 12-byte record: serializes as v1.
std::vector<LogEntry> LegacyEntries() {
  return {
      E(LogEntryType::kPowerState, 3, 100, 7, 2),
      E(LogEntryType::kActivitySet, 0, 150, 9, MakeActivity(4, 9)),
      E(LogEntryType::kActivityBind, 0, 151, 9, MakeActivity(1, kActIntTimer)),
      E(LogEntryType::kActivityAdd, 5, 0xFFFFFFF0, 0xFFFFFFFE,
        MakeActivity(255, 255)),
      E(LogEntryType::kPowerState, 1, 12, 1, 0xFFFF),
      E(LogEntryType::kActivityRemove, 5, 17, 3, MakeActivity(0, kActIdle)),
  };
}

// Origins past the byte range but within 16 bits: serializes as v2.
std::vector<LogEntry> WideEntries() {
  return {
      E(LogEntryType::kActivitySet, 0, 100, 7, MakeActivity(300, 9)),
      E(LogEntryType::kPowerState, 3, 150, 9, 0x12345),
      E(LogEntryType::kActivitySet, 2, 151, 9, MakeActivity(65534, 65535)),
      E(LogEntryType::kActivityAdd, 5, 152, 10, MakeActivity(1, 1)),
      E(LogEntryType::kPowerState, 1, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF),
  };
}

// kGoldenV1Blob and kGoldenV2Blob (tests/golden_containers.h) are
// SerializeTrace(LegacyEntries()) and SerializeTrace(WideEntries()).

constexpr uint64_t kGoldenFixedMergedHash = 0x5ce947562b73dbc4ull;
constexpr size_t kGoldenFixedMergedCount = 17;

constexpr size_t kGoldenChain64Merged = 193;
constexpr uint64_t kGoldenChain64Hash = 0x9762f68c7aea8595ull;
constexpr size_t kGoldenChain64BlobBytes = 2328;
constexpr uint64_t kGoldenChain64BlobFnv = 0x2c32fcd78813418cull;
constexpr uint64_t kGoldenChain64CoeffFnv = 0x88201fb960ff6465ull;
constexpr uint64_t kGoldenChain64TotalEnergyBits = 0x0000000000000000ull;
constexpr uint64_t kGoldenChain64DumpTextFnv = 0xbbe4d042f6f7dc3dull;

constexpr uint64_t kGoldenGrid256Executed = 27767;
constexpr size_t kGoldenGrid256Merged = 46560;
constexpr uint64_t kGoldenGrid256Hash = 0x377766fb5a1a3c15ull;

// --- Golden byte/hash regression -------------------------------------------

TEST(GoldenRegressionTest, V1ContainerBytesUnchanged) {
  auto entries = LegacyEntries();
  EXPECT_EQ(TraceSerializationVersion(entries), kTraceVersionLegacy);
  auto blob = SerializeTrace(entries, TraceFormat::kAuto);
  ASSERT_EQ(blob.size(), sizeof(kGoldenV1Blob));
  EXPECT_EQ(std::memcmp(blob.data(), kGoldenV1Blob, blob.size()), 0);
  EXPECT_EQ(FnvBytes(blob), 0xb8d7775bfd1569fdull);
}

TEST(GoldenRegressionTest, V2ContainerBytesUnchanged) {
  auto entries = WideEntries();
  EXPECT_EQ(TraceSerializationVersion(entries), kTraceVersionWide);
  auto blob = SerializeTrace(entries, TraceFormat::kAuto);
  ASSERT_EQ(blob.size(), sizeof(kGoldenV2Blob));
  EXPECT_EQ(std::memcmp(blob.data(), kGoldenV2Blob, blob.size()), 0);
  EXPECT_EQ(FnvBytes(blob), 0x604d04409ba17caeull);
}

TEST(GoldenRegressionTest, GoldenBlobsParseBackExactly) {
  std::vector<uint8_t> v1(kGoldenV1Blob, kGoldenV1Blob + sizeof(kGoldenV1Blob));
  auto parsed1 = DeserializeTrace(v1);
  ASSERT_TRUE(parsed1.has_value());
  auto legacy = LegacyEntries();
  ASSERT_EQ(parsed1->size(), legacy.size());
  for (size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(uint64_t{(*parsed1)[i].payload}, uint64_t{legacy[i].payload})
        << "entry " << i;
  }
  std::vector<uint8_t> v2(kGoldenV2Blob, kGoldenV2Blob + sizeof(kGoldenV2Blob));
  auto parsed2 = DeserializeTrace(v2);
  ASSERT_TRUE(parsed2.has_value());
  auto wide = WideEntries();
  ASSERT_EQ(parsed2->size(), wide.size());
  for (size_t i = 0; i < wide.size(); ++i) {
    EXPECT_EQ(uint64_t{(*parsed2)[i].payload}, uint64_t{wide[i].payload})
        << "entry " << i;
  }
}

TEST(GoldenRegressionTest, MergedTraceHashUnchanged) {
  std::vector<NodeTrace> traces;
  traces.push_back(NodeTrace{1, LegacyEntries()});
  traces.push_back(NodeTrace{65534, WideEntries()});
  traces.push_back(NodeTrace{300, LegacyEntries()});
  auto merged = MergeTraces(traces);
  ASSERT_EQ(merged.size(), kGoldenFixedMergedCount);
  EXPECT_EQ(MergedTraceHash(merged), kGoldenFixedMergedHash);
}

// The full chain workload: 64 motes for half a simulated second, merged,
// serialized and pushed through the whole quanto_report pipeline. Every
// number must be bit-identical to the pre-refactor build's.
TEST(GoldenRegressionTest, Chain64WorkloadAndReportUnchanged) {
  EventQueue queue;
  Medium medium(&queue);
  ScaleNetworkConfig cfg;
  cfg.motes = 64;
  ScaleNetwork net(&queue, &medium, cfg);
  net.PowerUp();
  queue.RunFor(Milliseconds(5));
  net.StartApps();
  queue.RunFor(Seconds(0.5));

  std::vector<MergedEntry> merged = MergeTraces(CollectNodeTraces(net));
  ASSERT_EQ(merged.size(), kGoldenChain64Merged);
  EXPECT_EQ(MergedTraceHash(merged), kGoldenChain64Hash);

  std::vector<LogEntry> stream = MergedEntryStream(merged);
  EXPECT_EQ(TraceSerializationVersion(stream), kTraceVersionLegacy);
  auto blob = SerializeTrace(stream, TraceFormat::kAuto);
  ASSERT_EQ(blob.size(), kGoldenChain64BlobBytes);
  EXPECT_EQ(FnvBytes(blob), kGoldenChain64BlobFnv);

  // quanto_report's computation: regression fit, per-activity accounting,
  // text dump. Fingerprints over the double bit patterns, so "equal"
  // means bit-identical, not approximately equal.
  StreamingPipeline::Options stream_opts;
  stream_opts.energy_per_pulse = 8.33;
  StreamingPipeline pipe(stream_opts);
  pipe.AddAll(stream);
  auto fit = pipe.Solve();
  EXPECT_TRUE(fit.ok);
  const auto& columns = pipe.columns();
  uint64_t coeff_fnv = 14695981039346656037ull;
  for (double c : fit.coefficients) {
    uint64_t bits;
    std::memcpy(&bits, &c, 8);
    for (int i = 0; i < 8; ++i) {
      coeff_fnv ^= (bits >> (8 * i)) & 0xFF;
      coeff_fnv *= 1099511628211ull;
    }
  }
  EXPECT_EQ(coeff_fnv, kGoldenChain64CoeffFnv);

  auto events = TraceParser::Parse(stream);
  ActivityAccountant::Options aopts;
  aopts.constant_power = fit.coefficients[columns.size() - 1];
  ActivityAccountant accountant(PowerFromColumns(columns, fit.coefficients),
                                aopts);
  auto accounts = accountant.Run(events, 1);
  double total = accounts.TotalEnergy();
  uint64_t total_bits;
  std::memcpy(&total_bits, &total, 8);
  EXPECT_EQ(total_bits, kGoldenChain64TotalEnergyBits);

  ActivityRegistry registry;
  EXPECT_EQ(FnvString(DumpTraceText(stream, registry)),
            kGoldenChain64DumpTextFnv);
}

// The sharded grid workload whose merge hash is pinned across PRs — now
// run on both charge-flush paths. The dirty-list flush must reproduce the
// full sweep's simulation event for event.
TEST(GoldenRegressionTest, Grid256ShardedHashUnchangedOnBothFlushPaths) {
  for (bool legacy_sweep : {false, true}) {
    for (size_t threads : {size_t{1}, size_t{2}}) {
      ShardedSimulator::Config sim_cfg;
      sim_cfg.shards = 8;
      sim_cfg.threads = threads;
      sim_cfg.lookahead = Microseconds(512);
      ShardedSimulator sim(sim_cfg);
      MediumFabric fabric(&sim);
      ScaleNetworkConfig cfg;
      cfg.motes = 256;
      cfg.topology = ScaleTopology::kGrid;
      cfg.sinks = 4;
      cfg.batch_log_charging = true;
      cfg.legacy_full_charge_sweep = legacy_sweep;
      ScaleNetwork net(&sim, &fabric, cfg);
      net.PowerUp();
      sim.RunFor(Milliseconds(5));
      net.StartApps();
      sim.RunFor(Seconds(1.0));
      auto merged = MergeTraces(CollectNodeTraces(net));
      EXPECT_EQ(sim.executed_count(), kGoldenGrid256Executed)
          << "threads " << threads << " legacy_sweep " << legacy_sweep;
      EXPECT_EQ(merged.size(), kGoldenGrid256Merged);
      EXPECT_EQ(MergedTraceHash(merged), kGoldenGrid256Hash)
          << "threads " << threads << " legacy_sweep " << legacy_sweep;
    }
  }
}

// --- v3 wide-node container ------------------------------------------------

std::vector<LogEntry> WideNodeEntries() {
  return {
      E(LogEntryType::kActivitySet, 0, 100, 7, MakeActivity(70000, 9)),
      E(LogEntryType::kPowerState, 3, 150, 9, 0x123456789ull),
      E(LogEntryType::kActivitySet, 2, 151, 9,
        MakeActivity(0xFFFFFFFE, 65535)),
      E(LogEntryType::kActivityAdd, 5, 152, 10, MakeActivity(1, 1)),
  };
}

TEST(WideNodeTest, V3RoundTripsWideOrigins) {
  auto entries = WideNodeEntries();
  EXPECT_EQ(TraceSerializationVersion(entries), kTraceVersionWideNode);
  auto blob = SerializeTrace(entries, TraceFormat::kAuto);
  // Header (12) + 16 bytes per record.
  ASSERT_EQ(blob.size(), 12 + entries.size() * 16);
  EXPECT_EQ(blob[4], 3);  // Version field.
  auto parsed = DeserializeTrace(blob);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ((*parsed)[i].type, entries[i].type) << "entry " << i;
    EXPECT_EQ((*parsed)[i].res_id, entries[i].res_id) << "entry " << i;
    EXPECT_EQ(uint32_t{(*parsed)[i].time}, uint32_t{entries[i].time})
        << "entry " << i;
    EXPECT_EQ(uint32_t{(*parsed)[i].icount}, uint32_t{entries[i].icount})
        << "entry " << i;
    EXPECT_EQ(uint64_t{(*parsed)[i].payload}, uint64_t{entries[i].payload})
        << "entry " << i;
  }
}

TEST(WideNodeTest, AutoPicksLowestFittingVersion) {
  EXPECT_EQ(TraceSerializationVersion(LegacyEntries()), kTraceVersionLegacy);
  EXPECT_EQ(TraceSerializationVersion(WideEntries()), kTraceVersionWide);
  EXPECT_EQ(TraceSerializationVersion(WideNodeEntries()),
            kTraceVersionWideNode);
  // One wide-node entry drags the whole container to v3.
  auto mixed = LegacyEntries();
  mixed.push_back(E(LogEntryType::kActivitySet, 0, 200, 11,
                    MakeActivity(100000, 1)));
  EXPECT_EQ(TraceSerializationVersion(mixed), kTraceVersionWideNode);
}

TEST(WideNodeTest, ForcedFormatsUpgradeButRoundTrip) {
  auto legacy = LegacyEntries();
  auto v2 = SerializeTrace(legacy, TraceFormat::kV2);
  EXPECT_EQ(v2[4], 2);
  auto v3 = SerializeTrace(legacy, TraceFormat::kV3);
  EXPECT_EQ(v3[4], 3);
  for (const auto& blob : {v2, v3}) {
    auto parsed = DeserializeTrace(blob);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_EQ(parsed->size(), legacy.size());
    for (size_t i = 0; i < legacy.size(); ++i) {
      EXPECT_EQ(uint64_t{(*parsed)[i].payload}, uint64_t{legacy[i].payload});
    }
  }
}

TEST(WideNodeTest, Node0xFFFFForcesV3) {
  // Origin 0xFFFF is the v2 broadcast encoding; a real node with that id
  // must not alias it, so the container upgrades to v3.
  act_t label = MakeActivity(0xFFFF, 1);
  EXPECT_FALSE(IsV2Encodable(label));
  std::vector<LogEntry> entries = {
      E(LogEntryType::kActivitySet, 0, 1, 1, label)};
  EXPECT_EQ(TraceSerializationVersion(entries), kTraceVersionWideNode);
  auto parsed = DeserializeTrace(SerializeTrace(entries, TraceFormat::kAuto));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(uint64_t{(*parsed)[0].payload}, label);
}

TEST(WideNodeTest, BroadcastMapsAcrossVersions) {
  // In-memory broadcast origin is 0xFFFFFFFF; v2 encodes it as the
  // 16-bit 0xFFFF it always was, and decoding widens it back.
  act_t label = MakeActivity(kBroadcastAddr, 5);
  EXPECT_TRUE(IsV2Encodable(label));
  EXPECT_FALSE(IsLegacyEncodable(label));  // v1 has no broadcast mapping.
  std::vector<LogEntry> entries = {
      E(LogEntryType::kActivitySet, 0, 1, 1, label)};
  EXPECT_EQ(TraceSerializationVersion(entries), kTraceVersionWide);
  auto blob = SerializeTrace(entries, TraceFormat::kAuto);
  auto parsed = DeserializeTrace(blob);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(ActivityOrigin((*parsed)[0].payload), kBroadcastAddr);
  EXPECT_EQ(ActivityLocalId((*parsed)[0].payload), 5u);
}

// --- Packet wire-byte tiers ------------------------------------------------

TEST(WideNodeTest, ActivityWireBytesThreeTiers) {
  Packet p;
  p.activity = MakeActivity(200, 9);
  EXPECT_EQ(p.ActivityWireBytes(), 2u);
  p.activity = MakeActivity(300, 9);
  EXPECT_EQ(p.ActivityWireBytes(), 4u);
  p.activity = MakeActivity(kBroadcastAddr, 9);  // Broadcast fits v2.
  EXPECT_EQ(p.ActivityWireBytes(), 4u);
  p.activity = MakeActivity(70000, 9);
  EXPECT_EQ(p.ActivityWireBytes(), 6u);
}

TEST(WideNodeTest, WideAddressesCostFourExtraBytesEach) {
  Packet base;
  base.src = 100;
  base.dst = 65534;
  EXPECT_EQ(base.WideAddressBytes(), 0u);
  Packet wide_src = base;
  wide_src.src = 70000;
  EXPECT_EQ(wide_src.WideAddressBytes(), 4u);
  EXPECT_EQ(wide_src.WireBytes(), base.WireBytes() + 4);
  Packet wide_both = wide_src;
  wide_both.dst = 0x10000;
  EXPECT_EQ(wide_both.WideAddressBytes(), 8u);
  // Broadcast keeps its short 16-bit encoding: no wide surcharge.
  Packet bcast = base;
  bcast.dst = kBroadcastAddr;
  EXPECT_EQ(bcast.WideAddressBytes(), 0u);
}

// --- Wide-node radio dump --------------------------------------------------

TEST(WideNodeTest, WideNodeRecordsShipAndReassemble) {
  // A mote past node 65534 logs labels no v2 record can carry; the dump
  // service must switch to the wide-node AM format and the collector must
  // reassemble entries that byte-match the source archive.
  EventQueue queue;
  Medium medium(&queue);
  Mote::Config source_cfg;
  source_cfg.id = 70000;
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
  const auto& received = collector.TraceFrom(70000);
  ASSERT_GT(received.size(), 50u);
  auto local = source.logger().Trace();
  ASSERT_LE(received.size(), local.size());
  bool saw_wide_node_label = false;
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
        ActivityOrigin(received[i].payload) == 70000u) {
      saw_wide_node_label = true;
    }
  }
  EXPECT_TRUE(saw_wide_node_label);
}

// --- Dirty-list charge flush vs full sweep ---------------------------------

struct FlushRunResult {
  uint64_t hash = 0;
  uint64_t visits = 0;
  uint64_t windows = 0;
  uint64_t executed = 0;
};

FlushRunResult RunFlushWorkload(size_t threads, bool legacy_sweep) {
  ShardedSimulator::Config sim_cfg;
  sim_cfg.shards = 8;
  sim_cfg.threads = threads;
  sim_cfg.lookahead = Microseconds(512);
  ShardedSimulator sim(sim_cfg);
  MediumFabric fabric(&sim);
  ScaleNetworkConfig cfg;
  cfg.motes = 128;
  cfg.topology = ScaleTopology::kGrid;
  cfg.sinks = 4;
  cfg.batch_log_charging = true;
  cfg.legacy_full_charge_sweep = legacy_sweep;
  ScaleNetwork net(&sim, &fabric, cfg);
  net.PowerUp();
  sim.RunFor(Milliseconds(5));
  net.StartApps();
  sim.RunFor(Seconds(1.0));
  FlushRunResult r;
  r.hash = MergedTraceHash(MergeTraces(CollectNodeTraces(net)));
  r.visits = net.charge_flush_visits();
  r.windows = net.charge_flush_windows();
  r.executed = sim.executed_count();
  return r;
}

TEST(DirtyChargeFlushTest, HashEqualsFullSweepAcrossThreadCounts) {
  FlushRunResult sweep = RunFlushWorkload(1, /*legacy_sweep=*/true);
  // The historical sweep visits every mote every window, exactly.
  EXPECT_EQ(sweep.visits, sweep.windows * 128);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    FlushRunResult dirty = RunFlushWorkload(threads, /*legacy_sweep=*/false);
    // Same simulation, event for event: the dirty-list flush only skips
    // motes with nothing to charge, which the sweep would have visited
    // as no-ops.
    EXPECT_EQ(dirty.executed, sweep.executed) << "threads " << threads;
    EXPECT_EQ(dirty.hash, sweep.hash) << "threads " << threads;
    // The point of the dirty list: visits ≪ windows × motes. The bound
    // here is loose (4×) so topology tweaks don't flake it; in practice
    // the ratio is far larger.
    EXPECT_EQ(dirty.windows, sweep.windows) << "threads " << threads;
    EXPECT_LT(dirty.visits, dirty.windows * 128 / 4) << "threads " << threads;
    EXPECT_GT(dirty.visits, 0u) << "threads " << threads;
  }
}

TEST(DirtyChargeFlushTest, StreamedCollectionMatchesBatchOnBothPaths) {
  // The streamed pipeline's online hash (its flush fused into the
  // workers' seal pass) must equal the batch-collected hash of the same
  // workload on both serial flush paths.
  ShardedSimulator::Config sim_cfg;
  sim_cfg.shards = 8;
  sim_cfg.threads = 2;
  sim_cfg.lookahead = Microseconds(512);
  ShardedSimulator sim(sim_cfg);
  MediumFabric fabric(&sim);
  StreamingTraceMerger merger;
  EmissionPipeline emission(&merger);
  ScaleNetworkConfig cfg;
  cfg.motes = 128;
  cfg.topology = ScaleTopology::kGrid;
  cfg.sinks = 4;
  cfg.batch_log_charging = true;
  cfg.emission_pipeline = &emission;
  cfg.log_capacity = 1024;
  ScaleNetwork net(&sim, &fabric, cfg);
  net.PowerUp();
  sim.RunFor(Milliseconds(5));
  net.StartApps();
  sim.RunFor(Seconds(1.0));
  net.SealAllChunks();
  merger.Finish();
  EXPECT_EQ(merger.hash(), RunFlushWorkload(2, /*legacy_sweep=*/false).hash);
  EXPECT_EQ(merger.hash(), RunFlushWorkload(2, /*legacy_sweep=*/true).hash);
}

}  // namespace
}  // namespace quanto
