#include "src/core/logger.h"

#include <gtest/gtest.h>

namespace quanto {
namespace {

class FakeClock : public Clock {
 public:
  Tick Now() const override { return now; }
  Tick now = 0;
};

class FakeCounter : public EnergyCounter {
 public:
  uint32_t ReadPulses() override {
    ++reads;
    return pulses;
  }
  uint32_t pulses = 0;
  int reads = 0;
};

class FakeChargeHook : public CpuChargeHook {
 public:
  void ChargeCycles(Cycles cycles) override { charged += cycles; }
  Cycles charged = 0;
};

TEST(LogEntryTest, PacksToEighteenBytes) {
  // The paper's 12-byte record ("each sample takes ... 12 bytes of RAM",
  // Figure 17 / abstract) plus 6 bytes for the wide-node activity label
  // (32-bit origin + 16-bit id). The serialized v1/v2 formats still write
  // 12-/14-byte records for traces whose labels fit those encodings.
  EXPECT_EQ(sizeof(LogEntry), 18u);
}

TEST(LogEntryTest, TypePredicates) {
  LogEntry e{};
  e.type = static_cast<uint8_t>(LogEntryType::kPowerState);
  EXPECT_FALSE(IsActivityEntry(e));
  e.type = static_cast<uint8_t>(LogEntryType::kActivityBind);
  EXPECT_TRUE(IsActivityEntry(e));
}

TEST(LoggingCostsTest, TotalIsOneHundredTwoCycles) {
  // Table 4: 102 cycles = 41 call + 19 timer + 24 iCount + 18 other.
  LoggingCosts costs;
  EXPECT_EQ(costs.total(), 102u);
  EXPECT_EQ(costs.call_overhead, 41u);
  EXPECT_EQ(costs.read_timer, 19u);
  EXPECT_EQ(costs.read_icount, 24u);
  EXPECT_EQ(costs.other, 18u);
}

TEST(QuantoLoggerTest, StampsTimeAndEnergySynchronously) {
  FakeClock clock;
  FakeCounter counter;
  QuantoLogger logger(&clock, &counter, 16);
  clock.now = 1234;
  counter.pulses = 99;
  logger.power_track().changed(3, 7);
  auto trace = logger.Trace();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(uint32_t{trace[0].time}, 1234u);
  EXPECT_EQ(uint32_t{trace[0].icount}, 99u);
  EXPECT_EQ(trace[0].res_id, 3);
  EXPECT_EQ(uint64_t{trace[0].payload}, 7);
  EXPECT_EQ(EntryType(trace[0]), LogEntryType::kPowerState);
  EXPECT_EQ(counter.reads, 1);
}

TEST(QuantoLoggerTest, AllFiveEntryTypes) {
  FakeClock clock;
  FakeCounter counter;
  QuantoLogger logger(&clock, &counter, 16);
  logger.power_track().changed(1, 1);
  logger.single_track().changed(1, MakeActivity(1, 2));
  logger.single_track().bound(1, MakeActivity(1, 3));
  logger.multi_track().added(2, MakeActivity(1, 4));
  logger.multi_track().removed(2, MakeActivity(1, 4));
  auto trace = logger.Trace();
  ASSERT_EQ(trace.size(), 5u);
  EXPECT_EQ(EntryType(trace[0]), LogEntryType::kPowerState);
  EXPECT_EQ(EntryType(trace[1]), LogEntryType::kActivitySet);
  EXPECT_EQ(EntryType(trace[2]), LogEntryType::kActivityBind);
  EXPECT_EQ(EntryType(trace[3]), LogEntryType::kActivityAdd);
  EXPECT_EQ(EntryType(trace[4]), LogEntryType::kActivityRemove);
}

TEST(QuantoLoggerTest, ChargesOneHundredTwoCyclesPerSample) {
  FakeClock clock;
  FakeCounter counter;
  FakeChargeHook hook;
  QuantoLogger logger(&clock, &counter, 16);
  logger.SetCpuChargeHook(&hook);
  logger.power_track().changed(0, 1);
  logger.power_track().changed(0, 2);
  EXPECT_EQ(hook.charged, 204u);
  EXPECT_EQ(logger.sync_cycles_spent(), 204u);
}

TEST(QuantoLoggerTest, BufferFullDropsAndCounts) {
  FakeClock clock;
  FakeCounter counter;
  QuantoLogger logger(&clock, &counter, 2);
  logger.power_track().changed(0, 1);
  logger.power_track().changed(0, 2);
  logger.power_track().changed(0, 3);  // Dropped.
  EXPECT_EQ(logger.entries_logged(), 2u);
  EXPECT_EQ(logger.entries_dropped(), 1u);
  EXPECT_EQ(logger.Trace().size(), 2u);
}

TEST(QuantoLoggerTest, DroppedSamplesStillChargeCpu) {
  // The synchronous cost is paid before the buffer check in hardware; a
  // full buffer doesn't make logging free.
  FakeClock clock;
  FakeCounter counter;
  FakeChargeHook hook;
  QuantoLogger logger(&clock, &counter, 1);
  logger.SetCpuChargeHook(&hook);
  logger.power_track().changed(0, 1);
  logger.power_track().changed(0, 2);  // Dropped but charged.
  EXPECT_EQ(hook.charged, 204u);
}

TEST(QuantoLoggerTest, DrainMovesToArchiveInOrder) {
  FakeClock clock;
  FakeCounter counter;
  QuantoLogger logger(&clock, &counter, 8);
  for (int i = 0; i < 5; ++i) {
    clock.now = static_cast<Tick>(i);
    logger.power_track().changed(0, static_cast<powerstate_t>(i + 1));
  }
  EXPECT_EQ(logger.Drain(3), 3u);
  EXPECT_EQ(logger.archived(), 3u);
  EXPECT_EQ(logger.buffered(), 2u);
  auto trace = logger.Trace();
  ASSERT_EQ(trace.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(uint32_t{trace[static_cast<size_t>(i)].time},
              static_cast<uint32_t>(i));
  }
}

TEST(QuantoLoggerTest, DumpAllEmptiesBuffer) {
  FakeClock clock;
  FakeCounter counter;
  QuantoLogger logger(&clock, &counter, 8);
  logger.power_track().changed(0, 1);
  logger.power_track().changed(0, 2);
  EXPECT_EQ(logger.DumpAll(), 2u);
  EXPECT_EQ(logger.buffered(), 0u);
  // Buffer space freed: new entries accepted.
  logger.power_track().changed(0, 3);
  EXPECT_EQ(logger.Trace().size(), 3u);
}

TEST(QuantoLoggerTest, DisabledLogsNothingAndChargesNothing) {
  FakeClock clock;
  FakeCounter counter;
  FakeChargeHook hook;
  QuantoLogger logger(&clock, &counter, 8);
  logger.SetCpuChargeHook(&hook);
  logger.SetEnabled(false);
  logger.power_track().changed(0, 1);
  EXPECT_EQ(logger.Trace().size(), 0u);
  EXPECT_EQ(hook.charged, 0u);
  EXPECT_EQ(counter.reads, 0);
}

TEST(QuantoLoggerTest, TimeAndCounterTruncateToThirtyTwoBits) {
  FakeClock clock;
  FakeCounter counter;
  QuantoLogger logger(&clock, &counter, 8);
  clock.now = (Tick{5} << 32) | 77;  // Past a 32-bit wrap.
  logger.power_track().changed(0, 1);
  auto trace = logger.Trace();
  EXPECT_EQ(uint32_t{trace[0].time}, 77u);
}

TEST(QuantoLoggerTest, DefaultBufferMatchesPaper) {
  FakeClock clock;
  FakeCounter counter;
  QuantoLogger logger(&clock, &counter);
  EXPECT_EQ(logger.capacity(), 800u);
}

}  // namespace
}  // namespace quanto
