// The Quanto event logger (Sections 3.4 and 4.4).
//
// The logger is the accounting module wired to every PowerStateTrack,
// SingleActivityTrack and MultiActivityTrack in the system. Each event is
// recorded synchronously as one 12-byte entry stamped with the local time
// and the cumulative iCount reading; the entry stream is analysed offline.
//
// Costs are modelled exactly as Table 4 measures them: 102 cycles per
// sample at 1 MHz, split into 41 cycles of call overhead, 19 to read the
// timer, 24 to read iCount and 18 of other work. The logger charges this
// cost to the CPU through CpuChargeHook so that, like Unix top, Quanto
// accounts for itself.
//
// Two collection modes mirror Section 4.4:
//  * kRamBuffer: a fixed RAM buffer (800 entries in the paper); logging
//    stops when it fills (entries are dropped and counted) until dumped.
//  * kContinuous: the buffer is drained opportunistically (the simulator
//    schedules a drain task when the CPU is idle) into the archive,
//    modelling the external synchronous serial back-channel.
//
// C++ note: powerstate_t and act_t share a representation, so the observer
// interfaces cannot be implemented by multiple inheritance on one class;
// the logger exposes one adapter per interface instead.
#ifndef QUANTO_SRC_CORE_LOGGER_H_
#define QUANTO_SRC_CORE_LOGGER_H_

#include <cstdint>
#include <vector>

#include "src/core/activity_device.h"
#include "src/core/hooks.h"
#include "src/core/log_entry.h"
#include "src/core/power_state.h"
#include "src/core/trace_sink.h"
// Deliberate layering exception: the logger samples the meter on every
// tracked event in the system, so it knows the simulation's concrete
// (final) meter type and reads it without a virtual dispatch when the
// Mote wiring provides one. Everything else still goes through the
// EnergyCounter interface (fakes, tests, alternative meters).
#include "src/meter/icount.h"
#include "src/util/ring_buffer.h"

namespace quanto {

// Synchronous per-sample cost breakdown (Table 4).
struct LoggingCosts {
  Cycles call_overhead = 41;
  Cycles read_timer = 19;
  Cycles read_icount = 24;
  Cycles other = 18;

  Cycles total() const {
    return call_overhead + read_timer + read_icount + other;
  }
};

// Default RAM buffer size from Table 4.
inline constexpr size_t kDefaultLogBufferEntries = 800;

// Cost, per entry, of the continuous-mode drain path (write to the external
// port; Section 4.4 reports this mode costs 4-15% of CPU time depending on
// workload).
inline constexpr Cycles kDrainCyclesPerEntry = 30;

class QuantoLogger {
 public:
  enum class Mode {
    kRamBuffer,
    kContinuous,
  };

  // `arena`, when given, backs the ring-buffer storage (uninitialized
  // bump allocation — see Arena::NewArray); the logger itself may then
  // also live in the same arena, but nothing requires it to.
  QuantoLogger(Clock* clock, EnergyCounter* meter,
               size_t capacity = kDefaultLogBufferEntries,
               Mode mode = Mode::kRamBuffer, Arena* arena = nullptr);

  // Optional: charge the synchronous logging cost to the CPU.
  void SetCpuChargeHook(CpuChargeHook* hook) { charge_hook_ = hook; }

  // Concrete-meter fast path: when the energy counter is the simulation's
  // IcountMeter, Append reads it through the final concrete type, so the
  // per-sample read devirtualizes and the integration inlines. The meter
  // must be the same object as (or a stand-in for) the EnergyCounter
  // passed at construction.
  void SetFastMeter(IcountMeter* meter) { fast_meter_ = meter; }

  // Batched CPU self-charging: accumulate the paper's 102-cycle per-sample
  // cost and charge it in one ChargeCycles call at the next
  // FlushCpuCharge() — the sharded runner flushes every lockstep window.
  // Per-sample charging cancels and reschedules the open CPU frame's
  // completion event on every sample; batching replaces that with one
  // reschedule per window, at the cost of attributing the logger's own
  // cycles to whatever frame (or idle) is current at flush time instead of
  // at sample time. Off by default: per-sample charging is the
  // paper-faithful mode every figure/table experiment uses.
  void SetChargeBatching(bool on) { batch_charging_ = on; }
  bool charge_batching() const { return batch_charging_; }
  Cycles pending_charge() const { return pending_charge_; }

  // Charge-dirty hook — the dirty-list primitive of the *serial-hook*
  // batched flush. Fires at most once per flush interval: when
  // pending_charge_ goes from zero to nonzero. The collector
  // (ScaleNetwork) uses it to maintain per-shard lists of loggers that
  // actually owe a charge, so the window flush visits those instead of
  // sweeping every mote. Same plain fn-ptr + ctx shape as SetDirtyHook,
  // for the same hot-path reason.
  //
  // Unified-dirty-list note: under batch charging every Append both logs
  // an entry and accrues charge, and both dirty bits are cleared once per
  // window (SealToSink clears dirty_, the flush clears pending_charge_,
  // and nothing appends between them — only coordinator hooks run there).
  // The charge-dirty set therefore always coincides with the log-dirty
  // set, which is why the fused worker-side flush (ShardRunBuilder's
  // flush+seal pass) reuses the seal dirty list and leaves this hook
  // unwired — one list, one sort, one pass. This hook remains for
  // collectors without run builders (batch-collected sharded runs).
  using ChargeDirtyHook = void (*)(void* ctx, QuantoLogger* logger);
  void SetChargeDirtyHook(ChargeDirtyHook hook, void* ctx) {
    charge_dirty_hook_ = hook;
    charge_dirty_ctx_ = ctx;
  }

  void FlushCpuCharge() {
    if (pending_charge_ == 0) {
      return;
    }
    // Clear before charging: ChargeCycles can re-enter Append (the charge
    // closes a CPU frame, which logs), and those samples belong to the
    // NEXT flush interval — exactly the old full-sweep semantics, where a
    // mote flushed once per window regardless of what the flush logged.
    Cycles cycles = pending_charge_;
    pending_charge_ = 0;
    ++charge_flushes_;
    if (charge_hook_ != nullptr) {
      charge_hook_->ChargeCycles(cycles);
    }
  }

  // FlushCpuCharge calls that found a nonzero pending charge — i.e. actual
  // ChargeCycles hand-offs. Identical across the fused worker-side flush,
  // the serial dirty-list hook and the full sweep (the sweep's extra
  // visits all hit the zero-pending early return); the charge-flush
  // equality tests pin exactly that.
  uint64_t charge_flushes() const { return charge_flushes_; }

  void SetEnabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  Mode mode() const { return mode_; }
  const LoggingCosts& costs() const { return costs_; }

  // --- Tracker adapters ------------------------------------------------------
  PowerStateTrack& power_track() { return power_track_; }
  SingleActivityTrack& single_track() { return single_track_; }
  MultiActivityTrack& multi_track() { return multi_track_; }

  // Records one entry (also the raw path the trackers funnel into; public
  // so microbenchmarks can measure the synchronous cost directly). Inline:
  // this runs for every tracked event in the system, so the time read goes
  // through the clock's NowSource fast path when it has one.
  void Append(LogEntryType type, res_id_t resource, uint64_t payload) {
    if (!enabled_) {
      return;
    }
    LogEntry entry;
    entry.type = static_cast<uint8_t>(type);
    entry.res_id = resource;
    // Recording time and energy must happen synchronously, as close to the
    // event as possible (Section 4.4). Both are free-running 32-bit
    // counters.
    entry.time = static_cast<uint32_t>(now_source_ != nullptr ? *now_source_
                                                              : clock_->Now());
    entry.icount = fast_meter_ != nullptr ? fast_meter_->ReadPulses()
                                          : meter_->ReadPulses();
    entry.payload = payload;

    if (buffer_.Push(entry)) {
      ++entries_logged_;
    } else {
      ++entries_dropped_;
    }
    if (!dirty_) {
      // First entry of this seal interval: tell the collector this logger
      // now needs sealing at the next barrier (dirty-list maintenance).
      dirty_ = true;
      if (dirty_hook_ != nullptr) {
        dirty_hook_(dirty_ctx_, this);
      }
    }

    sync_cycles_spent_ += cost_per_sample_;
    if (batch_charging_) {
      if (pending_charge_ == 0 && charge_dirty_hook_ != nullptr) {
        // First charge of this flush interval: tell the collector this
        // logger owes cycles at the next window flush.
        charge_dirty_hook_(charge_dirty_ctx_, this);
      }
      pending_charge_ += cost_per_sample_;
    } else if (charge_hook_ != nullptr) {
      charge_hook_->ChargeCycles(cost_per_sample_);
    }
  }

  // --- Collection -----------------------------------------------------------

  // Moves up to max_entries from the RAM buffer into the archive, returning
  // how many were moved. The simulator's drain task calls this and charges
  // kDrainCyclesPerEntry per moved entry itself (under the Logger activity).
  size_t Drain(size_t max_entries);

  // Dumps the whole buffer into the archive (RAM mode "stop and dump").
  size_t DumpAll();

  // --- Streaming collection (bounded-archive mode) ---------------------------

  // Attaches a chunk sink and switches the logger to bounded-archive mode:
  // SealToSink() hands everything collected so far to `sink` as one
  // TraceChunk stamped with `node`, instead of the archive growing for the
  // whole run. The sink is a host-side observer; sealing reads no
  // simulated clocks and charges no simulated cycles, so a streamed run
  // executes the exact event sequence of a batch run.
  void SetSink(TraceSink* sink, node_id_t node) {
    sink_ = sink;
    node_ = node;
  }
  bool bounded_archive() const { return sink_ != nullptr; }
  // Stamps the owning node without attaching a sink — the dirty-charge
  // flush sorts loggers by node id, so every mote sets this even in batch
  // (no-sink) collection mode.
  void SetNodeId(node_id_t node) { node_ = node; }
  node_id_t node() const { return node_; }

  // Entry-buffer freelist: sealed chunks acquire their entries vector from
  // `pool` instead of default-constructing one, so a consumer that
  // recycles buffers back after emission makes the steady-state seal path
  // allocation-free. The pool is not thread-safe; it must be owned by
  // whatever thread seals this logger (the sharded runner uses one pool
  // per shard).
  void SetChunkPool(TraceChunkPool* pool) { pool_ = pool; }

  // On-first-append hook — the dirty-list primitive of the parallel
  // barrier pipeline. Fires at most once per seal interval: on the first
  // entry recorded since construction or since the last SealToSink(). An
  // idle mote therefore costs its collector exactly nothing per window
  // (no sweep visit, no hook call); a logging mote costs one callback,
  // after which Append is back to a single predicted branch. A plain
  // function pointer + context (not std::function) keeps the inline
  // Append hot path free of indirect-call setup.
  using DirtyHook = void (*)(void* ctx, QuantoLogger* logger);
  void SetDirtyHook(DirtyHook hook, void* ctx) {
    dirty_hook_ = hook;
    dirty_ctx_ = ctx;
  }
  bool dirty() const { return dirty_; }

  // Seals the archive plus everything still buffered into one chunk and
  // hands it to the sink (no-op without a sink or when empty). Returns the
  // number of entries sealed. The sharded runner calls this from a window
  // barrier hook, so per-mote resident trace is O(window), not O(run).
  size_t SealToSink();

  // Moves up to max_entries of the oldest buffered entries into `chunk`
  // (appending to its entries; node/seq stamped here). In bounded-archive
  // mode the entries leave the logger entirely; otherwise they are also
  // retained in the archive, preserving Trace() for local readers — the
  // radio dump path uses this so it cannot regress to full-trace copies
  // when a sink is attached. Returns how many entries were moved.
  size_t DrainChunk(size_t max_entries, TraceChunk* chunk);

  uint64_t chunks_sealed() const { return chunks_sealed_; }
  // SealToSink() calls that found nothing to seal and produced no chunk.
  // Only a collector that seals every mote pays these (one per idle mote
  // per call); the sharded runner's dirty lists never even make the call.
  uint64_t empty_seals_skipped() const { return empty_seals_skipped_; }

  // Archive + still-buffered entries, in order. This is what the offline
  // analysis consumes in batch mode; in bounded-archive mode it returns
  // only the unsealed tail (sealed chunks already left through the sink).
  std::vector<LogEntry> Trace() const;

  // O(1) peek at the i-th oldest still-buffered entry (i < buffered());
  // lets the dump service choose a batch's wire format without copying
  // the whole trace.
  const LogEntry& BufferedAt(size_t i) const { return buffer_.At(i); }

  // The archived prefix of the trace, by reference (no copy).
  const std::vector<LogEntry>& archived_entries() const { return archive_; }

  size_t buffered() const { return buffer_.size(); }
  size_t archived() const { return archive_.size(); }
  size_t capacity() const { return buffer_.capacity(); }

  // --- Self-accounting statistics (Section 4.4) ----------------------------
  uint64_t entries_logged() const { return entries_logged_; }
  uint64_t entries_dropped() const { return entries_dropped_; }
  Cycles sync_cycles_spent() const { return sync_cycles_spent_; }

 private:
  struct PowerAdapter : public PowerStateTrack {
    explicit PowerAdapter(QuantoLogger* logger) : logger(logger) {}
    void changed(res_id_t resource, powerstate_t value) override {
      logger->Append(LogEntryType::kPowerState, resource, value);
    }
    QuantoLogger* logger;
  };
  struct SingleAdapter : public SingleActivityTrack {
    explicit SingleAdapter(QuantoLogger* logger) : logger(logger) {}
    void changed(res_id_t resource, act_t activity) override {
      logger->Append(LogEntryType::kActivitySet, resource, activity);
    }
    void bound(res_id_t resource, act_t activity) override {
      logger->Append(LogEntryType::kActivityBind, resource, activity);
    }
    QuantoLogger* logger;
  };
  struct MultiAdapter : public MultiActivityTrack {
    explicit MultiAdapter(QuantoLogger* logger) : logger(logger) {}
    void added(res_id_t resource, act_t activity) override {
      logger->Append(LogEntryType::kActivityAdd, resource, activity);
    }
    void removed(res_id_t resource, act_t activity) override {
      logger->Append(LogEntryType::kActivityRemove, resource, activity);
    }
    QuantoLogger* logger;
  };

  Clock* clock_;
  const Tick* now_source_ = nullptr;  // Clock fast path, may be null.
  EnergyCounter* meter_;
  IcountMeter* fast_meter_ = nullptr;  // Concrete-type fast path, may be null.
  CpuChargeHook* charge_hook_ = nullptr;
  bool batch_charging_ = false;
  Cycles pending_charge_ = 0;
  ChargeDirtyHook charge_dirty_hook_ = nullptr;
  void* charge_dirty_ctx_ = nullptr;
  LoggingCosts costs_;
  Cycles cost_per_sample_ = LoggingCosts().total();  // costs_.total() cached.
  Mode mode_;
  bool enabled_ = true;

  PowerAdapter power_track_{this};
  SingleAdapter single_track_{this};
  MultiAdapter multi_track_{this};

  RingBuffer<LogEntry> buffer_;
  std::vector<LogEntry> archive_;

  // Bounded-archive (streaming) collection.
  TraceSink* sink_ = nullptr;
  TraceChunkPool* pool_ = nullptr;
  node_id_t node_ = 0;
  uint64_t chunks_sealed_ = 0;
  uint64_t empty_seals_skipped_ = 0;

  // Dirty-list state: set by the first Append of a seal interval, cleared
  // by SealToSink.
  bool dirty_ = false;
  DirtyHook dirty_hook_ = nullptr;
  void* dirty_ctx_ = nullptr;

  uint64_t entries_logged_ = 0;
  uint64_t entries_dropped_ = 0;
  Cycles sync_cycles_spent_ = 0;
  uint64_t charge_flushes_ = 0;
};

}  // namespace quanto

#endif  // QUANTO_SRC_CORE_LOGGER_H_
