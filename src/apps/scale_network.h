// The many-mote LPL relay workload shared by bench_scale_multihop and the
// sharded-determinism tests: a backbone of always-on relays floods packets
// hop by hop while every other mote duty-cycles its radio with low-power
// listening. This is the heaviest event mix the repo models (timer events,
// radio power transitions, CCA sampling, task dispatch, per-sample
// logging), which is why both the scale benchmark and the determinism
// proof run it.
//
// The builder works against either simulation core:
//  * single-engine: one EventQueue + one Medium (the PR 1 baseline path);
//  * sharded: a ShardedSimulator + MediumFabric, with mote i assigned to
//    shard i % shard_count — a fixed decomposition, so the simulated
//    behaviour depends on the shard count but never on the thread count.
#ifndef QUANTO_SRC_APPS_SCALE_NETWORK_H_
#define QUANTO_SRC_APPS_SCALE_NETWORK_H_

#include <memory>
#include <vector>

// Deliberate layering exception: the parallel barrier pipeline wires the
// per-shard pre-merge builders (analysis) into the sharded runner's
// pre-barrier phase, and ScaleNetwork is the composition point where the
// two meet — the analysis layer itself stays free of apps/sim types.
#include "src/analysis/emission_pipeline.h"
#include "src/analysis/trace_merge.h"
#include "src/apps/lpl_listener.h"
#include "src/apps/mote.h"
#include "src/apps/relay.h"
#include "src/net/medium.h"
#include "src/sim/sharded_sim.h"

namespace quanto {

// The widest buildable network: mote ids are 1..motes, and the broadcast
// address 0xFFFFFFFF must never be a real node id (a mote numbered
// kBroadcastAddr would alias every broadcast). Build() rejects larger
// configurations outright instead of silently corrupting addressing.
inline constexpr size_t kMaxNetworkMotes = 0xFFFFFFFE;

// How the backbone relays and flood origins are laid out.
enum class ScaleTopology {
  // The original single-sink chain: every 4th mote is a backbone relay,
  // each forwarding to the backbone mote 4 indices later; mote 0
  // originates all floods and the last backbone mote is the sink.
  kChain,
  // Row-major grid: motes form rows of `grid_width`; the first mote of
  // each row is a backbone relay forwarding down the first column. The
  // rows split into `sinks` contiguous bands, each with its own flood
  // origin (the band's first backbone mote) and its own sink (the band's
  // last backbone mote), with origins' flood phases staggered so the
  // bands don't transmit in lockstep. This is the 1000+ mote workload:
  // multiple concurrent flood chains instead of one long one.
  kGrid,
};

struct ScaleNetworkConfig {
  size_t motes = 64;
  // Bound per-mote log memory: the engine, not the archive, is under test.
  size_t log_capacity = 8192;
  Tick lpl_check_interval = Milliseconds(100);
  Tick lpl_cca_listen_time = Milliseconds(9);
  Tick lpl_detection_timeout = Milliseconds(50);
  Tick flood_interval = Milliseconds(250);
  // Window-batched logger self-charging (satellite of the sharding PR).
  // The sharded constructor installs the per-window flush itself: fused
  // into the shard workers' seal pass on streamed runs, a serial barrier
  // hook over per-shard dirty lists on batch-collected runs (see
  // FlushAllCharges). Single-engine callers must call FlushAllCharges()
  // manually if they turn this on.
  bool batch_log_charging = false;
  // Make the serial flush hook visit every mote, every window, instead of
  // its dirty lists: the historical O(all motes) sweep. Streamed runs
  // always flush in the fused pass, so this only changes batch-collected
  // runs. Sweep and dirty lists produce identical simulations; the flush
  // tests keep the sweep as the reference they compare against.
  bool legacy_full_charge_sweep = false;
  // Topology. kChain reproduces the original benchmark byte for byte;
  // kGrid adds the grid/multi-sink layout for wide networks.
  ScaleTopology topology = ScaleTopology::kChain;
  // Grid row length (kGrid only). 0 = floor(sqrt(motes)), min 4.
  size_t grid_width = 0;
  // Number of independent flood origin/sink bands (kGrid only, >= 1).
  size_t sinks = 1;
  // Streaming trace collection (null: batch collection, whole traces stay
  // in the loggers). On sharded builds each shard's worker seals only its
  // *dirty* loggers — marked by the on-first-append hook, so idle motes
  // cost nothing — onto its pre-merged time-sorted run during the
  // pre-barrier phase. Once the runs together hold kHandOffEntries
  // entries, the coordinator's barrier hook hands them plus the barrier
  // as the new watermark to this bounded pipeline and releases the shards
  // into the next window; the pipeline's consumer thread performs the
  // k-way merge, watermark emission, hashing and everything behind the
  // merger's emit hook (regression feed, spill) concurrently with
  // simulation. The consumer owns the merger, so
  // callers must NOT register their own watermark hook. SealAllChunks()
  // drains the queue before returning, so the tail flush precedes the
  // final hash read. The emitted sequence, fingerprint and spill bytes
  // equal the batch merge of the same run. A single engine has no window
  // barriers to emit behind: its loggers seal straight into the
  // pipeline's merger (the OnChunk door) when the caller runs
  // SealAllChunks(), and the consumer thread stays idle.
  EmissionPipeline* emission_pipeline = nullptr;
  // Record per-window seal/merge/flush timings (and enable builder
  // profiling) for the barrier-latency percentiles in bench_scale_multihop.
  // merge_us is recorded by the consumer thread (where the merge runs), one
  // sample per hand-off, and spread back over the windows at
  // SealAllChunks().
  bool profile_barrier = false;
};

class ScaleNetwork {
 public:
  // Entries the shard builders must hold together before a window barrier
  // hands their runs to the emission pipeline. Each hand-off costs a lock
  // and a consumer wake-up. A 512 µs window of the 64-mote chain logs
  // about 37 entries, so a hand-off per window would pay that cost
  // ~200 000 times in a 300 s run, and the coordinator would stall
  // ~0.15 s waiting for the consumer to wake. At 512 and 1 024 entries
  // ~0.1 s of that stall remains; at 4 096 none does. The held entries
  // cost about 128 KiB (32 bytes each) per hand-off in flight.
  static constexpr size_t kHandOffEntries = 4096;

  // Sharded build: motes land on sim->queue(i % shards) with the matching
  // fabric medium replica.
  ScaleNetwork(ShardedSimulator* sim, MediumFabric* fabric,
               const ScaleNetworkConfig& config);
  // Single-engine build.
  ScaleNetwork(EventQueue* queue, Medium* medium,
               const ScaleNetworkConfig& config);

  // Backbone relays keep their radio always on; the rest duty-cycle with
  // LPL. Chain: every 4th mote. Grid: the first mote of every row.
  bool IsBackbone(size_t i) const { return i % backbone_stride_ == 0; }

  // The configured number of flood origins (1 for kChain).
  size_t origin_count() const { return origins_.size(); }

  // Phase 1: power the backbone radios. Run ~5 ms of simulation before
  // StartApps() so the radios finish their power-up sequences.
  void PowerUp();
  // Phase 2: start the relay/LPL apps and the origin's periodic flood
  // (one packet every flood_interval, labelled with activity 9).
  void StartApps();

  size_t size() const { return motes_.size(); }
  Mote& mote(size_t i) { return *motes_[i]; }
  const Mote& mote(size_t i) const { return *motes_[i]; }

  uint64_t lpl_wakeups() const;
  uint64_t entries_logged() const;
  // Entries rejected by full RAM buffers, summed over motes. Must be 0
  // for a streamed run's merge to equal the batch merge.
  uint64_t entries_dropped() const;

  // Flushes every mote's batched logger self-charge on the calling thread:
  // the serial flush of batch-collected sharded runs (hooked on the
  // barrier) and of single-engine callers. It visits only the loggers
  // that actually accumulated cycles since the last flush — marked
  // through QuantoLogger's charge-dirty hook, so an idle mote costs the
  // window flush exactly nothing — unless legacy_full_charge_sweep asks
  // for every mote. Each shard's dirty loggers flush in ascending node-id
  // order, which restricted to one event queue is precisely the order
  // the full sweep uses; since a flush only ever touches its own mote's
  // queue, the simulation is event-identical to the sweep (the flush
  // tests pin the hashes). Streamed sharded runs never hook this: their
  // flush is *fused* into the per-shard pre-barrier seal pass
  // (ShardRunBuilder::BuildRun with flush_charges) — see
  // fused_charge_flush().
  void FlushAllCharges();

  // The fused worker-side flush is active: no serial flush hook is
  // registered, and each shard's window task clears charge + seal in one
  // sorted dirty pass.
  bool fused_charge_flush() const { return fused_charge_flush_; }

  // Loggers visited by charge-flush rounds, cumulatively, summed across
  // the serial flush (FlushAllCharges) and the fused per-shard passes. A
  // healthy dirty-list run has visits ≪ windows × motes; the full sweep
  // has visits == windows × motes exactly; a fused streamed run and a
  // dirty-list batch run of one workload have *equal* visits (one pass
  // per dirty mote per window — the flush tests pin it).
  uint64_t charge_flush_visits() const;
  uint64_t charge_flush_windows() const { return charge_flush_windows_; }
  // FlushCpuCharge calls that actually handed cycles to a CPU, summed
  // over motes — equal across the fused pass, the dirty lists and the
  // sweep.
  uint64_t charge_flushes() const;

  // Construction arena stats (bytes reserved/allocated, allocation and
  // slab counts) — the bench records them next to construct_ms.
  const Arena& construction_arena() const { return arena_; }

  // Seals the tail of a streamed run; call it once after the run. On a
  // sharded build this flushes the builders (including held-back boundary
  // entries) through the emission pipeline and drains it, so the merger's
  // hash and everything behind its emit hook are final on return. On a
  // single engine it seals every mote's pending entries straight into the
  // merger, in mote order. No-op for batch collection. Returns entries
  // sealed.
  size_t SealAllChunks();

  // --- Streamed collection introspection -------------------------------------
  bool premerge_active() const { return !builders_.empty(); }
  // Summed over shards / motes.
  uint64_t premerge_seal_calls() const;
  uint64_t premerge_seq_gaps() const;
  uint64_t chunks_sealed() const;
  uint64_t empty_seals_skipped() const;
  // Run hand-offs that found no retired run buffer waiting and gave the
  // builder an empty vector instead: the number of run buffers this
  // network added to circulation. Flat after warm-up.
  uint64_t run_buffers_allocated() const { return run_buffers_allocated_; }
  // Per-window profiling samples (profile_barrier only), equal in length:
  // max per-shard run-build time, and the merge + watermark-emission time
  // measured on the consumer thread, outside the barrier. The consumer
  // times one merge per hand-off; SealAllChunks places each at the window
  // that submitted it and 0 at every window that submitted nothing.
  const std::vector<uint32_t>& seal_us_samples() const {
    return seal_us_samples_;
  }
  const std::vector<uint32_t>& merge_us_samples() const {
    return merge_us_samples_;
  }
  // Per-window fused charge-flush time (profile_barrier with
  // batch_log_charging): max per-shard fused-pass time, recorded at the
  // hand-off hook like seal_us — a subset of that window's seal_us,
  // running ∥ pre-barrier.
  const std::vector<uint32_t>& flush_us_samples() const {
    return flush_us_samples_;
  }

 private:
  void Build(const std::vector<EventQueue*>& queues,
             const std::vector<Medium*>& media);
  // Coordinator half of the window barrier: once the builders hold
  // kHandOffEntries entries — and always for the end-of-run `tail` —
  // queues every built run plus the barrier as watermark on the emission
  // pipeline, putting a run buffer the consumer has retired in each taken
  // run's place. The tail is not a window and records no profile sample.
  void HandOffRuns(Tick window_end, bool tail);
  // Next backbone index in this origin band, or motes_.size() when `i` is
  // the band's sink.
  size_t NextBackbone(size_t i) const;
  void StartFlood(size_t origin_index, Tick initial_delay);

  // Per-shard charge-dirty list: the loggers that accumulated batched
  // self-charge since the last window flush, in mark order. The shard's
  // worker appends (through the logger hook) while it runs the window;
  // the coordinator swaps the list out at the barrier — the same
  // ownership hand-off the window barrier already orders for sealing.
  struct ChargeDirtyList {
    std::vector<QuantoLogger*> loggers;
  };
  static void MarkChargeDirtyHook(void* ctx, QuantoLogger* logger) {
    static_cast<ChargeDirtyList*>(ctx)->loggers.push_back(logger);
  }

  ScaleNetworkConfig config_;
  // Construction arena backing every mote's component graph (and the app
  // objects). Declared FIRST so it destructs LAST: the ArenaPtr members
  // below no-op their deletes, then the arena runs the registered
  // destructors in reverse allocation order.
  Arena arena_;
  size_t backbone_stride_ = 4;
  size_t band_motes_ = 0;  // Motes per origin band (kGrid; 0 = one band).
  std::vector<size_t> origins_;
  std::vector<ArenaPtr<Mote>> motes_;
  std::vector<ArenaPtr<RelayApp>> relays_;
  std::vector<ArenaPtr<LplListenerApp>> listeners_;
  // Streamed sharded runs: one pre-merge builder per shard (empty for
  // batch collection and on a single engine).
  std::vector<std::unique_ptr<ShardRunBuilder>> builders_;
  // One list per shard (serial dirty-list flush only: batch_log_charging
  // without the full sweep, on a network without builders).
  std::vector<ChargeDirtyList> charge_dirty_;
  std::vector<QuantoLogger*> charge_flush_scratch_;
  bool fused_charge_flush_ = false;
  uint64_t charge_flush_visits_ = 0;
  uint64_t charge_flush_windows_ = 0;
  uint64_t run_buffers_allocated_ = 0;
  // Indices into seal_us_samples_ of the profiled windows that handed off,
  // in submission order: where each consumer-side merge sample belongs.
  std::vector<size_t> handoff_windows_;
  std::vector<uint32_t> seal_us_samples_;
  std::vector<uint32_t> merge_us_samples_;
  std::vector<uint32_t> flush_us_samples_;
};

}  // namespace quanto

#endif  // QUANTO_SRC_APPS_SCALE_NETWORK_H_
