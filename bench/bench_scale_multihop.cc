// Engine scale benchmark: a 64-256 mote low-power-listening relay network.
//
// Unlike the figure/table benches, this one reproduces no paper number; it
// measures how fast the simulation core itself runs at many-node scale,
// which bounds every other experiment. The workload (src/apps/
// scale_network.h) is the heaviest mix the repo models: a backbone of
// always-on relays floods packets hop by hop while every other mote
// duty-cycles its radio with LPL (timer events, radio power transitions,
// CCA sampling, task dispatch, per-sample logging).
//
// Two simulation cores are measured:
//  * --threads 0: the single-engine path (one global EventQueue — the
//    PR 1 baseline).
//  * --threads N>=1: the sharded core (ShardedSimulator + MediumFabric,
//    fixed shard count, lockstep lookahead windows, N worker threads).
//    Every sharded run reports the deterministic merged-trace hash; equal
//    hashes across thread counts are the determinism proof (byte-identical
//    merged logs, hence byte-identical quanto_report output).
//
// Reported per run: executed events, wall-clock seconds, simulated events
// per wall second and the merge hash. Results are also written as JSON
// (default BENCH_scale.json, override with --json) so successive PRs can
// track the core's perf trajectory.
//
// Usage: bench_scale_multihop [--motes N] [--seconds S] [--json PATH]
//                             [--threads T1,T2,...] [--shards S]
//                             [--lookahead-us U] [--trace PATH]
//                             [--topology chain|grid] [--sinks K]
//                             [--grid-width W] [--wide-motes N]
//                             [--stream-traces] [--stream-log-capacity N]
//                             [--max-rss-mb M] [--mem-motes N]
//                             [--big-motes N] [--emission-depth D]
//                             [--huge-motes N] [--segment-entries N]
//                             [--help]
//   An unknown flag, or a flag missing its value, prints the usage and
//   exits 2 before anything runs; --help prints it and exits 0.
//   --motes        run only one network size instead of the 64/128/256 sweep
//   --seconds      simulated seconds per run (default 10)
//   --threads      worker-thread sweep; 0 = single-engine baseline
//                  (default 0,1,4)
//   --shards       shard count for sharded runs (default 8; fixed across
//                  the thread sweep so all runs simulate the same thing)
//   --lookahead-us lockstep window width in microseconds (default 512)
//   --trace        write the last run's merged trace (quanto_report input)
//   --topology     backbone layout (default chain — the PR 1/2 trajectory;
//                  grid enables the multi-sink wide-network layout)
//   --sinks        independent flood bands in grid mode (default 1)
//   --grid-width   grid row length (default 0 = floor(sqrt(motes)))
//   --wide-motes   wide-network smoke phase appended to the default sweep:
//                  a grid/4-sink network of N motes at 1/2/4 threads for
//                  2 simulated seconds, proving merge-hash determinism
//                  past the old 256-node ceiling (default 1024; 0
//                  disables; skipped when --motes is given)
//   --stream-traces  sharded runs collect traces through the streaming
//                  pipeline (bounded per-mote archives sealed at window
//                  barriers into an incremental merge) instead of the
//                  post-hoc whole-trace merge; the reported hash is the
//                  merger's online fingerprint, which equals the batch
//                  hash whenever no entries were dropped. Baseline
//                  (--threads 0) runs always use the batch path. Each
//                  shard's worker seals its dirty loggers into a
//                  pre-merged run inside the barrier, and the emission
//                  pipeline's consumer thread k-way merges the k = shards
//                  runs off the barrier, one hand-off per ~4 096 entries
//                  (`handoffs` in the JSON); per-window seal/merge/barrier
//                  and drain/flush timing percentiles are recorded, where
//                  merge_us zeros are windows without a hand-off.
//   --emission-depth  bounded hand-off queue depth in windows for
//                  off-barrier emission (default 4); the coordinator
//                  blocks (counted as consumer_stall_us) when the
//                  consumer falls that far behind
//   --big-motes    parallel-barrier scale phase appended to the default
//                  sweep: a grid/4-sink streamed pre-merged network of N
//                  motes at 1/2/4 threads for 2 simulated seconds, with
//                  barrier percentiles and construct_ms (default 16384;
//                  0 disables; skipped when --motes is given). This phase
//                  always runs under a peak-RSS guard: --max-rss-mb when
//                  given, else a mote-scaled ceiling of
//                  max(1024, motes/16) MB — a memory regression in the
//                  streamed/buffered path fails the bench instead of
//                  passing silently.
//   --huge-motes   wide-node scale phase (default 0 = off): a grid/4-sink
//                  streamed pre-merged network of N motes at 1 and 4
//                  threads for 2 simulated seconds, under the same
//                  mote-scaled RSS guard. This is the phase that crosses
//                  the old 65 534-mote ceiling (node ids are 32-bit);
//                  run_benchmarks.sh drives it at 262 144 motes in its
//                  own process and merges the rows into the JSON.
//   --segment-entries  entries per spill segment of a streamed --trace
//                  (default 65536): the index granularity; merged entries
//                  and hashes never depend on it
//   --stream-log-capacity  per-mote RAM ring in streaming mode (default
//                  1024 entries; batch mode keeps the usual 8192). The
//                  ring only needs to cover one lockstep window.
//   --max-rss-mb   fail (exit 1) if the process peak RSS exceeds this
//                  after any run — the CI guard for bounded-memory mode
//                  (0 = no limit)
//   --mem-motes    memory-scaling phase appended to the default sweep: a
//                  grid/4-sink network of N motes, streamed, at 1/2/4
//                  threads for 2 simulated seconds (default 8192; 0
//                  disables; skipped when --motes is given). Peak RSS is
//                  recorded per run but is process-monotone; for per-row
//                  RSS use tools/run_benchmarks.sh, which runs each
//                  memory row in its own process.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/emission_pipeline.h"
#include "src/analysis/trace_io.h"
#include "src/analysis/trace_merge.h"
#include "src/apps/scale_network.h"
#include "src/util/rng.h"
#include "src/util/table.h"

namespace quanto {
namespace {

constexpr char kUsage[] =
    "usage: bench_scale_multihop [--motes N] [--seconds S] [--json PATH]\n"
    "                            [--threads T1,T2,...] [--shards S]\n"
    "                            [--lookahead-us U] [--trace PATH]\n"
    "                            [--topology chain|grid] [--sinks K]\n"
    "                            [--grid-width W] [--wide-motes N]\n"
    "                            [--stream-traces] [--stream-log-capacity N]\n"
    "                            [--max-rss-mb M] [--mem-motes N]\n"
    "                            [--big-motes N] [--emission-depth D]\n"
    "                            [--huge-motes N] [--segment-entries N]\n"
    "                            [--help]\n";

// Percentile summary of one per-window timing series (microseconds).
struct PctSummary {
  bool present = false;
  uint64_t windows = 0;
  uint32_t p50 = 0;
  uint32_t p90 = 0;
  uint32_t p99 = 0;
  uint32_t max = 0;
  double total_ms = 0.0;
};

PctSummary Summarize(std::vector<uint32_t> samples) {
  PctSummary s;
  if (samples.empty()) {
    return s;
  }
  s.present = true;
  s.windows = samples.size();
  for (uint32_t v : samples) {
    s.total_ms += v / 1000.0;
  }
  std::sort(samples.begin(), samples.end());
  auto pct = [&samples](double p) {
    size_t idx = static_cast<size_t>(p * (samples.size() - 1));
    return samples[idx];
  };
  s.p50 = pct(0.50);
  s.p90 = pct(0.90);
  s.p99 = pct(0.99);
  s.max = samples.back();
  return s;
}

struct RunResult {
  size_t motes = 0;
  size_t threads = 0;  // 0 = single-engine baseline.
  size_t shards = 0;
  ScaleTopology topology = ScaleTopology::kChain;
  size_t sinks = 1;
  bool stream = false;
  double construct_ms = 0.0;  // Network + core construction wall time.
  double sim_seconds = 0.0;
  uint64_t events = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
  uint64_t packets_sent = 0;
  uint64_t packets_delivered = 0;
  uint64_t lpl_wakeups = 0;
  uint64_t entries_logged = 0;
  uint64_t entries_dropped = 0;
  uint64_t windows = 0;
  uint64_t cross_posts = 0;
  // Fabric drain counters (sharded runs): lanes_skipped counts whole
  // source lanes the drain dismissed with one channel-mask compare.
  uint64_t scheduled_wakeups = 0;
  uint64_t skipped_wakeups = 0;
  uint64_t lanes_skipped = 0;
  uint64_t merge_hash = 0;
  // Entries resident in the streaming merger at its high-water mark (the
  // streamed stand-in for "how big the batch merge vector would be").
  uint64_t stream_peak_buffered = 0;
  // Seal counters (streamed runs): chunks actually sealed, SealToSink
  // calls that found nothing, and the dirty-list seal calls (== chunks
  // sealed, with no empty seals: idle motes are never swept).
  uint64_t chunks_sealed = 0;
  uint64_t empty_seals_skipped = 0;
  uint64_t premerge_seal_calls = 0;
  // Per-window barrier timing percentiles (streamed runs). merge_us is
  // consumer-side (concurrent with simulation), one merge per hand-off
  // placed at the window that submitted it: its zeros are windows without
  // a hand-off, which is most of them when windows log little. window_us
  // is the whole window's wall time, so the overlap is visible even on a
  // timesliced 1-core host: merge_us stays out of barrier_us while
  // window_us absorbs the consumer's share of the core.
  PctSummary seal_us;
  PctSummary merge_us;
  PctSummary barrier_us;
  PctSummary window_us;
  // Fabric drain timing (streamed runs): drain_us is the fabric's
  // per-window cost, the slowest destination's lane merge; drain_phase_us
  // is the simulator-side wall time of the inter-window parallel phase.
  PctSummary drain_us;
  PctSummary drain_phase_us;
  // Charge-flush timing (streamed runs): the per-window max across shards
  // of the worker-side flush+seal pass — a slice of seal_us, parallel,
  // pre-barrier, so barrier_us is the O(shards) residue alone.
  PctSummary flush_us;
  // Off-barrier emission counters: total coordinator time blocked on a
  // full hand-off queue, the queued-run high-water mark, and the hand-offs
  // submitted (one per ScaleNetwork::kHandOffEntries entries, plus the
  // tail).
  uint64_t consumer_stall_us = 0;
  uint64_t runs_queued_peak = 0;
  uint64_t handoffs = 0;
  // Batched-charge flush counters (sharded runs): loggers visited across
  // all window flushes, and the flush rounds. Dirty-list flushing keeps
  // visits ≪ windows × motes.
  uint64_t charge_flush_visits = 0;
  uint64_t charge_flush_windows = 0;
  // Construction arena footprint: slab bytes reserved and the allocation
  // count the arena absorbed (the per-mote heap traffic it replaced).
  size_t arena_bytes_reserved = 0;
  uint64_t arena_allocations = 0;
  // Process peak RSS after this run, in MB. getrusage is process-wide and
  // monotone: within one invocation later rows inherit earlier peaks, so
  // per-row numbers need one process per row (run_benchmarks.sh's memory
  // phase does exactly that).
  size_t peak_rss_mb = 0;
};

struct RunOptions {
  size_t threads = 0;
  size_t shards = 8;
  Tick lookahead = Microseconds(512);
  ScaleTopology topology = ScaleTopology::kChain;
  size_t sinks = 1;
  size_t grid_width = 0;
  bool stream = false;              // Streamed collection.
  size_t emission_depth = EmissionPipeline::kDefaultMaxDepth;
  size_t stream_log_capacity = 1024;
  std::string trace_path;  // Empty: no trace dump.
  // Entries per spill segment (--segment-entries): index granularity for
  // the streamed spill. Default matches FileTraceSink; merged entries and
  // hashes are invariant to it.
  size_t segment_entries = FileTraceSink::kDefaultSegmentEntries;
};

// Seconds() takes an integral count; convert fractional durations
// explicitly so "--seconds 0.5" runs half a second instead of silently
// truncating to zero.
Tick SimTicks(double seconds) {
  return static_cast<Tick>(seconds * kTicksPerSecond);
}

size_t PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<size_t>(usage.ru_maxrss) / 1024;  // KB on Linux.
}

void FinishRun(const ScaleNetwork& net, const RunOptions& opts,
               RunResult* result) {
  result->lpl_wakeups = net.lpl_wakeups();
  result->entries_logged = net.entries_logged();
  result->entries_dropped = net.entries_dropped();
  std::vector<MergedEntry> merged = MergeTraces(CollectNodeTraces(net));
  result->merge_hash = MergedTraceHash(merged);
  if (!opts.trace_path.empty()) {
    if (WriteTraceFile(opts.trace_path, MergedEntryStream(merged))) {
      std::cout << "  wrote merged trace " << opts.trace_path << " ("
                << merged.size() << " entries)\n";
    } else {
      std::cerr << "cannot write " << opts.trace_path << "\n";
    }
  }
}

RunResult RunNetwork(size_t n_motes, double sim_seconds,
                     const RunOptions& opts) {
  ScaleNetworkConfig cfg;
  cfg.motes = n_motes;
  cfg.topology = opts.topology;
  cfg.sinks = opts.sinks;
  cfg.grid_width = opts.grid_width;

  RunResult result;
  result.motes = n_motes;
  result.threads = opts.threads;
  result.topology = opts.topology;
  result.sim_seconds = sim_seconds;

  if (opts.threads == 0) {
    // Single-engine baseline: the exact PR 1 code path.
    auto construct_start = std::chrono::steady_clock::now();
    EventQueue queue;
    Medium medium(&queue);
    ScaleNetwork net(&queue, &medium, cfg);
    result.construct_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - construct_start)
            .count();
    result.arena_bytes_reserved = net.construction_arena().bytes_reserved();
    result.arena_allocations = net.construction_arena().allocations();
    // Effective band count after ScaleNetwork clamps sinks to the rows.
    result.sinks = net.origin_count();
    net.PowerUp();
    queue.RunFor(Milliseconds(5));
    net.StartApps();

    auto start = std::chrono::steady_clock::now();
    queue.RunFor(SimTicks(sim_seconds));
    auto stop = std::chrono::steady_clock::now();

    result.shards = 1;
    result.events = queue.executed_count();
    result.wall_seconds = std::chrono::duration<double>(stop - start).count();
    result.packets_sent = medium.packets_sent();
    result.packets_delivered = medium.packets_delivered();
    FinishRun(net, opts, &result);
  } else {
    auto construct_start = std::chrono::steady_clock::now();
    ShardedSimulator::Config sim_cfg;
    sim_cfg.shards = opts.shards;
    sim_cfg.threads = opts.threads;
    sim_cfg.lookahead = opts.lookahead;
    ShardedSimulator sim(sim_cfg);
    MediumFabric fabric(&sim);
    // Window-batched logger self-charging: the sharded core's native mode.
    cfg.batch_log_charging = true;

    // Streaming collection: each shard's worker seals its dirty loggers
    // into a pre-merged run at every window barrier (bounded archives),
    // the emission pipeline's consumer thread merges the runs off the
    // barrier, merged entries spill to the optional trace file online, and
    // the hash is the merger's online fingerprint. The batch path below
    // keeps whole traces in RAM and merges post hoc.
    StreamingTraceMerger merger;
    std::unique_ptr<FileTraceSink> spill;
    // Declared after merger/spill so its consumer thread joins before the
    // merger (and everything behind the emit hook) is destroyed.
    std::unique_ptr<EmissionPipeline> emission;
    if (opts.stream) {
      if (!opts.trace_path.empty()) {
        // Streamed spills carry the segment footer index: built entry by
        // entry behind the emit hook (on the emission consumer thread —
        // zero barrier cost) and appended at Close. The data segments
        // stay byte-identical to an unindexed spill.
        FileTraceSink::Options sink_opts;
        sink_opts.segment_entries = opts.segment_entries;
        sink_opts.write_index = true;
        spill = std::make_unique<FileTraceSink>(opts.trace_path, sink_opts);
        FileTraceSink* sink = spill.get();
        merger.SetEmit(
            [sink](const MergedEntry& m) { sink->Append(m.entry); });
      }
      emission =
          std::make_unique<EmissionPipeline>(&merger, opts.emission_depth);
      cfg.emission_pipeline = emission.get();
      cfg.profile_barrier = true;
      cfg.log_capacity = opts.stream_log_capacity;
      sim.EnableBarrierProfiling(true);
      fabric.EnableDrainProfiling(true);
      result.stream = true;
    }
    ScaleNetwork net(&sim, &fabric, cfg);
    result.construct_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - construct_start)
            .count();
    result.arena_bytes_reserved = net.construction_arena().bytes_reserved();
    result.arena_allocations = net.construction_arena().allocations();
    result.sinks = net.origin_count();
    net.PowerUp();
    sim.RunFor(Milliseconds(5));
    net.StartApps();

    auto start = std::chrono::steady_clock::now();
    sim.RunFor(SimTicks(sim_seconds));
    auto stop = std::chrono::steady_clock::now();

    result.shards = sim.shard_count();
    result.events = sim.executed_count();
    result.wall_seconds = std::chrono::duration<double>(stop - start).count();
    result.packets_sent = fabric.packets_sent();
    result.packets_delivered = fabric.packets_delivered();
    result.windows = sim.windows_run();
    result.cross_posts = fabric.cross_posts();
    result.scheduled_wakeups = fabric.scheduled_wakeups();
    result.skipped_wakeups = fabric.skipped_wakeups();
    result.lanes_skipped = fabric.lanes_skipped();
    result.charge_flush_visits = net.charge_flush_visits();
    result.charge_flush_windows = net.charge_flush_windows();
    if (opts.stream) {
      net.SealAllChunks();
      merger.Finish();
      result.lpl_wakeups = net.lpl_wakeups();
      result.entries_logged = net.entries_logged();
      result.entries_dropped = net.entries_dropped();
      result.merge_hash = merger.hash();
      result.stream_peak_buffered = merger.peak_buffered();
      result.chunks_sealed = net.chunks_sealed();
      result.empty_seals_skipped = net.empty_seals_skipped();
      result.premerge_seal_calls = net.premerge_seal_calls();
      result.seal_us = Summarize(net.seal_us_samples());
      // SealAllChunks drained the pipeline and copied the consumer-side
      // samples back.
      result.merge_us = Summarize(net.merge_us_samples());
      result.barrier_us = Summarize(sim.barrier_us_samples());
      result.window_us = Summarize(sim.window_us_samples());
      result.drain_us = Summarize(fabric.drain_us_samples());
      result.drain_phase_us = Summarize(sim.drain_phase_us_samples());
      result.flush_us = Summarize(net.flush_us_samples());
      result.consumer_stall_us = emission->consumer_stall_us();
      result.runs_queued_peak = emission->runs_queued_peak();
      result.handoffs = emission->windows_submitted();
      if (spill != nullptr) {
        if (spill->Close()) {
          std::cout << "  spilled merged trace " << opts.trace_path << " ("
                    << spill->entries_written() << " entries, "
                    << spill->segments_written() << " segments, "
                    << spill->index_bytes_written() << " index bytes)\n";
        } else {
          std::cerr << "cannot write " << opts.trace_path << "\n";
        }
      }
      if (result.entries_dropped > 0) {
        std::cerr << "  WARNING: " << result.entries_dropped
                  << " entries dropped (ring too small for one flush "
                     "interval); streamed hash will not match a batch run\n";
      }
    } else {
      FinishRun(net, opts, &result);
    }
  }
  result.events_per_sec =
      result.wall_seconds > 0 ? result.events / result.wall_seconds : 0.0;
  result.peak_rss_mb = PeakRssMb();
  return result;
}

// Engine-core churn: the scheduler isolated from mote payload. Keeps a
// ~128-mote-sized pending set alive with the delay mix the network run
// exhibits (mostly short frame-completion/SPI delays, a tail of long LPL
// timers, a share of due-now dispatches, ~12% cancellations) and measures
// raw executed events per wall second. This is the number the event-engine
// rewrite targets directly; the network runs above measure it diluted by
// per-event instrumentation (logging, metering, power tracking).
struct CoreChurn {
  EventQueue queue;
  static constexpr size_t kIdRing = 512;
  static constexpr size_t kMix = 4096;
  EventQueue::EventId ids[kIdRing] = {};
  size_t next_id_slot = 0;
  // Precomputed delay/victim mix so the measured loop is queue work, not
  // random-number generation (identical sequence for every engine).
  Tick delays[kMix];
  uint16_t victims[kMix];
  size_t mix_pos = 0;

  CoreChurn() {
    Rng rng{0xBEEF5EED};
    for (size_t i = 0; i < kMix; ++i) {
      uint64_t pick = rng.UniformInt(0, 99);
      if (pick < 15) {
        delays[i] = 0;  // Due-now task dispatch.
      } else if (pick < 85) {
        delays[i] = rng.UniformInt(20, 200);  // Frame completion / SPI.
      } else {
        delays[i] = rng.UniformInt(50000, 200000);  // LPL check timer.
      }
      victims[i] = static_cast<uint16_t>(rng.UniformInt(0, kIdRing - 1));
    }
  }

  void SpawnOne() {
    Tick delay = delays[mix_pos++ & (kMix - 1)];
    EventQueue::EventId id =
        queue.ScheduleAfter(delay, [this] { OnFire(); });
    ids[next_id_slot++ & (kIdRing - 1)] = id;
  }

  void OnFire() {
    SpawnOne();  // Replace ourselves: stable population.
    if ((mix_pos & 7) == 0) {
      // Cancel a random recent event (may already have fired); replace it
      // when the cancellation actually removed a pending one.
      EventQueue::EventId victim = ids[victims[mix_pos & (kMix - 1)]];
      if (queue.Cancel(victim)) {
        SpawnOne();
      }
    }
  }

  RunResult Run(uint64_t target_events) {
    for (int i = 0; i < 300; ++i) {
      SpawnOne();
    }
    auto start = std::chrono::steady_clock::now();
    while (queue.executed_count() < target_events) {
      queue.RunFor(100000);
    }
    auto stop = std::chrono::steady_clock::now();
    RunResult result;
    result.events = queue.executed_count();
    result.wall_seconds = std::chrono::duration<double>(stop - start).count();
    result.events_per_sec =
        result.wall_seconds > 0 ? result.events / result.wall_seconds : 0.0;
    return result;
  }
};

std::string HashHex(uint64_t hash) {
  std::ostringstream out;
  out << std::hex << hash;
  return out.str();
}

void WriteJson(const std::vector<RunResult>& runs, const RunResult& core,
               const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  // Host parallelism context for interpreting multi-thread rows. The
  // canonical "timesliced" per-run marking (threads > nproc) is stamped
  // by tools/run_benchmarks.sh, which owns that policy; host_cores is
  // recorded here so standalone runs carry the context too.
  out << "{\n  \"benchmark\": \"scale_multihop\",\n  \"host_cores\": "
      << std::thread::hardware_concurrency() << ",\n  \"runs\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    out << "    {\"motes\": " << r.motes
        << ", \"threads\": " << r.threads
        << ", \"shards\": " << r.shards
        << ", \"topology\": \""
        << (r.topology == ScaleTopology::kGrid ? "grid" : "chain") << "\""
        << ", \"sinks\": " << r.sinks
        << ", \"stream\": " << (r.stream ? "true" : "false")
        << ", \"sim_seconds\": " << r.sim_seconds
        << ", \"events\": " << r.events
        << ", \"wall_seconds\": " << r.wall_seconds
        << ", \"events_per_sec\": " << static_cast<uint64_t>(r.events_per_sec)
        << ", \"packets_sent\": " << r.packets_sent
        << ", \"packets_delivered\": " << r.packets_delivered
        << ", \"lpl_wakeups\": " << r.lpl_wakeups
        << ", \"entries_logged\": " << r.entries_logged
        << ", \"entries_dropped\": " << r.entries_dropped
        << ", \"windows\": " << r.windows
        << ", \"cross_posts\": " << r.cross_posts
        << ", \"scheduled_wakeups\": " << r.scheduled_wakeups
        << ", \"skipped_wakeups\": " << r.skipped_wakeups
        << ", \"lanes_skipped\": " << r.lanes_skipped
        << ", \"stream_peak_buffered\": " << r.stream_peak_buffered
        << ", \"peak_rss_mb\": " << r.peak_rss_mb
        << ", \"consumer_stall_us\": " << r.consumer_stall_us
        << ", \"runs_queued_peak\": " << r.runs_queued_peak
        << ", \"handoffs\": " << r.handoffs
        << ", \"charge_flush_visits\": " << r.charge_flush_visits
        << ", \"charge_flush_windows\": " << r.charge_flush_windows
        << ", \"construct_ms\": " << r.construct_ms
        << ", \"arena_bytes_reserved\": " << r.arena_bytes_reserved
        << ", \"arena_allocations\": " << r.arena_allocations
        << ", \"chunks_sealed\": " << r.chunks_sealed
        << ", \"empty_seals_skipped\": " << r.empty_seals_skipped
        << ", \"premerge_seal_calls\": " << r.premerge_seal_calls
        << ", \"merge_hash\": \"" << HashHex(r.merge_hash) << "\"";
    auto pct = [&out](const char* name, const PctSummary& p) {
      out << ", \"" << name << "\": {\"p50\": " << p.p50
          << ", \"p90\": " << p.p90 << ", \"p99\": " << p.p99
          << ", \"max\": " << p.max << ", \"total_ms\": " << p.total_ms
          << "}";
    };
    if (r.seal_us.present || r.merge_us.present || r.barrier_us.present) {
      out << ", \"barrier_windows\": " << r.barrier_us.windows;
      pct("seal_us", r.seal_us);
      pct("merge_us", r.merge_us);
      pct("barrier_us", r.barrier_us);
      pct("window_wall_us", r.window_us);
    }
    if (r.drain_us.present || r.drain_phase_us.present) {
      pct("drain_us", r.drain_us);
      pct("drain_phase_wall_us", r.drain_phase_us);
    }
    if (r.flush_us.present) {
      pct("flush_us", r.flush_us);
    }
    out << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"engine_core\": {\"events\": " << core.events
      << ", \"wall_seconds\": " << core.wall_seconds
      << ", \"events_per_sec\": "
      << static_cast<uint64_t>(core.events_per_sec) << "},\n";
  // Reference numbers recorded against earlier engines (same workload,
  // same build flags; see docs/PERFORMANCE.md for the protocol). The
  // pre-overhaul seed engine, and PR 1's single-engine numbers that the
  // sharded core's thread sweep is measured against.
  out << "  \"seed_engine_baseline\": {\"motes\": 128, "
         "\"network_events_per_sec_median\": 2837350, "
         "\"engine_core_events_per_sec_median\": 5366662},\n";
  out << "  \"pr1_single_engine_baseline\": {\"motes\": 256, "
         "\"events_per_sec\": 4666063}\n";
  out << "}\n";
  std::cout << "  wrote " << path << "\n";
}

int Run(int argc, char** argv) {
  std::vector<size_t> sizes = {64, 128, 256};
  std::vector<size_t> thread_sweep = {0, 1, 4};
  double sim_seconds = 10.0;
  std::string json_path = "BENCH_scale.json";
  RunOptions opts;
  std::string trace_path;
  size_t wide_motes = 1024;
  size_t mem_motes = 8192;
  size_t big_motes = 16384;
  size_t huge_motes = 0;
  size_t max_rss_mb = 0;
  bool single_size = false;
  // Mote ids are 1..N and 0xFFFFFFFF is the broadcast address, so the
  // ceiling follows node_id_t directly: 4 294 967 294 with 32-bit ids
  // (it was 65 534 when node_id_t was uint16_t).
  constexpr size_t kMaxMotes = kMaxNetworkMotes;
  static_assert(kMaxMotes ==
                static_cast<size_t>(std::numeric_limits<node_id_t>::max()) - 1);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--motes") == 0 && i + 1 < argc) {
      long n = std::atol(argv[++i]);
      if (n < 2) {
        std::cerr << "--motes must be >= 2 (a relay network needs an "
                     "origin and a peer)\n";
        return 2;
      }
      if (static_cast<size_t>(n) > kMaxMotes) {
        std::cerr << "--motes must be <= " << kMaxMotes
                  << " (node ids are "
                  << 8 * sizeof(node_id_t)
                  << "-bit and the top id is the broadcast address)\n";
        return 2;
      }
      sizes = {static_cast<size_t>(n)};
      single_size = true;
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      sim_seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      thread_sweep.clear();
      std::stringstream list(argv[++i]);
      std::string item;
      while (std::getline(list, item, ',')) {
        thread_sweep.push_back(static_cast<size_t>(std::atoi(item.c_str())));
      }
      if (thread_sweep.empty()) {
        std::cerr << "--threads needs a comma-separated list\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      int n = std::atoi(argv[++i]);
      if (n < 1) {
        std::cerr << "--shards must be >= 1\n";
        return 2;
      }
      opts.shards = static_cast<size_t>(n);
    } else if (std::strcmp(argv[i], "--lookahead-us") == 0 && i + 1 < argc) {
      opts.lookahead = Microseconds(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--segment-entries") == 0 &&
               i + 1 < argc) {
      long n = std::atol(argv[++i]);
      if (n <= 0) {
        std::cerr << "--segment-entries wants a positive count\n";
        return 2;
      }
      opts.segment_entries = static_cast<size_t>(n);
    } else if (std::strcmp(argv[i], "--topology") == 0 && i + 1 < argc) {
      std::string t = argv[++i];
      if (t == "chain") {
        opts.topology = ScaleTopology::kChain;
      } else if (t == "grid") {
        opts.topology = ScaleTopology::kGrid;
      } else {
        std::cerr << "--topology must be chain or grid\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--sinks") == 0 && i + 1 < argc) {
      int n = std::atoi(argv[++i]);
      if (n < 1) {
        std::cerr << "--sinks must be >= 1\n";
        return 2;
      }
      opts.sinks = static_cast<size_t>(n);
    } else if (std::strcmp(argv[i], "--grid-width") == 0 && i + 1 < argc) {
      int n = std::atoi(argv[++i]);
      if (n < 0) {
        std::cerr << "--grid-width must be >= 0 (0 = floor(sqrt(motes)))\n";
        return 2;
      }
      opts.grid_width = static_cast<size_t>(n);
    } else if (std::strcmp(argv[i], "--wide-motes") == 0 && i + 1 < argc) {
      long n = std::atol(argv[++i]);
      if (n < 0 || static_cast<size_t>(n) > kMaxMotes) {
        std::cerr << "--wide-motes must be in [0, " << kMaxMotes << "]\n";
        return 2;
      }
      wide_motes = static_cast<size_t>(n);
    } else if (std::strcmp(argv[i], "--mem-motes") == 0 && i + 1 < argc) {
      long n = std::atol(argv[++i]);
      if (n < 0 || static_cast<size_t>(n) > kMaxMotes) {
        std::cerr << "--mem-motes must be in [0, " << kMaxMotes << "]\n";
        return 2;
      }
      mem_motes = static_cast<size_t>(n);
    } else if (std::strcmp(argv[i], "--stream-traces") == 0) {
      opts.stream = true;
    } else if (std::strcmp(argv[i], "--emission-depth") == 0 && i + 1 < argc) {
      int n = std::atoi(argv[++i]);
      if (n < 1) {
        std::cerr << "--emission-depth must be >= 1\n";
        return 2;
      }
      opts.emission_depth = static_cast<size_t>(n);
    } else if (std::strcmp(argv[i], "--big-motes") == 0 && i + 1 < argc) {
      long n = std::atol(argv[++i]);
      if (n < 0 || static_cast<size_t>(n) > kMaxMotes) {
        std::cerr << "--big-motes must be in [0, " << kMaxMotes << "]\n";
        return 2;
      }
      big_motes = static_cast<size_t>(n);
    } else if (std::strcmp(argv[i], "--huge-motes") == 0 && i + 1 < argc) {
      long n = std::atol(argv[++i]);
      if (n < 0 || static_cast<size_t>(n) > kMaxMotes) {
        std::cerr << "--huge-motes must be in [0, " << kMaxMotes << "]\n";
        return 2;
      }
      huge_motes = static_cast<size_t>(n);
    } else if (std::strcmp(argv[i], "--stream-log-capacity") == 0 &&
               i + 1 < argc) {
      int n = std::atoi(argv[++i]);
      if (n < 1) {
        std::cerr << "--stream-log-capacity must be >= 1\n";
        return 2;
      }
      opts.stream_log_capacity = static_cast<size_t>(n);
    } else if (std::strcmp(argv[i], "--max-rss-mb") == 0 && i + 1 < argc) {
      long n = std::atol(argv[++i]);
      if (n < 0) {
        std::cerr << "--max-rss-mb must be >= 0 (0 = no limit)\n";
        return 2;
      }
      max_rss_mb = static_cast<size_t>(n);
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      std::cout << kUsage;
      return 0;
    } else {
      std::cerr << "unknown flag or missing value: " << argv[i] << "\n"
                << kUsage;
      return 2;
    }
  }

  PrintSection(std::cout, "Simulation core scale: LPL relay network");
  TextTable t({"motes", "thr", "shards", "topo", "coll", "sim s", "events",
               "wall s", "events/s", "delivered", "rss MB", "merge hash"});
  std::vector<RunResult> runs;
  bool rss_exceeded = false;
  // The streamed scale phases (big/huge) always run guarded: --max-rss-mb
  // when given, else this mote-scaled ceiling — 1 GB up to 16 384 motes
  // (recorded peak there is ~560 MB), growing 64 KB per mote past that so
  // the 262 144-mote run gets 16 GB (recorded peak is well under half of
  // it). A fixed 1 GB cap would either fail legitimate huge runs or, if
  // simply raised, stop catching regressions at the small sizes; scaling
  // with the mote count keeps the guard tight at every size. The guard
  // fails the bench if the streamed/buffered path's memory ever stops
  // being bounded per mote. Other phases are only guarded when
  // --max-rss-mb is set explicitly.
  auto phase_rss_guard_mb = [](size_t motes) {
    return std::max<size_t>(1024, motes * 64 / 1024);
  };
  auto add_row = [&t, &rss_exceeded](const RunResult& r, size_t rss_limit_mb) {
    t.AddRow({std::to_string(r.motes), std::to_string(r.threads),
              std::to_string(r.shards),
              r.topology == ScaleTopology::kGrid ? "grid" : "chain",
              r.stream ? "stream" : "batch",
              TextTable::Num(r.sim_seconds, 1), std::to_string(r.events),
              TextTable::Num(r.wall_seconds, 3),
              std::to_string(static_cast<uint64_t>(r.events_per_sec)),
              std::to_string(r.packets_delivered),
              std::to_string(r.peak_rss_mb), HashHex(r.merge_hash)});
    if (rss_limit_mb > 0 && r.peak_rss_mb > rss_limit_mb) {
      std::cerr << "  FAIL: peak RSS " << r.peak_rss_mb
                << " MB exceeds the limit of " << rss_limit_mb << " MB\n";
      rss_exceeded = true;
    }
  };
  for (size_t n : sizes) {
    for (size_t threads : thread_sweep) {
      RunOptions run_opts = opts;
      run_opts.threads = threads;
      // The merged trace (for quanto_report comparisons) is written by the
      // last run of each thread sweep at the largest size, suffixed by the
      // thread count so 1-thread and N-thread outputs can be diffed.
      if (!trace_path.empty() && n == sizes.back()) {
        run_opts.trace_path =
            trace_path + "." + std::to_string(threads) + "t.qnto";
      }
      RunResult r = RunNetwork(n, sim_seconds, run_opts);
      runs.push_back(r);
      add_row(r, max_rss_mb);
    }
  }

  // Wide-network smoke phase: a grid/multi-sink network past the old
  // 256-node ceiling, swept over 1/2/4 threads. Equal merge hashes across
  // the sweep prove the widened addressing stays deterministic.
  if (!single_size && wide_motes > 0) {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      RunOptions run_opts = opts;
      run_opts.threads = threads;
      run_opts.topology = ScaleTopology::kGrid;
      run_opts.sinks = 4;
      RunResult r = RunNetwork(wide_motes, 2.0, run_opts);
      runs.push_back(r);
      add_row(r, max_rss_mb);
    }
  }

  // Memory-scaling phase: the many-thousand-mote grid the streaming
  // TraceSink pipeline exists for. Streamed collection at 1/2/4 threads —
  // equal online merge hashes extend the determinism proof to the sizes
  // where the batch path would hold the whole network's trace in RAM.
  // (peak_rss_mb here is process-monotone; run_benchmarks.sh records the
  // per-row numbers from one process per row.)
  if (!single_size && mem_motes > 0) {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      RunOptions run_opts = opts;
      run_opts.threads = threads;
      run_opts.topology = ScaleTopology::kGrid;
      run_opts.sinks = 4;
      run_opts.stream = true;
      RunResult r = RunNetwork(mem_motes, 2.0, run_opts);
      runs.push_back(r);
      add_row(r, max_rss_mb);
    }
  }

  // Parallel-barrier scale phase: the 16 384-mote streamed grid the
  // pre-merged pipeline exists for. Dirty-list sealing keeps the barrier
  // cost O(motes that logged); the per-window seal/merge/barrier
  // percentiles and construct_ms land in the JSON (run_benchmarks.sh
  // stamps the barrier_summary block from these rows).
  if (!single_size && big_motes > 0) {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      RunOptions run_opts = opts;
      run_opts.threads = threads;
      run_opts.topology = ScaleTopology::kGrid;
      run_opts.sinks = 4;
      run_opts.stream = true;
      RunResult r = RunNetwork(big_motes, 2.0, run_opts);
      runs.push_back(r);
      add_row(r, max_rss_mb > 0 ? max_rss_mb : phase_rss_guard_mb(big_motes));
    }
  }

  // Wide-node scale phase (--huge-motes, default off): the streamed
  // pre-merged grid past the old 65 534-mote id ceiling. Two thread
  // counts bound the determinism check (equal hashes) while keeping the
  // phase affordable at hundreds of thousands of motes; construct_ms per
  // run shows the arena keeping construction linear.
  if (!single_size && huge_motes > 0) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      RunOptions run_opts = opts;
      run_opts.threads = threads;
      run_opts.topology = ScaleTopology::kGrid;
      run_opts.sinks = 4;
      run_opts.stream = true;
      RunResult r = RunNetwork(huge_motes, 2.0, run_opts);
      runs.push_back(r);
      add_row(r, max_rss_mb > 0 ? max_rss_mb : phase_rss_guard_mb(huge_motes));
    }
  }
  t.Print(std::cout);

  // Residue split for the streamed rows: the worker-side charge flush
  // (∥, a slice of seal_us) next to the serial barrier section, whose
  // totals are the O(shards) residue the flush no longer sits inside.
  bool any_flush = false;
  for (const RunResult& r : runs) {
    any_flush = any_flush || r.flush_us.present;
  }
  if (any_flush) {
    PrintSection(std::cout, "Window residue: charge flush vs serial barrier");
    TextTable rt({"motes", "thr", "fl p50", "fl p90", "fl p99",
                  "fl max", "fl tot ms", "bar p50", "bar p90", "bar p99",
                  "bar max", "bar tot ms"});
    for (const RunResult& r : runs) {
      if (!r.flush_us.present) {
        continue;
      }
      rt.AddRow({std::to_string(r.motes), std::to_string(r.threads),
                 std::to_string(r.flush_us.p50), std::to_string(r.flush_us.p90),
                 std::to_string(r.flush_us.p99), std::to_string(r.flush_us.max),
                 TextTable::Num(r.flush_us.total_ms, 1),
                 std::to_string(r.barrier_us.p50),
                 std::to_string(r.barrier_us.p90),
                 std::to_string(r.barrier_us.p99),
                 std::to_string(r.barrier_us.max),
                 TextTable::Num(r.barrier_us.total_ms, 1)});
    }
    rt.Print(std::cout);
  }

  PrintSection(std::cout, "Engine core churn (scheduler isolated)");
  CoreChurn churn;
  RunResult core = churn.Run(5000000);
  std::cout << "  " << core.events << " events in "
            << TextTable::Num(core.wall_seconds, 3) << " s = "
            << static_cast<uint64_t>(core.events_per_sec) << " events/s\n";

  WriteJson(runs, core, json_path);
  return rss_exceeded ? 1 : 0;
}

}  // namespace
}  // namespace quanto

int main(int argc, char** argv) { return quanto::Run(argc, argv); }
