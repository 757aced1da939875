// Sharded parallel simulation core: N per-shard event engines advanced in
// lockstep windows by a pool of worker threads.
//
// Conservative parallel discrete-event simulation: each shard owns a
// disjoint set of motes and a private EventQueue (timing wheel, far heap,
// slab — see event_queue.h), so everything a mote does to itself and to
// shard-mates is ordinary sequential simulation. Shards only interact
// through cross-shard effects (radio frames) whose minimum latency — the
// lookahead — is at least one window width. That makes every window
// embarrassingly parallel: during the window (t, t+W] no shard can affect
// another, so all shards run concurrently with no locks on the hot path,
// and cross-shard effects are exchanged at the window barrier (see
// MediumFabric in src/net/medium.h).
//
// Determinism is by construction, not by luck:
//  * The shard decomposition is fixed by configuration, independent of the
//    worker-thread count. Threads only decide *who* executes a shard's
//    window, never *what* executes: a 1-thread run and an 8-thread run
//    perform the identical per-shard event sequences.
//  * Inter-window work is phase-ordered, not thread-ordered. A window is
//    one dispatch to the pool: each worker runs its shards' windows, then
//    crosses an in-pool barrier that opens once every shard is parked at
//    the window end, then runs the optional drain tasks of its shards
//    (destination-owned work such as the fabric's mailbox merge — see
//    AddShardDrainTask). Once every worker has finished its drain, the
//    serial barrier hooks (O(shards) hand-off bookkeeping) run on the
//    coordinating thread in registration order. Each drain task writes
//    only its own shard's engine and applies inputs in a deterministic
//    merge order, so the events it schedules get identical sequence
//    numbers at any thread count — the same argument as for the hooks.
//  * Each queue's same-tick FIFO ordering is untouched; merged per-node
//    logs are therefore bit-identical across thread counts (asserted by
//    tests/sharded_determinism_test.cc).
//
// Windows fast-forward across globally idle gaps: if every shard's next
// event is at time B > now, the window is placed to end at B-1+W instead
// of grinding through empty barriers (duty-cycled networks sleep orders of
// magnitude longer than a window).
#ifndef QUANTO_SRC_SIM_SHARDED_SIM_H_
#define QUANTO_SRC_SIM_SHARDED_SIM_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/util/units.h"

namespace quanto {

class ShardedSimulator {
 public:
  struct Config {
    // Shard count fixes the decomposition (and thus the exact simulated
    // behaviour); it deliberately does NOT default to the thread count.
    size_t shards = 8;
    // Worker threads executing shard windows; clamped to [1, shards]. The
    // coordinating thread is one of them.
    size_t threads = 1;
    // Window width in ticks. Must be <= the minimum cross-shard latency
    // (the MediumFabric enforces its side; see medium.h). 512 us default:
    // one CC2420 CSMA backoff period (320 us) + RX turnaround (192 us),
    // the shortest path from a transmit decision to another node hearing
    // the frame.
    Tick lookahead = Microseconds(512);
  };

  explicit ShardedSimulator(const Config& config);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  size_t shard_count() const { return queues_.size(); }
  size_t thread_count() const { return threads_; }
  Tick lookahead() const { return config_.lookahead; }
  Tick Now() const { return now_; }

  // The shard's private engine. Build each mote against the queue of the
  // shard it is assigned to; never schedule onto another shard's queue
  // except from a barrier hook.
  EventQueue& queue(size_t shard) { return *queues_[shard]; }

  // Runs after every window, on the coordinating thread, in registration
  // order, with all shards parked at `window_end`. This is the serial
  // residue of the window — O(shards) hand-off work only (the fabric's
  // retirement swap, the sealed-run hand-off): the per-mote work that
  // once lived here has moved to the parallel phases (mailbox drain to
  // ShardDrainTasks, dirty-logger sealing and the batched charge flush
  // to the fused pre-barrier ShardWindowTask).
  using BarrierHook = std::function<void(Tick window_end)>;
  void AddBarrierHook(BarrierHook hook) {
    hooks_.push_back(std::move(hook));
  }

  // Pre-barrier parallel phase: runs once per shard per window, on the
  // worker thread that just advanced that shard to `window_end`, before
  // the coordinator's BarrierHooks resume. This is where per-shard barrier
  // work that used to serialize on the coordinator — sealing dirty
  // loggers into pre-merged runs, fused with the batched charge flush —
  // overlaps across shards, and with other shards still executing their
  // windows. Tasks must touch only shard-local state (the charge flush
  // qualifies: it only ever reschedules events in the owning shard's own
  // queue, at ticks beyond `window_end`); the window barrier publishes
  // their writes to the coordinator.
  using ShardWindowTask = std::function<void(size_t shard, Tick window_end)>;
  void AddShardWindowTask(ShardWindowTask task) {
    shard_tasks_.push_back(std::move(task));
  }

  // Inter-window parallel phase — the fan-in counterpart to the
  // pre-barrier ShardWindowTask above. Runs once per shard per window,
  // in parallel on the worker pool, after EVERY shard has parked at
  // `window_end` (a full barrier separates it from window execution) and
  // before the coordinator's serial BarrierHooks. This is where
  // per-destination barrier work lands: each shard consumes the inputs
  // the other shards published during the window (cross-shard mailbox
  // lanes) and applies them to its own engine. Tasks may READ any state
  // the window barrier published (it is frozen until the hooks run) but
  // must WRITE only state owned by their `shard` — its EventQueue, its
  // slot in per-shard arrays — which keeps the phase data-race-free by
  // construction. The pool's completion count publishes task writes to
  // the hooks.
  using ShardDrainTask = std::function<void(size_t shard, Tick window_end)>;
  void AddShardDrainTask(ShardDrainTask task) {
    drain_tasks_.push_back(std::move(task));
  }

  // Barrier profiling: when enabled, records per window, in microseconds,
  // three separate series — the coordinator's serial barrier section (the
  // BarrierHook loop), the parallel inter-window drain phase's wall time
  // (0 when no ShardDrainTask is registered), and the whole window's wall
  // time (placement + parallel shard execution + drain phase + barrier).
  // The drain phase is timed on the coordinating thread, from the moment
  // it passes the in-pool barrier (every shard parked at the window end)
  // until every worker has finished its drain tasks. window_wall minus
  // (drain + barrier) is the window-execution parallel section. Off by
  // default — the samples vectors grow by 12 bytes per window.
  void EnableBarrierProfiling(bool on) { profile_barriers_ = on; }
  const std::vector<uint32_t>& barrier_us_samples() const {
    return barrier_us_samples_;
  }
  const std::vector<uint32_t>& drain_phase_us_samples() const {
    return drain_phase_us_samples_;
  }
  const std::vector<uint32_t>& window_us_samples() const {
    return window_us_samples_;
  }

  // Advances every shard to `end` in lockstep windows. Returns the number
  // of events executed across all shards during this call.
  uint64_t RunUntil(Tick end);
  uint64_t RunFor(Tick duration) { return RunUntil(now_ + duration); }

  // Total events executed across all shards since construction.
  uint64_t executed_count() const;

  uint64_t windows_run() const { return windows_run_; }

 private:
  // Runs worker `w`'s static shard range [w*S/T, (w+1)*S/T) up to target.
  void RunShardRange(size_t worker, Tick target);
  // Runs the registered ShardDrainTasks for worker `w`'s shard range.
  void RunDrainRange(size_t worker, Tick target);
  // Both parallel phases of one window on the coordinating thread: with a
  // pool, publishes (epoch, target), takes part as worker 0 and returns
  // once every worker has finished its drain. Records the drain-phase
  // sample when profiling.
  void RunWindow(Tick target);
  // The in-pool barrier between window execution and the drain: returns
  // once all threads_ participants have arrived for window `epoch`.
  void CrossBarrier(uint64_t epoch);
  // Spins a bounded number of pauses until `ready()` holds, then parks on
  // park_cv_. Every store that can make a waiter's predicate true is
  // followed by Wake().
  template <typename Ready>
  void Await(Ready ready);
  void Wake();
  void WorkerLoop(size_t worker);

  Config config_;
  size_t threads_ = 1;
  std::vector<std::unique_ptr<EventQueue>> queues_;
  std::vector<BarrierHook> hooks_;
  std::vector<ShardWindowTask> shard_tasks_;
  std::vector<ShardDrainTask> drain_tasks_;
  Tick now_ = 0;
  uint64_t windows_run_ = 0;
  bool profile_barriers_ = false;
  std::vector<uint32_t> barrier_us_samples_;
  std::vector<uint32_t> drain_phase_us_samples_;
  std::vector<uint32_t> window_us_samples_;

  // Window dispatch, one round trip per window: the coordinator writes
  // target_, resets the two counts and bumps epoch_; each worker runs its
  // shards, crosses the barrier (barrier_count_ counts down to 0, and the
  // last arrival publishes the epoch in barrier_epoch_ — a sense-reversing
  // barrier whose sense is the window epoch), drains, and decrements
  // pending_; the coordinator waits for pending_ == 0. Atomics keep their
  // default (sequentially consistent) order: Wake()'s unlocked read of
  // sleepers_ relies on it against Await()'s increment.
  Tick target_ = 0;
  std::atomic<uint64_t> epoch_{0};
  std::atomic<size_t> barrier_count_{0};
  std::atomic<uint64_t> barrier_epoch_{0};
  std::atomic<size_t> pending_{0};
  std::atomic<bool> shutdown_{false};
  // Parking: a waiter that outlasts its spin increments sleepers_ under
  // park_mu_ and waits on park_cv_; wakers skip the lock while nobody
  // sleeps.
  std::mutex park_mu_;
  std::condition_variable park_cv_;
  std::atomic<uint32_t> sleepers_{0};
  // Declared last: the threads use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace quanto

#endif  // QUANTO_SRC_SIM_SHARDED_SIM_H_
