#include "src/sim/sharded_sim.h"

#include <algorithm>
#include <chrono>

namespace quanto {
namespace {

// Pause instructions a waiter spins before it parks. About 37 us at the
// ~18 ns per pause of a 4-vCPU Xeon VM: longer than the coordinator's
// serial hooks and the usual arrival skew at the in-pool barrier, so a
// busy run almost never parks, yet short enough that a waiter whose
// partner lost its vCPU soon gives its own core back.
constexpr int kSpinPauses = 2048;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

uint32_t MicrosSince(std::chrono::steady_clock::time_point start) {
  return static_cast<uint32_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

ShardedSimulator::ShardedSimulator(const Config& config) : config_(config) {
  size_t shards = std::max<size_t>(1, config.shards);
  config_.shards = shards;
  if (config_.lookahead == 0) {
    config_.lookahead = 1;
  }
  threads_ = std::min(std::max<size_t>(1, config.threads), shards);
  queues_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    queues_.push_back(std::make_unique<EventQueue>());
  }
  // The coordinating thread is worker 0; spawn the rest.
  for (size_t w = 1; w < threads_; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ShardedSimulator::~ShardedSimulator() {
  shutdown_ = true;
  Wake();
  for (std::thread& t : workers_) {
    t.join();
  }
}

template <typename Ready>
void ShardedSimulator::Await(Ready ready) {
  for (int i = 0; i < kSpinPauses; ++i) {
    if (ready()) {
      return;
    }
    CpuRelax();
  }
  std::unique_lock<std::mutex> lock(park_mu_);
  ++sleepers_;
  park_cv_.wait(lock, ready);
  --sleepers_;
}

void ShardedSimulator::Wake() {
  // The caller's store precedes this load, and a parker's increment of
  // sleepers_ precedes its predicate check (both sequentially consistent),
  // so if this reads 0 the parker is bound to see the store. Otherwise the
  // lock orders the notify after the parker has started waiting.
  if (sleepers_ == 0) {
    return;
  }
  { std::lock_guard<std::mutex> lock(park_mu_); }
  park_cv_.notify_all();
}

void ShardedSimulator::RunShardRange(size_t worker, Tick target) {
  size_t shards = queues_.size();
  size_t begin = worker * shards / threads_;
  size_t end = (worker + 1) * shards / threads_;
  for (size_t s = begin; s < end; ++s) {
    queues_[s]->RunUntil(target);
    // Pre-barrier phase for this shard: once its window is done nothing
    // can touch its motes until the coordinator's hooks (cross-shard
    // effects are mailboxed until then), so shard-local barrier work runs
    // here — concurrently with other shards still in their windows.
    for (const ShardWindowTask& task : shard_tasks_) {
      task(s, target);
    }
  }
}

void ShardedSimulator::RunDrainRange(size_t worker, Tick target) {
  size_t shards = queues_.size();
  size_t begin = worker * shards / threads_;
  size_t end = (worker + 1) * shards / threads_;
  for (size_t s = begin; s < end; ++s) {
    for (const ShardDrainTask& task : drain_tasks_) {
      task(s, target);
    }
  }
}

void ShardedSimulator::CrossBarrier(uint64_t epoch) {
  if (--barrier_count_ == 0) {
    barrier_epoch_ = epoch;
    Wake();
  } else {
    Await([&] { return barrier_epoch_ == epoch; });
  }
}

void ShardedSimulator::RunWindow(Tick target) {
  bool pool = !workers_.empty();
  uint64_t epoch = epoch_ + 1;
  if (pool) {
    target_ = target;
    barrier_count_ = threads_;
    pending_ = workers_.size();
    epoch_ = epoch;
    Wake();
  }
  RunShardRange(0, target);
  if (pool) {
    CrossBarrier(epoch);
  }
  // Inter-window parallel phase: past the barrier every shard is parked
  // at `target`, so every mailbox lane published during the window is
  // complete and frozen. Each shard now consumes its own inbound
  // cross-shard posts (destination-owned, write-local — see
  // AddShardDrainTask) before the serial hooks resume.
  std::chrono::steady_clock::time_point drain_start;
  if (profile_barriers_) {
    drain_start = std::chrono::steady_clock::now();
  }
  RunDrainRange(0, target);
  if (pool) {
    Await([&] { return pending_ == 0; });
  }
  if (profile_barriers_) {
    drain_phase_us_samples_.push_back(
        drain_tasks_.empty() ? 0 : MicrosSince(drain_start));
  }
}

void ShardedSimulator::WorkerLoop(size_t worker) {
  uint64_t seen_epoch = 0;
  for (;;) {
    Await([&] { return shutdown_ || epoch_ != seen_epoch; });
    if (shutdown_) {
      return;
    }
    seen_epoch = epoch_;
    Tick target = target_;
    RunShardRange(worker, target);
    CrossBarrier(seen_epoch);
    RunDrainRange(worker, target);
    if (--pending_ == 0) {
      Wake();
    }
  }
}

uint64_t ShardedSimulator::RunUntil(Tick end) {
  uint64_t executed_before = executed_count();
  while (now_ < end) {
    std::chrono::steady_clock::time_point window_start;
    if (profile_barriers_) {
      window_start = std::chrono::steady_clock::now();
    }
    // Place the window. The lookahead guarantee only has to cover ticks
    // where events can run, so a globally idle gap can be skipped: if no
    // shard has anything before `bound`, the window may end as late as
    // bound-1+W while still never executing more than W ticks of busy
    // time — and every cross-shard post made inside it still delivers
    // strictly after it.
    Tick bound = EventQueue::kNoEventTime;
    for (const auto& q : queues_) {
      bound = std::min(bound, q->NextEventLowerBound());
    }
    Tick base = now_;
    if (bound == EventQueue::kNoEventTime) {
      base = end;  // Nothing pending anywhere: one final empty window.
    } else if (bound > now_ + 1) {
      base = std::min(bound - 1, end);
    }
    Tick target = std::min(end, base + config_.lookahead);
    if (target > end || target <= now_) {
      target = end;
    }

    RunWindow(target);

    // Barrier: all shards parked at `target`, drain phase complete.
    // Exchange remaining cross-shard effects (and any other per-window
    // bookkeeping) single-threaded, in registration order — identical at
    // every thread count.
    if (profile_barriers_) {
      auto hooks_start = std::chrono::steady_clock::now();
      for (const BarrierHook& hook : hooks_) {
        hook(target);
      }
      auto hooks_stop = std::chrono::steady_clock::now();
      barrier_us_samples_.push_back(static_cast<uint32_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              hooks_stop - hooks_start)
              .count()));
      window_us_samples_.push_back(static_cast<uint32_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              hooks_stop - window_start)
              .count()));
    } else {
      for (const BarrierHook& hook : hooks_) {
        hook(target);
      }
    }
    now_ = target;
    ++windows_run_;
  }
  return executed_count() - executed_before;
}

uint64_t ShardedSimulator::executed_count() const {
  uint64_t total = 0;
  for (const auto& q : queues_) {
    total += q->executed_count();
  }
  return total;
}

}  // namespace quanto
