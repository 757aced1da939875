#include "src/analysis/emission_pipeline.h"

#include <chrono>

namespace quanto {

EmissionPipeline::EmissionPipeline(StreamingTraceMerger* merger,
                                   size_t max_depth)
    : merger_(merger), max_depth_(max_depth < 1 ? 1 : max_depth) {
  consumer_ = std::thread([this] { ConsumerLoop(); });
}

EmissionPipeline::~EmissionPipeline() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  if (consumer_.joinable()) {
    consumer_.join();
  }
}

void EmissionPipeline::SubmitWindow(std::vector<ShardRun>&& runs,
                                    uint64_t watermark, bool profile) {
  std::unique_lock<std::mutex> lock(mu_);
  if (queue_.size() >= max_depth_) {
    // Backpressure: the consumer is max_depth hand-offs behind. This is the
    // only path by which the backend slows the simulation, so the time is
    // accounted — a persistently growing consumer_stall_us means the
    // merge is the bottleneck, not the barrier.
    auto stall_start = std::chrono::steady_clock::now();
    cv_space_.wait(lock, [&] { return queue_.size() < max_depth_; });
    consumer_stall_us_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - stall_start)
            .count());
  }
  queued_runs_ += runs.size();
  if (queued_runs_ > runs_queued_peak_) {
    runs_queued_peak_ = queued_runs_;
  }
  queue_.push_back(WindowBatch{std::move(runs), watermark, profile});
  ++windows_submitted_;
  cv_work_.notify_one();
}

bool EmissionPipeline::TakeRetiredRun(std::vector<MergedEntry>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (retired_runs_.empty()) {
    return false;
  }
  *out = std::move(retired_runs_.back());
  retired_runs_.pop_back();
  return true;
}

bool EmissionPipeline::TakeRetiredBatch(std::vector<ShardRun>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (retired_batches_.empty()) {
    return false;
  }
  *out = std::move(retired_batches_.back());
  retired_batches_.pop_back();
  out->clear();
  return true;
}

void EmissionPipeline::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [&] { return queue_.empty() && !busy_; });
}

uint64_t EmissionPipeline::consumer_stall_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return consumer_stall_us_;
}

size_t EmissionPipeline::runs_queued_peak() const {
  std::lock_guard<std::mutex> lock(mu_);
  return runs_queued_peak_;
}

uint64_t EmissionPipeline::windows_submitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return windows_submitted_;
}

uint64_t EmissionPipeline::windows_consumed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return windows_consumed_;
}

std::vector<uint32_t> EmissionPipeline::merge_us_samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return merge_us_samples_;
}

void EmissionPipeline::ConsumerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_work_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      return;  // stop_ set and nothing left: clean exit, no merge loss.
    }
    WindowBatch batch = std::move(queue_.front());
    queue_.pop_front();
    busy_ = true;
    // A slot freed the moment the batch left the queue; wake a stalled
    // producer before the (long) merge so the overlap actually overlaps.
    cv_space_.notify_all();
    lock.unlock();

    std::chrono::steady_clock::time_point start;
    if (batch.profile) {
      start = std::chrono::steady_clock::now();
    }
    // The producer's call sequence, replayed: runs in submission
    // (ascending shard) order, then the watermark advance that emits,
    // hashes and feeds the emit hook. Byte-identical output follows.
    for (ShardRun& sr : batch.runs) {
      merger_->OnRun(sr.shard, std::move(sr.run));
    }
    merger_->AdvanceWatermark(batch.watermark);
    // Harvest fully-emitted run buffers while this thread owns the
    // merger; they cross back to the producer through retired_runs_.
    std::vector<std::vector<MergedEntry>> harvested;
    merger_->TakeRetiredRuns(&harvested);
    uint32_t merge_us = 0;
    if (batch.profile) {
      merge_us = static_cast<uint32_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
    }
    size_t consumed_runs = batch.runs.size();
    batch.runs.clear();

    lock.lock();
    if (batch.profile) {
      merge_us_samples_.push_back(merge_us);
    }
    for (std::vector<MergedEntry>& buf : harvested) {
      retired_runs_.push_back(std::move(buf));
    }
    retired_batches_.push_back(std::move(batch.runs));
    queued_runs_ -= consumed_runs;
    busy_ = false;
    ++windows_consumed_;
    if (queue_.empty()) {
      cv_idle_.notify_all();
    }
  }
}

}  // namespace quanto
