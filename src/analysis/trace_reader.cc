#include "src/analysis/trace_reader.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <thread>

#include "src/analysis/trace_io.h"

namespace quanto {

namespace {

// One worker's reusable buffers: a segment's bytes as read, and its
// decoded entries where a job filters them before keeping any.
struct SegmentScratch {
  std::vector<uint8_t> bytes;
  std::vector<LogEntry> entries;
};

// Runs `fn(job, scratch)` for jobs [0, jobs) across `threads` workers,
// each with its own SegmentScratch. Jobs are claimed from a shared
// counter — which segment a worker decodes is scheduling-dependent, but
// every job writes only its own precomputed output slot, so the assembled
// result is not. Stops early (and returns false) once any job fails.
bool RunSegmentJobs(size_t threads, size_t jobs,
                    const std::function<bool(size_t, SegmentScratch*)>& fn) {
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  auto worker = [&]() {
    SegmentScratch scratch;
    for (;;) {
      size_t job = next.fetch_add(1, std::memory_order_relaxed);
      if (job >= jobs || failed.load(std::memory_order_relaxed)) {
        break;
      }
      if (!fn(job, &scratch)) {
        failed.store(true, std::memory_order_relaxed);
        break;
      }
    }
  };
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (size_t t = 0; t < threads; ++t) {
      pool.emplace_back(worker);
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }
  return !failed.load();
}

size_t ClampThreads(size_t threads, size_t jobs) {
  if (threads == 0) {
    threads = 1;
  }
  return std::min(threads, jobs == 0 ? size_t{1} : jobs);
}

// The unwrap chain state at a segment's first entry, reconstructed from
// its footer: time_min64 *is* that entry's unwrapped time, so the high
// word and the previous-timestamp register follow directly.
StreamIngestState SeedFromFooter(const SegmentFooter& footer) {
  StreamIngestState state;
  state.high = footer.time_min64 & ~uint64_t{0xFFFFFFFF};
  state.prev = static_cast<uint32_t>(footer.time_min64);
  state.first = false;
  return state;
}

// Exact entry-level filter (see TraceQuery); `origins` and `activities`
// are the query's lists, pre-sorted.
bool EntryMatches(const TraceQuery& q, const std::vector<node_id_t>& origins,
                  const std::vector<act_t>& activities, const LogEntry& e,
                  uint64_t t64) {
  if (q.has_time_range && (t64 < q.time_min || t64 > q.time_max)) {
    return false;
  }
  if (!origins.empty() &&
      (!IsActivityEntry(e) ||
       !std::binary_search(origins.begin(), origins.end(),
                           ActivityOrigin(e.payload)))) {
    return false;
  }
  if (!activities.empty()) {
    // A copy: binary_search's reference must not bind to the packed field.
    act_t act = e.payload;
    if (!IsActivityEntry(e) ||
        !std::binary_search(activities.begin(), activities.end(), act)) {
      return false;
    }
  }
  return true;
}

// Can the footer rule the whole segment out of the query?
bool SegmentMayMatch(const TraceQuery& q,
                     const std::vector<node_id_t>& origins,
                     const std::vector<act_t>& activities,
                     const SegmentFooter& seg) {
  if (seg.entries == 0) {
    return false;
  }
  if (q.has_time_range && !seg.OverlapsTime(q.time_min, q.time_max)) {
    return false;
  }
  if (!origins.empty()) {
    bool any = false;
    for (node_id_t origin : origins) {
      if (seg.MayContainOrigin(origin)) {
        any = true;
        break;
      }
    }
    if (!any) {
      return false;
    }
  }
  if (!activities.empty()) {
    bool any = false;
    for (act_t act : activities) {
      // Only rows with stored entries prove the label appears in the
      // segment (a row can exist purely for attributed pulses).
      std::optional<ActivitySummary> row = seg.activities.Find(act);
      if (row.has_value() && row->entries > 0) {
        any = true;
        break;
      }
    }
    if (!any) {
      return false;
    }
  }
  return true;
}

}  // namespace

TraceFileReader::TraceFileReader(const std::string& path) {
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) {
    return;
  }
  struct stat st;
  if (::fstat(fd_, &st) != 0 ||
      static_cast<uint64_t>(st.st_size) < kTraceContainerHeaderBytes) {
    ::close(fd_);
    fd_ = -1;
    return;
  }
  file_size_ = static_cast<uint64_t>(st.st_size);
  data_bytes_ = file_size_;
  uint8_t tail[kIndexTrailerBytes];
  if (!ReadAt(file_size_ - kIndexTrailerBytes, kIndexTrailerBytes, tail)) {
    index_note_ = "no index trailer";
    return;
  }
  uint64_t index_bytes = ProbeIndexTrailer(tail, file_size_);
  if (index_bytes == 0) {
    index_note_ = "no index trailer";
    return;
  }
  std::vector<uint8_t> block(index_bytes);
  std::optional<TraceIndex> parsed;
  if (ReadAt(file_size_ - index_bytes, index_bytes, block.data())) {
    parsed = ParseTraceIndex(block.data(), index_bytes,
                             file_size_ - index_bytes);
  }
  if (!parsed.has_value()) {
    index_note_ = "index rejected: trailer present but block invalid";
    return;
  }
  index_ = std::move(*parsed);
  has_index_ = true;
  data_bytes_ = file_size_ - index_bytes;
}

TraceFileReader::~TraceFileReader() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

bool TraceFileReader::ReadAt(uint64_t offset, size_t size,
                             uint8_t* out) const {
  size_t done = 0;
  while (done < size) {
    ssize_t n = ::pread(fd_, out + done, size - done,
                        static_cast<off_t>(offset + done));
    if (n <= 0) {
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

bool TraceFileReader::DecodeSegment(const SegmentFooter& footer,
                                    std::vector<uint8_t>* scratch,
                                    LogEntry* out) const {
  scratch->resize(footer.length);
  if (!ReadAt(footer.offset, footer.length, scratch->data())) {
    return false;
  }
  uint16_t version;
  uint32_t count;
  if (!ParseTraceSegmentHeader(scratch->data(), scratch->size(), &version,
                               &count) ||
      version != footer.container_version || count != footer.entries) {
    return false;  // Segment contradicts its footer.
  }
  DecodeTraceRecords(version, scratch->data() + kTraceContainerHeaderBytes,
                     count, out);
  return true;
}

std::optional<std::vector<LogEntry>> TraceFileReader::ReadLinear(
    uint64_t* segments) const {
  std::vector<uint8_t> blob(data_bytes_);
  if (!ReadAt(0, data_bytes_, blob.data())) {
    return std::nullopt;
  }
  std::vector<LogEntry> entries;
  size_t offset = 0;
  uint64_t segs = 0;
  while (true) {
    uint16_t version;
    uint32_t count;
    bool parsed = false;
    if (ParseTraceSegmentHeader(blob.data() + offset, blob.size() - offset,
                                &version, &count)) {
      size_t entry_bytes = TraceContainerEntryBytes(version);
      if (blob.size() - offset - kTraceContainerHeaderBytes >=
          static_cast<size_t>(count) * entry_bytes) {
        size_t have = entries.size();
        entries.resize(have + count);
        DecodeTraceRecords(version,
                           blob.data() + offset + kTraceContainerHeaderBytes,
                           count, entries.data() + have);
        offset += kTraceContainerHeaderBytes +
                  static_cast<size_t>(count) * entry_bytes;
        ++segs;
        parsed = true;
      }
    }
    if (!parsed) {
      // Same damaged-index tolerance as DeserializeTrace: a leftover tail
      // that is the remains of an index block is ignored, anything else
      // is a broken dump.
      if (segs > 0 &&
          LooksLikeIndexBlock(blob.data() + offset, blob.size() - offset)) {
        break;
      }
      return std::nullopt;
    }
    if (offset >= blob.size()) {
      break;
    }
  }
  if (segments != nullptr) {
    *segments = segs;
  }
  return entries;
}

std::optional<std::vector<LogEntry>> TraceFileReader::ReadAll(
    size_t threads, ReadStats* stats) const {
  if (!ok()) {
    return std::nullopt;
  }
  if (!has_index_) {
    uint64_t segs = 0;
    auto entries = ReadLinear(&segs);
    if (entries.has_value() && stats != nullptr) {
      stats->segments_total = segs;
      stats->segments_read = segs;
      stats->entries_decoded = entries->size();
      stats->entries_selected = entries->size();
    }
    return entries;
  }
  const std::vector<SegmentFooter>& segs = index_.segments;
  // Disjoint output ranges: segment i decodes into
  // out[prefix[i], prefix[i] + entries).
  std::vector<uint64_t> prefix(segs.size() + 1, 0);
  for (size_t i = 0; i < segs.size(); ++i) {
    prefix[i + 1] = prefix[i] + segs[i].entries;
  }
  std::vector<LogEntry> out(prefix.back());
  bool decoded = RunSegmentJobs(
      ClampThreads(threads, segs.size()), segs.size(),
      [&](size_t i, SegmentScratch* scratch) {
        return DecodeSegment(segs[i], &scratch->bytes, out.data() + prefix[i]);
      });
  if (!decoded) {
    return std::nullopt;
  }
  if (stats != nullptr) {
    stats->segments_total = segs.size();
    stats->segments_read = segs.size();
    stats->entries_decoded = out.size();
    stats->entries_selected = out.size();
  }
  return out;
}

std::optional<std::vector<LogEntry>> TraceFileReader::ReadFiltered(
    const TraceQuery& query, size_t threads, ReadStats* stats) const {
  if (!ok()) {
    return std::nullopt;
  }
  std::vector<node_id_t> origins = query.origins;
  std::sort(origins.begin(), origins.end());
  std::vector<act_t> activities = query.activities;
  std::sort(activities.begin(), activities.end());

  if (!has_index_) {
    // Linear fallback: decode everything, filter with the one global
    // unwrap chain (identical to the per-segment seeded chains below —
    // a segment's seed is exactly the chain state at its first entry).
    uint64_t segs = 0;
    auto entries = ReadLinear(&segs);
    if (!entries.has_value()) {
      return std::nullopt;
    }
    std::vector<LogEntry> selected;
    StreamIngestState chain;
    for (const LogEntry& e : *entries) {
      uint64_t t64 = chain.Unwrap(e);
      if (EntryMatches(query, origins, activities, e, t64)) {
        selected.push_back(e);
      }
    }
    if (stats != nullptr) {
      stats->segments_total = segs;
      stats->segments_read = segs;
      stats->entries_decoded = entries->size();
      stats->entries_selected = selected.size();
    }
    return selected;
  }

  const std::vector<SegmentFooter>& segs = index_.segments;
  std::vector<size_t> candidates;
  uint64_t pruned_entries = 0;
  for (size_t i = 0; i < segs.size(); ++i) {
    if (SegmentMayMatch(query, origins, activities, segs[i])) {
      candidates.push_back(i);
      pruned_entries += segs[i].entries;
    }
  }
  std::vector<std::vector<LogEntry>> slots(candidates.size());
  bool decoded = RunSegmentJobs(
      ClampThreads(threads, candidates.size()), candidates.size(),
      [&](size_t j, SegmentScratch* scratch) {
        const SegmentFooter& footer = segs[candidates[j]];
        std::vector<LogEntry>& entries = scratch->entries;
        entries.resize(footer.entries);
        if (!DecodeSegment(footer, &scratch->bytes, entries.data())) {
          return false;
        }
        StreamIngestState chain = SeedFromFooter(footer);
        std::vector<LogEntry>& kept = slots[j];
        for (const LogEntry& e : entries) {
          uint64_t t64 = chain.Unwrap(e);
          if (EntryMatches(query, origins, activities, e, t64)) {
            kept.push_back(e);
          }
        }
        return true;
      });
  if (!decoded) {
    return std::nullopt;
  }
  size_t kept_total = 0;
  for (const std::vector<LogEntry>& kept : slots) {
    kept_total += kept.size();
  }
  std::vector<LogEntry> selected;
  selected.reserve(kept_total);
  for (const std::vector<LogEntry>& kept : slots) {
    selected.insert(selected.end(), kept.begin(), kept.end());
  }
  if (stats != nullptr) {
    stats->segments_total = segs.size();
    stats->segments_read = candidates.size();
    stats->segments_skipped = segs.size() - candidates.size();
    stats->entries_decoded = pruned_entries;
    stats->entries_selected = selected.size();
  }
  return selected;
}

std::optional<std::map<act_t, ActivitySummary>> TraceFileReader::ActivityTotals(
    ReadStats* stats) const {
  if (!ok()) {
    return std::nullopt;
  }
  if (has_index_) {
    if (stats != nullptr) {
      stats->segments_total = index_.segments.size();
      stats->segments_read = 0;
      stats->segments_skipped = index_.segments.size();
    }
    return index_.ActivityTotals();
  }
  uint64_t segs = 0;
  auto entries = ReadLinear(&segs);
  if (!entries.has_value()) {
    return std::nullopt;
  }
  if (stats != nullptr) {
    stats->segments_total = segs;
    stats->segments_read = segs;
    stats->entries_decoded = entries->size();
  }
  return TraceIndexBuilder::ScanActivityTotals(*entries);
}

uint64_t EntryStreamHash(const std::vector<LogEntry>& entries) {
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  for (const LogEntry& e : entries) {
    mix(e.type, 1);
    mix(e.res_id, 1);
    mix(e.time, 4);
    mix(e.icount, 4);
    mix(e.payload, 8);
  }
  return h;
}

}  // namespace quanto
