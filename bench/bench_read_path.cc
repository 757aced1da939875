// bench_read_path: the read-side counterpart of bench_scale_multihop —
// times opening a spill file (reading and validating its index), full
// decodes at several reader thread counts, proves the decoded stream
// identical to the linear reference (hash), and measures index-driven
// segment skipping for a time-range query, an activity query and the
// footer-only summary query.
//
// Usage:
//   bench_read_path --trace FILE [--threads 1,2,4] [--time-frac 0.1]
//                   [--repeat N] [--max-rss-mb M] [--json read_path.json]
//   An unknown flag, or a flag missing its value, prints the usage and
//   exits 2 before anything runs; --help prints it and exits 0.
//
// The input is typically the indexed spill a streamed bench run wrote
// (bench_scale_multihop --stream-traces --trace ...). Exit is nonzero
// when any guard trips: hash divergence between thread counts or against
// the linear reader, a time-range query covering <= 10% of the run that
// decodes more than 25% of the segments, an activity query that decodes
// any segment other than those whose index rows hold entries for its
// labels (or returns other entries than the linear stream's), or peak RSS
// above --max-rss-mb — so CI catches read-path regressions the same way
// it catches write-path ones. run_benchmarks.sh stamps this bench's JSON
// into BENCH_scale.json as the read_summary block.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/trace_io.h"
#include "src/analysis/trace_merge.h"
#include "src/analysis/trace_reader.h"

namespace quanto {
namespace {

size_t PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<size_t>(usage.ru_maxrss) / 1024;  // KB on Linux.
}

std::string HashHex(uint64_t hash) {
  std::ostringstream out;
  out << std::hex << hash;
  return out.str();
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct FullRead {
  size_t threads = 0;
  double wall_s = 0.0;
  uint64_t hash = 0;
  uint64_t entries = 0;
};

// Where the activity query's two labels sit in the middle segment's
// sorted label list.
constexpr double kActivityFractions[] = {0.25, 0.75};

// The activity query's outcome and what its labels' index rows predict.
struct ActivityQueryCheck {
  ReadStats stats;
  uint64_t segments_expected = 0;
  uint64_t entries_expected = 0;
  double wall_s = 0.0;
};

std::string JoinLabels(const std::vector<act_t>& labels) {
  std::string out;
  for (act_t label : labels) {
    out += (out.empty() ? "" : ", ") + std::to_string(label);
  }
  return out;
}

constexpr char kUsage[] =
    "usage: bench_read_path --trace FILE [--threads 1,2,4]"
    " [--time-frac 0.1] [--repeat N] [--max-rss-mb M]"
    " [--json read_path.json]\n";

int Run(int argc, char** argv) {
  std::string trace_path;
  std::string json_path = "read_path.json";
  std::vector<size_t> thread_sweep = {1, 2, 4};
  double time_frac = 0.1;
  size_t repeat = 1;
  size_t max_rss_mb = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      thread_sweep.clear();
      const char* p = argv[++i];
      while (*p != '\0') {
        char* end = nullptr;
        long n = std::strtol(p, &end, 10);
        if (end == p || n <= 0) {
          break;
        }
        thread_sweep.push_back(static_cast<size_t>(n));
        p = *end == ',' ? end + 1 : end;
      }
    } else if (std::strcmp(argv[i], "--time-frac") == 0 && i + 1 < argc) {
      time_frac = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = static_cast<size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--max-rss-mb") == 0 && i + 1 < argc) {
      max_rss_mb = static_cast<size_t>(std::atol(argv[++i]));
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
  if (trace_path.empty() || thread_sweep.empty()) {
    std::cerr << kUsage;
    return 2;
  }
  if (repeat == 0) {
    repeat = 1;
  }

  double open_start = Now();
  TraceFileReader reader(trace_path);
  double open_s = Now() - open_start;
  if (!reader.ok()) {
    std::cerr << "cannot open " << trace_path << "\n";
    return 1;
  }
  std::cout << "trace " << trace_path << ": " << reader.file_size()
            << " bytes, index "
            << (reader.has_index()
                    ? std::to_string(reader.index().segments.size()) +
                          " segments"
                    : "absent (" + reader.index_note() + ")")
            << ", opened in " << open_s << " s\n";

  // Linear reference: the whole-blob slurp every reader before this PR
  // used. Its entry stream is the byte-identity anchor, and its first and
  // last unwrapped timestamps define the run span the time-range query
  // cuts from.
  double linear_start = Now();
  auto reference = ReadTraceFile(trace_path);
  double linear_wall = Now() - linear_start;
  if (!reference.has_value()) {
    std::cerr << "linear reader failed on " << trace_path << "\n";
    return 1;
  }
  uint64_t reference_hash = EntryStreamHash(*reference);
  uint64_t t_min = 0;
  uint64_t t_max = 0;
  {
    StreamIngestState chain;
    bool first = true;
    for (const LogEntry& e : *reference) {
      uint64_t t64 = chain.Unwrap(e);
      if (first) {
        t_min = t64;
        first = false;
      }
      t_max = t64;
    }
  }
  std::cout << "  linear: " << reference->size() << " entries in "
            << linear_wall << " s (hash " << HashHex(reference_hash) << ")\n";

  bool failed = false;
  bool hashes_equal = true;

  // Full parallel decodes.
  std::vector<FullRead> full_reads;
  for (size_t threads : thread_sweep) {
    FullRead row;
    row.threads = threads;
    row.wall_s = -1.0;
    for (size_t r = 0; r < repeat; ++r) {
      double start = Now();
      ReadStats stats;
      auto entries = reader.ReadAll(threads, &stats);
      double wall = Now() - start;
      if (!entries.has_value()) {
        std::cerr << "ReadAll(" << threads << ") failed\n";
        return 1;
      }
      if (row.wall_s < 0.0 || wall < row.wall_s) {
        row.wall_s = wall;
      }
      row.hash = EntryStreamHash(*entries);
      row.entries = entries->size();
    }
    std::cout << "  read " << row.threads << "t: " << row.entries
              << " entries in " << row.wall_s << " s (hash "
              << HashHex(row.hash) << ")\n";
    if (row.hash != reference_hash || row.entries != reference->size()) {
      std::cerr << "  FAIL: " << threads
                << "-thread decode diverges from the linear reader\n";
      failed = true;
      hashes_equal = false;
    }
    full_reads.push_back(row);
  }

  // Time-range query over the middle `time_frac` of the run.
  uint64_t span = t_max - t_min;
  TraceQuery range_query;
  range_query.has_time_range = true;
  range_query.time_min =
      t_min + static_cast<uint64_t>(static_cast<double>(span) *
                                    (0.5 - time_frac / 2.0));
  range_query.time_max =
      range_query.time_min +
      static_cast<uint64_t>(static_cast<double>(span) * time_frac);
  double range_start = Now();
  ReadStats range_stats;
  auto range_entries =
      reader.ReadFiltered(range_query, thread_sweep.back(), &range_stats);
  double range_wall = Now() - range_start;
  if (!range_entries.has_value()) {
    std::cerr << "time-range query failed\n";
    return 1;
  }
  std::cout << "  time-range " << time_frac << ": " << range_stats.segments_read
            << "/" << range_stats.segments_total << " segments read ("
            << range_stats.segments_skipped << " skipped), "
            << range_entries->size() << " entries in " << range_wall << " s\n";
  // Pruning guard: a <= 10% slice of the run must decode <= 25% of the
  // segments (boundary segments make strict proportionality impossible;
  // 2.5x covers them as soon as the file has a handful of segments).
  if (reader.has_index() && time_frac <= 0.10 &&
      range_stats.segments_total >= 20 &&
      range_stats.segments_read * 4 > range_stats.segments_total) {
    std::cerr << "  FAIL: time-range covering " << time_frac
              << " of the run decoded " << range_stats.segments_read << "/"
              << range_stats.segments_total << " segments (> 25%)\n";
    failed = true;
  }

  // Activity query: two labels from the middle segment's rows, picked the
  // way perfbench picks them (a fraction into the segment's label list).
  // The segments it may decode are exactly those whose rows hold entries
  // for either label, found here by walking every row rather than by the
  // lookup the reader prunes with.
  TraceQuery activity_query;
  ActivityQueryCheck activity;
  if (reader.has_index() && !reader.index().segments.empty()) {
    const std::vector<SegmentFooter>& segs = reader.index().segments;
    std::vector<act_t> labels;
    for (const auto& row : segs[segs.size() / 2].activities) {
      labels.push_back(row.first);
    }
    for (double frac : kActivityFractions) {
      size_t i = static_cast<size_t>(frac * labels.size());
      if (i < labels.size()) {
        activity_query.activities.push_back(labels[i]);
      }
    }
  }
  if (!activity_query.activities.empty()) {
    const std::vector<act_t>& wanted = activity_query.activities;
    for (const SegmentFooter& seg : reader.index().segments) {
      bool holds = false;
      for (const auto& [act, row] : seg.activities) {
        holds |= row.entries > 0 &&
                 std::find(wanted.begin(), wanted.end(), act) != wanted.end();
      }
      if (holds) {
        ++activity.segments_expected;
        activity.entries_expected += seg.entries;
      }
    }
    std::vector<LogEntry> want;
    for (const LogEntry& e : *reference) {
      act_t act = e.payload;
      if (IsActivityEntry(e) &&
          std::find(wanted.begin(), wanted.end(), act) != wanted.end()) {
        want.push_back(e);
      }
    }
    double activity_start = Now();
    auto hits = reader.ReadFiltered(activity_query, thread_sweep.back(),
                                    &activity.stats);
    activity.wall_s = Now() - activity_start;
    if (!hits.has_value()) {
      std::cerr << "activity query failed\n";
      return 1;
    }
    std::cout << "  activity (" << wanted.size() << " labels): "
              << activity.stats.segments_read << "/"
              << activity.stats.segments_total << " segments read ("
              << activity.segments_expected << " hold the labels), "
              << hits->size() << " entries in " << activity.wall_s << " s\n";
    if (activity.stats.segments_read != activity.segments_expected ||
        activity.stats.entries_decoded != activity.entries_expected) {
      std::cerr << "  FAIL: activity query decoded "
                << activity.stats.segments_read << " segments ("
                << activity.stats.entries_decoded << " entries), but "
                << activity.segments_expected << " segments ("
                << activity.entries_expected
                << " entries) hold entries for its labels\n";
      failed = true;
    }
    if (hits->size() != want.size() ||
        EntryStreamHash(*hits) != EntryStreamHash(want)) {
      std::cerr << "  FAIL: activity query returned " << hits->size()
                << " entries, the linear stream holds " << want.size()
                << "\n";
      failed = true;
    }
  }

  // Footer-only summary query.
  double summary_start = Now();
  ReadStats summary_stats;
  auto totals = reader.ActivityTotals(&summary_stats);
  double summary_wall = Now() - summary_start;
  if (!totals.has_value()) {
    std::cerr << "summary query failed\n";
    return 1;
  }
  std::cout << "  summary: " << totals->size() << " activities from "
            << summary_stats.segments_read << " decoded segments in "
            << summary_wall << " s\n";
  if (reader.has_index() && summary_stats.segments_read != 0) {
    std::cerr << "  FAIL: footer-only summary decoded segments\n";
    failed = true;
  }

  size_t peak_rss = PeakRssMb();
  std::cout << "  peak RSS " << peak_rss << " MB\n";
  if (max_rss_mb > 0 && peak_rss > max_rss_mb) {
    std::cerr << "  FAIL: peak RSS " << peak_rss << " MB exceeds guard "
              << max_rss_mb << " MB\n";
    failed = true;
  }

  std::ofstream json(json_path, std::ios::trunc);
  json << "{\n  \"trace\": \"" << trace_path << "\",\n"
       << "  \"file_bytes\": " << reader.file_size() << ",\n"
       << "  \"data_bytes\": " << reader.data_bytes() << ",\n"
       << "  \"index_bytes\": " << (reader.file_size() - reader.data_bytes())
       << ",\n"
       << "  \"has_index\": " << (reader.has_index() ? "true" : "false")
       << ",\n"
       << "  \"segments\": "
       << (reader.has_index() ? reader.index().segments.size() : 0) << ",\n"
       << "  \"open_s\": " << open_s << ",\n"
       << "  \"entries\": " << reference->size() << ",\n"
       << "  \"linear_wall_s\": " << linear_wall << ",\n"
       << "  \"hash\": \"" << HashHex(reference_hash) << "\",\n"
       << "  \"hash_equal\": " << (hashes_equal ? "true" : "false") << ",\n"
       << "  \"full_reads\": [";
  for (size_t i = 0; i < full_reads.size(); ++i) {
    const FullRead& row = full_reads[i];
    json << (i == 0 ? "" : ", ") << "{\"threads\": " << row.threads
         << ", \"wall_s\": " << row.wall_s << ", \"hash\": \""
         << HashHex(row.hash) << "\"}";
  }
  json << "],\n"
       << "  \"time_range\": {\"fraction\": " << time_frac
       << ", \"t0\": " << range_query.time_min
       << ", \"t1\": " << range_query.time_max
       << ", \"segments_total\": " << range_stats.segments_total
       << ", \"segments_read\": " << range_stats.segments_read
       << ", \"segments_skipped\": " << range_stats.segments_skipped
       << ", \"entries_selected\": " << range_stats.entries_selected
       << ", \"wall_s\": " << range_wall << "},\n"
       << "  \"activity_query\": {\"labels\": ["
       << JoinLabels(activity_query.activities) << "]"
       << ", \"segments_total\": " << activity.stats.segments_total
       << ", \"segments_read\": " << activity.stats.segments_read
       << ", \"segments_expected\": " << activity.segments_expected
       << ", \"entries_decoded\": " << activity.stats.entries_decoded
       << ", \"entries_selected\": " << activity.stats.entries_selected
       << ", \"wall_s\": " << activity.wall_s << "},\n"
       << "  \"summary_query\": {\"segments_read\": "
       << summary_stats.segments_read << ", \"activities\": " << totals->size()
       << ", \"wall_s\": " << summary_wall << "},\n"
       << "  \"peak_rss_mb\": " << peak_rss << "\n}\n";
  std::cout << "wrote " << json_path << "\n";
  return failed ? 1 : 0;
}

}  // namespace
}  // namespace quanto

int main(int argc, char** argv) { return quanto::Run(argc, argv); }
