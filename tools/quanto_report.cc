// quanto-report: analyse a dumped Quanto trace — the offline toolchain the
// paper describes ("we processed Quanto data with a set of tools we wrote
// to parse and visualize the logs", Section 4).
//
// Usage:
//   quanto_report <trace.qnto> [--node N] [--dump] [--read-threads T]
//                 [--time-range T0:T1] [--nodes A,B,...]
//                 [--activity L,...] [--summary] [--index-stats]
//   quanto_report --help
//
// An unknown flag, a flag missing its value, or a flag where the trace
// path belongs prints the usage and exits 2; --help prints it and exits 0.
//
// Prints the Section 2.5 regression (per-state draws + collinearity
// notes), the Table 3-style time and energy breakdowns, and optionally the
// raw decoded entries. Reads go through TraceFileReader: indexed spill
// files decode segment by segment (in parallel with --read-threads N,
// byte-identical output at any N), filters prune to the segments the
// index cannot rule out, --summary answers from the index block without
// decoding any segment, and --index-stats dumps the index version, its
// row bytes and the footer directory. Unindexed files fall back to the
// linear scan everywhere.

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "src/analysis/accounting.h"
#include "src/analysis/streaming.h"
#include "src/analysis/trace.h"
#include "src/analysis/trace_io.h"
#include "src/analysis/trace_reader.h"
#include "src/util/table.h"

namespace quanto {
namespace {

// Matches StreamingPipeline::Options — the summary's footer-derived
// energy uses the same per-pulse calibration as the full regression path.
constexpr double kEnergyPerPulse = 8.33;

std::vector<uint64_t> ParseU64List(const char* arg) {
  std::vector<uint64_t> values;
  const char* p = arg;
  while (*p != '\0') {
    char* end = nullptr;
    values.push_back(std::strtoull(p, &end, 10));
    if (end == p) {
      break;
    }
    p = *end == ',' ? end + 1 : end;
  }
  return values;
}

void PrintSegmentsLine(const ReadStats& stats) {
  std::cout << "segments: " << stats.segments_total << " total, "
            << stats.segments_read << " read, " << stats.segments_skipped
            << " skipped (" << stats.entries_selected << " of "
            << stats.entries_decoded << " decoded entries selected)\n";
}

int IndexStats(const TraceFileReader& reader, const ActivityRegistry& registry) {
  if (!reader.has_index()) {
    std::cout << "no index: " << reader.index_note()
              << " — linear scan required for queries\n";
    return 0;
  }
  const TraceIndex& index = reader.index();
  std::cout << "index: version " << index.version << ", "
            << index.segments.size() << " segments, " << index.total_entries
            << " entries, " << reader.data_bytes() << " data bytes + "
            << (reader.file_size() - reader.data_bytes())
            << " index bytes (" << index.row_bytes << " in segment rows)\n";
  PrintSection(std::cout, "Segment directory");
  TextTable dir({"seg", "offset", "bytes", "entries", "ver", "time range",
                 "origins", "acts"});
  for (size_t i = 0; i < index.segments.size(); ++i) {
    const SegmentFooter& seg = index.segments[i];
    std::string times =
        seg.entries == 0 ? "-"
                         : std::to_string(seg.time_min64) + ".." +
                               std::to_string(seg.time_max64);
    std::string origins =
        seg.origin_min > seg.origin_max
            ? "-"
            : std::to_string(seg.origin_min) + ".." +
                  std::to_string(seg.origin_max);
    dir.AddRow({std::to_string(i), std::to_string(seg.offset),
                std::to_string(seg.length), std::to_string(seg.entries),
                std::to_string(seg.container_version), times, origins,
                std::to_string(seg.activities.size())});
  }
  dir.Print(std::cout);
  PrintSection(std::cout, index.version == kIndexVersionFixedRows
                              ? "Per-activity totals (summed from segment rows)"
                              : "Per-activity totals (from the file totals table)");
  TextTable totals({"activity", "entries", "pulses", "E (mJ)"});
  for (const auto& [act, row] : index.ActivityTotals()) {
    totals.AddRow({registry.Name(act), std::to_string(row.entries),
                   std::to_string(row.pulses),
                   TextTable::Num(static_cast<double>(row.pulses) *
                                      kEnergyPerPulse / 1000.0,
                                  3)});
  }
  totals.Print(std::cout);
  return 0;
}

int Summary(const TraceFileReader& reader, const ActivityRegistry& registry) {
  ReadStats stats;
  auto totals = reader.ActivityTotals(&stats);
  if (!totals.has_value()) {
    std::cerr << "cannot read trace (missing, truncated or wrong format)\n";
    return 1;
  }
  if (reader.has_index()) {
    std::cout << "summary from footers: " << stats.segments_total
              << " segments, 0 decoded\n";
  } else {
    std::cout << "summary from full scan (" << reader.index_note() << "): "
              << stats.segments_total << " segments decoded\n";
  }
  PrintSection(std::cout, "Per-activity totals");
  TextTable table({"activity", "entries", "pulses", "E (mJ)"});
  for (const auto& [act, row] : *totals) {
    table.AddRow({registry.Name(act), std::to_string(row.entries),
                  std::to_string(row.pulses),
                  TextTable::Num(static_cast<double>(row.pulses) *
                                     kEnergyPerPulse / 1000.0,
                                 3)});
  }
  table.Print(std::cout);
  return 0;
}

constexpr char kUsage[] =
    "usage: quanto_report <trace.qnto> [--node N] [--dump]"
    " [--read-threads T] [--time-range T0:T1] [--nodes A,B,...]"
    " [--activity L,...] [--summary] [--index-stats]\n";

int Run(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      std::cout << kUsage;
      return 0;
    }
  }
  if (argc < 2 || argv[1][0] == '-') {
    std::cerr << kUsage;
    return 2;
  }
  std::string path = argv[1];
  node_id_t node = 1;
  bool dump = false;
  bool summary = false;
  bool index_stats = false;
  size_t read_threads = 1;
  TraceQuery query;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--node") == 0 && i + 1 < argc) {
      node = static_cast<node_id_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--dump") == 0) {
      dump = true;
    } else if (std::strcmp(argv[i], "--summary") == 0) {
      summary = true;
    } else if (std::strcmp(argv[i], "--index-stats") == 0) {
      index_stats = true;
    } else if (std::strcmp(argv[i], "--read-threads") == 0 && i + 1 < argc) {
      read_threads = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--time-range") == 0 && i + 1 < argc) {
      const char* spec = argv[++i];
      const char* colon = std::strchr(spec, ':');
      if (colon == nullptr) {
        std::cerr << "--time-range wants T0:T1 (unwrapped ticks)\n";
        return 2;
      }
      query.has_time_range = true;
      query.time_min = std::strtoull(spec, nullptr, 10);
      query.time_max = std::strtoull(colon + 1, nullptr, 10);
    } else if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      for (uint64_t v : ParseU64List(argv[++i])) {
        query.origins.push_back(static_cast<node_id_t>(v));
      }
    } else if (std::strcmp(argv[i], "--activity") == 0 && i + 1 < argc) {
      for (uint64_t v : ParseU64List(argv[++i])) {
        query.activities.push_back(static_cast<act_t>(v));
      }
    } else {
      std::cerr << "unknown flag or missing value: " << argv[i] << "\n"
                << kUsage;
      return 2;
    }
  }

  TraceFileReader reader(path);
  if (!reader.ok()) {
    std::cerr << "cannot read trace from " << path
              << " (missing, truncated or wrong format)\n";
    return 1;
  }
  ActivityRegistry registry;
  if (index_stats) {
    return IndexStats(reader, registry);
  }
  if (summary) {
    return Summary(reader, registry);
  }

  ReadStats stats;
  auto trace = query.Unfiltered()
                   ? reader.ReadAll(read_threads, &stats)
                   : reader.ReadFiltered(query, read_threads, &stats);
  if (!trace.has_value()) {
    std::cerr << "cannot read trace from " << path
              << " (missing, truncated or wrong format)\n";
    return 1;
  }
  if (!query.Unfiltered()) {
    PrintSegmentsLine(stats);
  }
  if (dump) {
    std::cout << DumpTraceText(*trace, registry);
  }

  auto events = TraceParser::Parse(*trace);
  if (events.empty()) {
    std::cerr << "empty trace\n";
    return 1;
  }
  std::cout << trace->size() << " entries spanning "
            << TextTable::Num(
                   TicksToSeconds(events.back().time - events.front().time),
                   2)
            << " s\n";

  // Single-pass streaming regression: entries go straight from the trace
  // file into XᵀWX / XᵀWy accumulation, no interval or design-matrix
  // materialization (results match the batch pipeline bit-for-bit).
  StreamingPipeline::Options stream_opts;
  stream_opts.energy_per_pulse = kEnergyPerPulse;
  StreamingPipeline stream(stream_opts);
  stream.AddAll(*trace);
  auto fit = stream.Solve();
  const auto& columns = stream.columns();
  if (!fit.ok) {
    std::cerr << "regression failed: " << fit.error << "\n";
    return 1;
  }

  PrintSection(std::cout, "Estimated power draws (Section 2.5 regression)");
  TextTable draws({"column", "I (mA)", "P (mW)"});
  for (size_t i = 0; i < columns.size(); ++i) {
    draws.AddRow({columns[i].Name(),
                  TextTable::Num(fit.coefficients[i] / 3.0 / 1000.0, 3),
                  TextTable::Num(fit.coefficients[i] / 1000.0, 3)});
  }
  draws.Print(std::cout);
  for (const std::string& note : fit.notes) {
    std::cout << "  note: " << note << "\n";
  }
  std::cout << "  relative error: "
            << TextTable::Num(fit.relative_error * 100.0, 2) << "%\n";

  ActivityAccountant::Options opts;
  opts.constant_power = fit.coefficients[columns.size() - 1];
  ActivityAccountant accountant(PowerFromColumns(columns, fit.coefficients),
                                opts);
  auto accounts = accountant.Run(events, node);

  PrintSection(std::cout, "Energy by activity");
  TextTable energy({"activity", "E (mJ)"});
  for (act_t act : accounts.Activities()) {
    MicroJoules e = accounts.EnergyByActivity(act);
    if (e > 0.5) {
      energy.AddRow({registry.Name(act), TextTable::Num(e / 1000.0, 3)});
    }
  }
  energy.AddRow({"Const.",
                 TextTable::Num(accounts.constant_energy / 1000.0, 3)});
  energy.AddRow(
      {"Total", TextTable::Num(accounts.TotalEnergy() / 1000.0, 3)});
  energy.Print(std::cout);

  PrintSection(std::cout, "Time by activity on the CPU");
  TextTable cpu({"activity", "time (ms)"});
  for (act_t act : accounts.Activities()) {
    Tick t = accounts.TimeFor(0 /*kSinkCpu*/, act);
    if (t > 0) {
      cpu.AddRow({registry.Name(act),
                  TextTable::Num(TicksToMilliseconds(t), 3)});
    }
  }
  cpu.Print(std::cout);
  return 0;
}

}  // namespace
}  // namespace quanto

int main(int argc, char** argv) { return quanto::Run(argc, argv); }
