// quanto_perf: one measured process of the repository benchmark. run.py
// starts a fresh process for every write and every read so that no run
// inherits another's heap, page placement or peak RSS (see README.md).
//
//   quanto_perf write --topology grid|chain --motes N --sinks K
//                     --warmup-ms W --span-ms D --threads T --spill PATH
//                     [--profile] [--series PATH]
//   quanto_perf read  --spill PATH --threads T --min-s S
//                     [--query SPEC]...
//
// write: builds the sharded LPL relay network (8 shards, T workers,
// streamed pre-merged collection with async emission into an indexed
// FileTraceSink spill), runs the set-up span and then the timed span.
// --profile switches on the program's own per-window profiling
// (EnableBarrierProfiling, EnableDrainProfiling,
// ScaleNetworkConfig::profile_barrier); --series writes those per-window
// series, restricted to the timed span, as JSON.
//
// read: opens the spill with TraceFileReader and times open + ReadAll,
// then a batch of queries, each repeated until --min-s seconds of work
// (at least once). Query SPECs:
//   range:START:WIDTH   time slice, as fractions of the spill's time span
//   origin:ID,ID,...    activity entries whose label origin is listed
//   activity:F,F,...    labels picked at fractions of the sorted label set
//   totals              ActivityTotals (footer-only summary)
// Every query result is compared, outside the timing, with the same
// filter applied to the full scan, which is computed before the queries
// run and then released.
//
// Each process prints one JSON object on stdout: its measurements, its
// counters, and the spans (name, start, end, parent) the runner recorded
// around every call it made into the program. Timings are taken only
// around those calls, with std::chrono::steady_clock.

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/emission_pipeline.h"
#include "src/analysis/trace_index.h"
#include "src/analysis/trace_io.h"
#include "src/analysis/trace_merge.h"
#include "src/analysis/trace_reader.h"
#include "src/apps/scale_network.h"
#include "src/net/medium.h"
#include "src/sim/sharded_sim.h"

namespace quanto {
namespace {

constexpr size_t kShards = 8;
// Per-mote RAM ring in streamed mode; one lockstep window must fit.
constexpr size_t kStreamLogCapacity = 1024;

const char kUsage[] =
    "usage: quanto_perf write --topology grid|chain --motes N --sinks K\n"
    "                         --warmup-ms W --span-ms D --threads T\n"
    "                         --spill PATH [--profile] [--series PATH]\n"
    "       quanto_perf read --spill PATH --threads T --min-s S\n"
    "                        [--query SPEC]...\n";

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr, "quanto_perf: %s\n%s", why.c_str(), kUsage);
  std::exit(2);
}

// Spans around the runner's calls into the program, kept in memory and
// printed with the process result.
class SpanLog {
 public:
  int Begin(const char* name, int parent) {
    spans_.push_back(Span{name, Now(), 0.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  // Closes span `id`; returns its duration in seconds.
  double End(int id) {
    spans_[id].end = Now();
    return spans_[id].end - spans_[id].start;
  }
  template <typename F>
  double Time(const char* name, int parent, F&& call) {
    int id = Begin(name, parent);
    call();
    return End(id);
  }
  std::string Json() const {
    std::ostringstream out;
    out.precision(9);
    out << "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? "," : "") << "[\"" << s.name << "\"," << s.start << ","
          << s.end << "," << s.parent << "]";
    }
    out << "]";
    return out.str();
  }

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    int parent;
  };
  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
};

// Flat JSON object writer for the process result.
class JsonOut {
 public:
  JsonOut() { out_.precision(9); }
  template <typename T>
  JsonOut& Num(const char* key, T value) {
    Key(key) << value;
    return *this;
  }
  JsonOut& Str(const char* key, const std::string& value) {
    Key(key) << '"' << value << '"';
    return *this;
  }
  JsonOut& Raw(const char* key, const std::string& json) {
    Key(key) << json;
    return *this;
  }
  void Print() const { std::printf("{%s}\n", out_.str().c_str()); }

 private:
  std::ostream& Key(const char* key) {
    out_ << (first_ ? "" : ",") << '"' << key << "\":";
    first_ = false;
    return out_;
  }
  std::ostringstream out_;
  bool first_ = true;
};

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct ProcUsage {
  double cpu_s = 0.0;
  uint64_t max_rss_kb = 0;
  uint64_t vol_ctx_switches = 0;
  uint64_t minor_faults = 0;
};

ProcUsage SelfUsage() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  ProcUsage u;
  u.cpu_s = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6 +
            ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
  u.max_rss_kb = static_cast<uint64_t>(ru.ru_maxrss);  // KiB on Linux.
  u.vol_ctx_switches = static_cast<uint64_t>(ru.ru_nvcsw);
  u.minor_faults = static_cast<uint64_t>(ru.ru_minflt);
  return u;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  return stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

// The tail of a per-window series that belongs to the timed span.
std::vector<uint32_t> Tail(const std::vector<uint32_t>& series, size_t from) {
  return std::vector<uint32_t>(series.begin() + std::min(from, series.size()),
                               series.end());
}

double SumSeconds(const std::vector<uint32_t>& us) {
  uint64_t total = 0;
  for (uint32_t v : us) {
    total += v;
  }
  return total * 1e-6;
}

double Percentile(std::vector<uint32_t> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  size_t k = std::min(v.size() - 1, static_cast<size_t>(q * v.size()));
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return v[k];
}

std::string SeriesJson(const std::vector<uint32_t>& v) {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < v.size(); ++i) {
    out << (i ? "," : "") << v[i];
  }
  out << "]";
  return out.str();
}

// --- write -------------------------------------------------------------------

struct WriteOptions {
  ScaleTopology topology = ScaleTopology::kGrid;
  size_t motes = 0;
  size_t sinks = 1;
  uint64_t warmup_ms = 0;
  uint64_t span_ms = 0;
  size_t threads = 0;
  std::string spill;
  bool profile = false;
  std::string series;
};

// Cumulative counters read before and after the timed span.
struct Counters {
  uint64_t events = 0;
  uint64_t windows = 0;
  uint64_t cross_posts = 0;
  uint64_t skipped_wakeups = 0;
  uint64_t lpl_wakeups = 0;
  uint64_t entries = 0;
  uint64_t charge_flush_visits = 0;
};

Counters ReadCounters(const ShardedSimulator& sim, const MediumFabric& fabric,
                      const ScaleNetwork& net) {
  Counters c;
  c.events = sim.executed_count();
  c.windows = sim.windows_run();
  c.cross_posts = fabric.cross_posts();
  c.skipped_wakeups = fabric.skipped_wakeups();
  c.lpl_wakeups = net.lpl_wakeups();
  c.entries = net.entries_logged();
  c.charge_flush_visits = net.charge_flush_visits();
  return c;
}

int RunWrite(const WriteOptions& o) {
  SpanLog log;
  // Declaration order is teardown order in reverse: the network goes
  // first, then the pipeline joins its consumer while the spill and the
  // merger behind its emit hook are still alive.
  std::unique_ptr<ShardedSimulator> sim;
  std::unique_ptr<MediumFabric> fabric;
  StreamingTraceMerger merger;
  std::unique_ptr<FileTraceSink> spill;
  std::unique_ptr<EmissionPipeline> emission;
  std::unique_ptr<ScaleNetwork> net;

  int setup = log.Begin("setup", -1);
  ShardedSimulator::Config sim_cfg;
  sim_cfg.shards = kShards;
  sim_cfg.threads = o.threads;
  double sim_ctor_s = log.Time("sim.ctor", setup, [&] {
    sim = std::make_unique<ShardedSimulator>(sim_cfg);
  });
  log.Time("net.fabric_ctor", setup,
           [&] { fabric = std::make_unique<MediumFabric>(sim.get()); });
  FileTraceSink::Options sink_opts;
  sink_opts.write_index = true;
  log.Time("spill.open", setup, [&] {
    spill = std::make_unique<FileTraceSink>(o.spill, sink_opts);
  });
  if (!spill->ok()) {
    std::fprintf(stderr, "quanto_perf: cannot open spill %s\n",
                 o.spill.c_str());
    return 1;
  }
  FileTraceSink* sink = spill.get();
  merger.SetEmit([sink](const MergedEntry& m) { sink->Append(m.entry); });
  log.Time("emission.ctor", setup, [&] {
    emission = std::make_unique<EmissionPipeline>(&merger);
  });
  ScaleNetworkConfig cfg;
  cfg.motes = o.motes;
  cfg.topology = o.topology;
  cfg.sinks = o.sinks;
  cfg.batch_log_charging = true;
  cfg.log_capacity = kStreamLogCapacity;
  cfg.emission_pipeline = emission.get();
  cfg.profile_barrier = o.profile;
  sim->EnableBarrierProfiling(o.profile);
  fabric->EnableDrainProfiling(o.profile);
  double construct_s = log.Time("apps.construct", setup, [&] {
    net = std::make_unique<ScaleNetwork>(sim.get(), fabric.get(), cfg);
  });
  int warmup = log.Begin("sim.warmup", setup);
  log.Time("apps.power_up", warmup, [&] { net->PowerUp(); });
  log.Time("sim.run_for", warmup, [&] { sim->RunFor(Milliseconds(5)); });
  log.Time("apps.start_apps", warmup, [&] { net->StartApps(); });
  log.Time("sim.run_for", warmup,
           [&] { sim->RunFor(Milliseconds(o.warmup_ms)); });
  double warmup_s = log.End(warmup);
  double setup_s = log.End(setup);

  Counters before = ReadCounters(*sim, *fabric, *net);
  size_t window0 = sim->window_us_samples().size();
  size_t barrier0 = sim->barrier_us_samples().size();
  size_t drain_phase0 = sim->drain_phase_us_samples().size();
  size_t drain0 = fabric->drain_us_samples().size();
  size_t seal0 = net->seal_us_samples().size();
  size_t flush0 = net->flush_us_samples().size();
  uint64_t stall0 = emission->consumer_stall_us();

  int run = log.Begin("run", -1);
  log.Time("sim.run_for", run,
           [&] { sim->RunFor(Milliseconds(o.span_ms)); });
  int tail = log.Begin("emission.tail", run);
  log.Time("apps.seal_all_chunks", tail, [&] { net->SealAllChunks(); });
  log.Time("merge.finish", tail, [&] { merger.Finish(); });
  double tail_s = log.End(tail);
  bool close_ok = false;
  double close_s =
      log.Time("spill.close", run, [&] { close_ok = spill->Close(); });
  double run_s = log.End(run);
  ProcUsage usage = SelfUsage();
  Counters after = ReadCounters(*sim, *fabric, *net);

  JsonOut out;
  out.Num("setup_s", setup_s)
      .Num("run_s", run_s)
      .Num("sim_ctor_s", sim_ctor_s)
      .Num("construct_s", construct_s)
      .Num("warmup_s", warmup_s)
      .Num("tail_s", tail_s)
      .Num("close_s", close_s)
      .Num("peak_rss_kb", usage.max_rss_kb)
      .Num("cpu_s", usage.cpu_s)
      .Num("vol_ctx_switches", usage.vol_ctx_switches)
      .Num("minor_faults", usage.minor_faults)
      .Num("trace_bytes", FileBytes(o.spill))
      .Str("merge_hash", Hex(merger.hash()))
      .Num("merged_entries", merger.emitted())
      .Num("spill_entries", spill->entries_written())
      .Num("entries_dropped", net->entries_dropped())
      .Num("close_ok", close_ok ? 1 : 0)
      .Num("events", after.events - before.events)
      .Num("windows", after.windows - before.windows)
      .Num("cross_posts", after.cross_posts - before.cross_posts)
      .Num("skipped_wakeups", after.skipped_wakeups - before.skipped_wakeups)
      .Num("lpl_wakeups", after.lpl_wakeups - before.lpl_wakeups)
      .Num("entries_logged", after.entries - before.entries)
      .Num("charge_flush_visits",
           after.charge_flush_visits - before.charge_flush_visits)
      .Num("segments", spill->segments_written())
      .Num("index_bytes", spill->index_bytes_written())
      .Num("arena_bytes", net->construction_arena().bytes_reserved())
      .Num("queued_peak", emission->runs_queued_peak())
      .Num("peak_buffered", merger.peak_buffered())
      .Num("stall_s", (emission->consumer_stall_us() - stall0) * 1e-6);
  if (o.profile) {
    std::vector<uint32_t> window_us = Tail(sim->window_us_samples(), window0);
    std::vector<uint32_t> barrier_us =
        Tail(sim->barrier_us_samples(), barrier0);
    std::vector<uint32_t> drain_phase_us =
        Tail(sim->drain_phase_us_samples(), drain_phase0);
    std::vector<uint32_t> drain_us = Tail(fabric->drain_us_samples(), drain0);
    std::vector<uint32_t> seal_us = Tail(net->seal_us_samples(), seal0);
    std::vector<uint32_t> flush_us = Tail(net->flush_us_samples(), flush0);
    // merge_us has one sample per profiled window, like seal_us.
    std::vector<uint32_t> merge_us = Tail(net->merge_us_samples(), seal0);
    out.Num("window_s", SumSeconds(window_us))
        .Num("window_p50_us", Percentile(window_us, 0.50))
        .Num("window_p99_us", Percentile(window_us, 0.99))
        .Num("barrier_s", SumSeconds(barrier_us))
        .Num("drain_phase_s", SumSeconds(drain_phase_us))
        .Num("drain_s", SumSeconds(drain_us))
        .Num("seal_s", SumSeconds(seal_us))
        .Num("flush_s", SumSeconds(flush_us))
        .Num("merge_s", SumSeconds(merge_us));
    if (!o.series.empty()) {
      std::ofstream series(o.series);
      series << "{\"window_us\":" << SeriesJson(window_us)
             << ",\"barrier_us\":" << SeriesJson(barrier_us)
             << ",\"drain_phase_us\":" << SeriesJson(drain_phase_us)
             << ",\"drain_us\":" << SeriesJson(drain_us)
             << ",\"seal_us\":" << SeriesJson(seal_us)
             << ",\"flush_us\":" << SeriesJson(flush_us)
             << ",\"merge_us\":" << SeriesJson(merge_us) << "}\n";
      if (!series) {
        std::fprintf(stderr, "quanto_perf: cannot write %s\n",
                     o.series.c_str());
        return 1;
      }
    }
  }
  out.Raw("spans", log.Json()).Print();
  return 0;
}

// --- read --------------------------------------------------------------------

struct ReadOptions {
  std::string spill;
  size_t threads = 0;
  double min_s = 0.0;
  std::vector<std::string> queries;
};

enum QueryKind { kRange, kOrigin, kActivity, kTotals, kKinds };
const char* const kKindSpan[kKinds] = {"read.range", "read.origin",
                                       "read.activity", "read.summary"};
const char* const kKindKey[kKinds] = {"range_s", "origin_s", "activity_s",
                                      "summary_s"};

struct Query {
  QueryKind kind = kTotals;
  TraceQuery filter;
};

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream in(s);
  while (std::getline(in, part, sep)) {
    parts.push_back(part);
  }
  return parts;
}

double ParseFraction(const std::string& s) {
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || !(v >= 0.0 && v <= 1.0)) {
    Usage("bad fraction '" + s + "' in --query");
  }
  return v;
}

// Builds the queries from their SPECs against this spill: time fractions
// map onto the indexed time span, activity fractions onto the sorted label
// set.
std::vector<Query> BuildQueries(const std::vector<std::string>& specs,
                                uint64_t t_min, uint64_t t_max,
                                const std::vector<act_t>& labels) {
  std::vector<Query> queries;
  for (const std::string& spec : specs) {
    std::vector<std::string> f = Split(spec, ':');
    Query q;
    if (f.size() == 3 && f[0] == "range") {
      double span = static_cast<double>(t_max - t_min);
      q.kind = kRange;
      q.filter.has_time_range = true;
      q.filter.time_min =
          t_min + static_cast<uint64_t>(span * ParseFraction(f[1]));
      q.filter.time_max =
          q.filter.time_min + static_cast<uint64_t>(span * ParseFraction(f[2]));
    } else if (f.size() == 2 && f[0] == "origin") {
      q.kind = kOrigin;
      for (const std::string& id : Split(f[1], ',')) {
        q.filter.origins.push_back(
            static_cast<node_id_t>(std::strtoul(id.c_str(), nullptr, 10)));
      }
    } else if (f.size() == 2 && f[0] == "activity" && !labels.empty()) {
      q.kind = kActivity;
      for (const std::string& frac : Split(f[1], ',')) {
        size_t i = static_cast<size_t>(ParseFraction(frac) * labels.size());
        q.filter.activities.push_back(labels[std::min(i, labels.size() - 1)]);
      }
    } else if (f.size() == 1 && f[0] == "totals") {
      q.kind = kTotals;
    } else {
      Usage("bad --query '" + spec + "'");
    }
    queries.push_back(q);
  }
  return queries;
}

bool SameTotals(const std::map<act_t, ActivitySummary>& a,
                const std::map<act_t, ActivitySummary>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib) {
    if (ia->first != ib->first || ia->second.entries != ib->second.entries ||
        ia->second.pulses != ib->second.pulses) {
      return false;
    }
  }
  return true;
}

// A result's identity: entry count and FNV-1a over the entries' bytes.
// Incremental, so the reference filter below need not keep its results.
struct Fingerprint {
  uint64_t entries = 0;
  uint64_t hash = 14695981039346656037ull;
  void Add(const LogEntry& e) {
    unsigned char bytes[sizeof(LogEntry)];
    std::memcpy(bytes, &e, sizeof(e));
    for (unsigned char b : bytes) {
      hash = (hash ^ b) * 1099511628211ull;
    }
    ++entries;
  }
  bool operator==(const Fingerprint& o) const {
    return entries == o.entries && hash == o.hash;
  }
};

Fingerprint FingerprintOf(const std::vector<LogEntry>& v) {
  Fingerprint f;
  for (const LogEntry& e : v) {
    f.Add(e);
  }
  return f;
}

// The filtered queries' entry-level semantics applied to the full scan in
// one pass, written independently of the reader: time range on the
// unwrapped stream time, origin and label membership on activity entries.
std::vector<Fingerprint> FilterFullScan(const std::vector<LogEntry>& all,
                                        const std::vector<Query>& queries) {
  std::vector<Fingerprint> out(queries.size());
  StreamIngestState chain;
  for (const LogEntry& e : all) {
    uint64_t t64 = chain.Unwrap(e);
    bool activity = IsActivityEntry(e);
    for (size_t i = 0; i < queries.size(); ++i) {
      const TraceQuery& q = queries[i].filter;
      if (queries[i].kind == kTotals ||
          (q.has_time_range && (t64 < q.time_min || t64 > q.time_max))) {
        continue;
      }
      if (!q.origins.empty() &&
          !(activity &&
            std::find(q.origins.begin(), q.origins.end(),
                      ActivityOrigin(e.payload)) != q.origins.end())) {
        continue;
      }
      if (!q.activities.empty() &&
          !(activity && std::find(q.activities.begin(), q.activities.end(),
                                  e.payload) != q.activities.end())) {
        continue;
      }
      out[i].Add(e);
    }
  }
  return out;
}

int RunRead(const ReadOptions& o) {
  SpanLog log;

  // Full scans: open (index probe and parse) + ReadAll. The previous
  // scan's memory is released outside the timed spans. Every repetition
  // must decode the same number of entries; the last one is kept for the
  // checks.
  std::unique_ptr<TraceFileReader> reader;
  std::optional<std::vector<LogEntry>> scan;
  std::vector<double> open_s;
  std::vector<double> decode_s;
  std::vector<double> scan_s;
  uint64_t scan_failures = 0;
  double scan_total = 0.0;
  while (scan_s.empty() || scan_total < o.min_s) {
    size_t previous = scan ? scan->size() : 0;
    scan.reset();
    reader.reset();
    int rep = log.Begin("read.scan", -1);
    open_s.push_back(log.Time("read.open", rep, [&] {
      reader = std::make_unique<TraceFileReader>(o.spill);
    }));
    decode_s.push_back(log.Time(
        "read.read_all", rep, [&] { scan = reader->ReadAll(o.threads); }));
    scan_s.push_back(log.End(rep));
    scan_total += scan_s.back();
    if (!reader->ok() || !reader->has_index() || !scan.has_value()) {
      std::fprintf(stderr, "quanto_perf: scan of %s failed (%s)\n",
                   o.spill.c_str(), reader->index_note().c_str());
      return 1;
    }
    if (scan_s.size() > 1 && scan->size() != previous) {
      ++scan_failures;
    }
  }

  // Activity queries pick their labels from the middle segment's rows:
  // labels active in the middle of the run, read from the index alone.
  const std::vector<SegmentFooter>& segs = reader->index().segments;
  std::vector<act_t> labels;
  if (!segs.empty()) {
    for (const auto& row : segs[segs.size() / 2].activities) {
      labels.push_back(row.first);
    }
  }
  std::vector<Query> queries =
      BuildQueries(o.queries, segs.empty() ? 0 : segs.front().time_min64,
                   segs.empty() ? 0 : segs.back().time_max64, labels);

  // The expected answers, from the kept scan, outside the timing; the
  // footer-summary reference runs on a second thread to shorten the trial.
  // The scan is released before the queries run, so they run without it
  // resident.
  std::map<act_t, ActivitySummary> expected_totals;
  std::thread totals_thread([&] {
    expected_totals = TraceIndexBuilder::ScanActivityTotals(*scan);
  });
  uint64_t scan_hash = EntryStreamHash(*scan);
  uint64_t scan_entries = scan->size();
  std::vector<Fingerprint> expected = FilterFullScan(*scan, queries);
  totals_thread.join();
  scan.reset();

  // Query batches, the same batch repeated. A query fails when any
  // repetition errors or differs from the expected answer.
  std::vector<double> batch_s;
  std::vector<double> kind_s[kKinds];
  std::vector<bool> bad(queries.size(), false);
  ReadStats batch_stats;
  double batch_total = 0.0;
  while (!queries.empty() && (batch_s.empty() || batch_total < o.min_s)) {
    bool first_rep = batch_s.empty();
    double sum[kKinds] = {};
    int batch = log.Begin("read.batch", -1);
    for (size_t i = 0; i < queries.size(); ++i) {
      const Query& q = queries[i];
      ReadStats stats;
      if (q.kind == kTotals) {
        std::optional<std::map<act_t, ActivitySummary>> totals;
        sum[q.kind] += log.Time(kKindSpan[q.kind], batch, [&] {
          totals = reader->ActivityTotals(&stats);
        });
        bad[i] = bad[i] || !totals || !SameTotals(*totals, expected_totals);
      } else {
        std::optional<std::vector<LogEntry>> result;
        sum[q.kind] += log.Time(kKindSpan[q.kind], batch, [&] {
          result = reader->ReadFiltered(q.filter, o.threads, &stats);
        });
        bad[i] = bad[i] || !result || !(FingerprintOf(*result) == expected[i]);
      }
      if (first_rep) {
        batch_stats.segments_total += stats.segments_total;
        batch_stats.segments_read += stats.segments_read;
        batch_stats.entries_decoded += stats.entries_decoded;
        batch_stats.entries_selected += stats.entries_selected;
      }
    }
    log.End(batch);
    double total = 0.0;
    for (int k = 0; k < kKinds; ++k) {
      kind_s[k].push_back(sum[k]);
      total += sum[k];
    }
    batch_s.push_back(total);
    batch_total += total;
  }
  uint64_t query_failures = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (bad[i]) {
      std::fprintf(stderr, "quanto_perf: query '%s' differs from the scan\n",
                   o.queries[i].c_str());
      ++query_failures;
    }
  }
  ProcUsage usage = SelfUsage();

  JsonOut out;
  out.Num("open_s", Median(open_s))
      .Num("decode_s", Median(decode_s))
      .Num("scan_s", Median(scan_s))
      .Num("scan_reps", scan_s.size())
      .Str("scan_hash", Hex(scan_hash))
      .Num("scan_entries", scan_entries)
      .Num("scan_failures", scan_failures)
      .Num("query_s", Median(batch_s))
      .Num("batch_reps", batch_s.size())
      .Num("queries", queries.size())
      .Num("query_failures", query_failures);
  for (int k = 0; k < kKinds; ++k) {
    out.Num(kKindKey[k], Median(kind_s[k]));
  }
  out.Num("segments_total", batch_stats.segments_total)
      .Num("segments_read", batch_stats.segments_read)
      .Num("entries_decoded", batch_stats.entries_decoded)
      .Num("entries_selected", batch_stats.entries_selected)
      .Num("read_rss_kb", usage.max_rss_kb)
      .Raw("spans", log.Json())
      .Print();
  return 0;
}

// --- command line ------------------------------------------------------------

uint64_t ParseCount(const std::string& flag, const std::string& value) {
  char* end = nullptr;
  unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0') {
    Usage("bad value '" + value + "' for " + flag);
  }
  return v;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    Usage("missing command");
  }
  std::string command = argv[1];
  std::map<std::string, std::string> flags;
  std::vector<std::string> queries;
  bool profile = false;
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--profile") {
      profile = true;
      continue;
    }
    if (i + 1 >= argc || flag.rfind("--", 0) != 0) {
      Usage("bad argument '" + flag + "'");
    }
    if (flag == "--query") {
      queries.push_back(argv[++i]);
    } else {
      flags[flag] = argv[++i];
    }
  }
  auto take = [&flags](const std::string& flag) {
    auto it = flags.find(flag);
    if (it == flags.end()) {
      Usage("missing " + flag);
    }
    std::string value = it->second;
    flags.erase(it);
    return value;
  };
  auto take_optional = [&flags](const std::string& flag) {
    auto it = flags.find(flag);
    std::string value = it == flags.end() ? "" : it->second;
    if (it != flags.end()) {
      flags.erase(it);
    }
    return value;
  };
  auto reject_rest = [&flags] {
    if (!flags.empty()) {
      Usage("unknown flag " + flags.begin()->first);
    }
  };
  if (command == "write") {
    WriteOptions o;
    std::string topology = take("--topology");
    if (topology != "grid" && topology != "chain") {
      Usage("bad --topology '" + topology + "'");
    }
    o.topology =
        topology == "grid" ? ScaleTopology::kGrid : ScaleTopology::kChain;
    o.motes = ParseCount("--motes", take("--motes"));
    o.sinks = ParseCount("--sinks", take("--sinks"));
    o.warmup_ms = ParseCount("--warmup-ms", take("--warmup-ms"));
    o.span_ms = ParseCount("--span-ms", take("--span-ms"));
    o.threads = ParseCount("--threads", take("--threads"));
    o.spill = take("--spill");
    o.series = take_optional("--series");
    o.profile = profile;
    reject_rest();
    if (o.motes < 2 || o.sinks < 1 || o.threads < 1 || o.span_ms < 1) {
      Usage("need --motes >= 2, --sinks >= 1, --threads >= 1, --span-ms >= 1");
    }
    return RunWrite(o);
  }
  if (command == "read") {
    ReadOptions o;
    o.spill = take("--spill");
    o.threads = ParseCount("--threads", take("--threads"));
    o.min_s = std::strtod(take("--min-s").c_str(), nullptr);
    o.queries = queries;
    reject_rest();
    if (profile || o.threads < 1) {
      Usage("read takes --threads >= 1 and no --profile");
    }
    return RunRead(o);
  }
  Usage("unknown command '" + command + "'");
}

}  // namespace
}  // namespace quanto

int main(int argc, char** argv) { return quanto::Main(argc, argv); }
