#!/usr/bin/env python3
"""The repository benchmark: host time of the sharded Quanto simulator,
end to end and layer by layer. See README.md in this directory.

Usage:
  python3 perfbench/run.py --workload grid16k[,chain64] [--seed N]
                           [--seconds S] [--trace 0|1] [--trace-dir DIR]
  python3 perfbench/run.py --self-test

Each trial is a fresh write process (set-up, then the timed span streamed
into an indexed spill) followed by a fresh read process over that spill;
the spill is deleted after the trial. Trials repeat while fewer than
MIN_TRIALS have run or the next one should end within --seconds, and
never past TRIAL_LIMIT_S; each end-to-end metric is the median over
trials. --trace 1 alternates untraced writes with traced trials,
whose writes switch on the program's per-window profiling, and reports
the per-layer metrics plus the tracing overhead. --seed positions the
read queries; the simulated networks are fixed. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

The runner is built from this directory (CMakeLists.txt) into
$CARGO_TARGET_DIR, default .bench_build, which also holds the spill while
a trial runs. With --trace-dir, the traced run writes its spans and the
per-window series there; the runner writes nothing else.
"""

import argparse
import collections
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DEFAULT_SECONDS = 60
MIN_TRIALS = 3
MIN_TRACED_PAIRS = 3
# A trial is not started when the previous one suggests it would end
# after TRIAL_LIMIT_S into the workload's run, and every process still
# running at DEADLINE_S is killed and counted as failed.
TRIAL_LIMIT_S = 150
DEADLINE_S = 170
WORKER_THREADS = 2
READ_THREADS = 2
MIB = 1024 * 1024


class Workload:
    def __init__(self, topology, motes, sinks, warmup_ms, span_ms, read_min_s,
                 merge_hash, scan_hash):
        self.topology = topology
        self.motes = motes
        self.sinks = sinks
        self.warmup_ms = warmup_ms
        self.span_ms = span_ms
        self.read_min_s = read_min_s
        self.merge_hash = merge_hash
        self.scan_hash = scan_hash


# Pinned hashes were recorded with this runner's call sequence (including
# the warm-up split of RunFor) and are equal at 1 and 2 workers.
WORKLOADS = {
    "grid16k": Workload(
        "grid", 16384, 4, 500, 2000, 1.0,
        "9a8093f91dbaff70", "dcfffe76c9f236ea"),
    "chain64": Workload(
        "chain", 64, 1, 60000, 300000, 1.0,
        "b9042f8da283750b", "7ac0c1709b7758a7"),
}

# The self-test's network: small enough to run every check in seconds,
# big enough for a 4-segment spill, so queries exercise index pruning.
TINY = Workload("grid", 1024, 2, 100, 1000, 0.05,
                "abf7178671f1c597", "8c3bd398c98f483c")

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("trace_mb", "MiB"),
    ("scan_s", "s"),
    ("query_s", "s"),
    ("read_rss_mb", "MiB"),
]

PER_LAYER = [
    ("apps.construct_s", "s"),
    ("apps.arena_mb", "MiB"),
    ("sim.ctor_s", "s"),
    ("sim.warmup_s", "s"),
    ("sim.events", "count"),
    ("sim.windows", "count"),
    ("sim.exec_s", "s"),
    ("sim.ns_per_event", "ns"),
    ("sim.drain_phase_s", "s"),
    ("sim.barrier_s", "s"),
    ("sim.overhead_us_per_window", "us"),
    ("sim.window_p50_us", "us"),
    ("sim.window_p99_us", "us"),
    ("net.drain_s", "s"),
    ("net.drain_busy_ratio", "ratio"),
    ("net.cross_posts", "count"),
    ("net.skipped_wakeups", "count"),
    ("radio.lpl_wakeups", "count"),
    ("core.entries", "count"),
    ("core.dropped", "count"),
    ("core.charge_flush_visits", "count"),
    ("seal.s", "s"),
    ("seal.flush_s", "s"),
    ("emission.merge_s", "s"),
    ("emission.stall_s", "s"),
    ("emission.queued_peak", "count"),
    ("emission.peak_buffered", "count"),
    ("emission.tail_s", "s"),
    ("spill.close_s", "s"),
    ("spill.segments", "count"),
    ("spill.index_mb", "MiB"),
    ("read.open_s", "s"),
    ("read.decode_s", "s"),
    ("read.range_s", "s"),
    ("read.origin_s", "s"),
    ("read.activity_s", "s"),
    ("read.summary_s", "s"),
    ("read.segments_read_ratio", "ratio"),
    ("read.selected_ratio", "ratio"),
    ("proc.cpu_s", "s"),
    ("proc.vol_ctx_switches", "count"),
    ("proc.minor_faults", "count"),
    ("trace.overhead", "ratio"),
]

# Write-process outputs that a speed-only change (and tracing) must keep.
DETERMINISTIC = [
    "merge_hash", "merged_entries", "spill_entries", "entries_dropped",
    "events", "windows", "cross_posts", "skipped_wakeups", "lpl_wakeups",
    "entries_logged", "charge_flush_visits", "segments", "index_bytes",
    "trace_bytes",
]


class RunnerError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the runner; returns its path."""
    if not (ROOT / "src" / "sim" / "sharded_sim.h").is_file():
        raise RunnerError("simulator sources not found under %s" %
                          (ROOT / "src"))
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    for cmd in (["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(build_dir), "-j", "4",
                 "--target", "quanto_perf"]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            raise RunnerError("build failed: %s" % " ".join(cmd))
    return build_dir / "quanto_perf", build_dir


def run_process(args, deadline):
    """Runs one quanto_perf process; returns its JSON result, or None."""
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("timed out: %s" % " ".join(args))
        return None
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("failed (exit %d): %s" % (proc.returncode, " ".join(args)))
        return None
    return json.loads(lines[-1])


def query_batch(rng, motes):
    """One client's batch: 4 time slices, 4 origin filters, 3 activity
    filters and the footer summary, positioned by the seeded rng."""
    batch = ["range:%.6f:0.05" % rng.uniform(0.0, 0.95) for _ in range(4)]
    batch += ["origin:" + ",".join(
        str(m) for m in rng.sample(range(1, motes + 1), 4)) for _ in range(4)]
    batch += ["activity:%.6f,%.6f" % (rng.random(), rng.random())
              for _ in range(3)]
    batch.append("totals")
    return batch


class Tally:
    """Operations attempted and failed; logs the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log("check failed: %s" % what)


# The JSON results of one fresh write process and, when the trial reads,
# one fresh read process; None where a process failed or did not run.
Trial = collections.namedtuple("Trial", "write read")


def run_trial(exe, workload, spill, threads, tally, rng, deadline, profile,
              read, series=None):
    args = [str(exe), "write", "--topology", workload.topology,
            "--motes", str(workload.motes), "--sinks", str(workload.sinks),
            "--warmup-ms", str(workload.warmup_ms),
            "--span-ms", str(workload.span_ms), "--threads", str(threads),
            "--spill", str(spill)]
    if profile:
        args.append("--profile")
    if series:
        args += ["--series", str(series)]
    queries = query_batch(rng, workload.motes) if read else []
    try:
        w = run_process(args, deadline)
        if w is None:
            tally.check(False, "write process")
            return Trial(None, None)
        tally.check(
            w["merge_hash"] == workload.merge_hash and
            w["entries_dropped"] == 0 and w["close_ok"] == 1 and
            w["merged_entries"] == w["spill_entries"],
            "write: merge hash %s (pinned %s), %d dropped, close_ok %d" % (
                w["merge_hash"], workload.merge_hash, w["entries_dropped"],
                w["close_ok"]))
        if not read:
            return Trial(w, None)
        args = [str(exe), "read", "--spill", str(spill),
                "--threads", str(READ_THREADS),
                "--min-s", str(workload.read_min_s)]
        for q in queries:
            args += ["--query", q]
        r = run_process(args, deadline)
        if r is None:
            tally.check(False, "read process")
            tally.attempted += len(queries)
            tally.failed += len(queries)
            return Trial(w, None)
        tally.check(
            r["scan_hash"] == workload.scan_hash and
            r["scan_entries"] == w["merged_entries"] and
            r["scan_failures"] == 0,
            "scan: hash %s (pinned %s), %d entries of %d, %d repeats "
            "differ" % (r["scan_hash"], workload.scan_hash,
                        r["scan_entries"], w["merged_entries"],
                        r["scan_failures"]))
        tally.attempted += r["queries"]
        tally.failed += r["query_failures"]
        return Trial(w, r)
    finally:
        if spill.exists():
            spill.unlink()


def median(trials, get):
    values = [get(t) for t in trials]
    return statistics.median(values) if values else None


def end_to_end(trials):
    writes = [t for t in trials if t.write]
    reads = [t for t in trials if t.read]
    return {
        "setup_s": median(writes, lambda t: t.write["setup_s"]),
        "run_s": median(writes, lambda t: t.write["run_s"]),
        "peak_rss_mb": median(writes, lambda t: t.write["peak_rss_kb"] / 1024),
        "trace_mb": median(writes, lambda t: t.write["trace_bytes"] / MIB),
        "scan_s": median(reads, lambda t: t.read["scan_s"]),
        "query_s": median(reads, lambda t: t.read["query_s"]),
        "read_rss_mb": median(reads, lambda t: t.read["read_rss_kb"] / 1024),
    }


def per_layer(traced, untraced):
    """Per-layer metrics from the traced trials' medians."""
    def m(get):
        return median([t for t in traced if t.write and t.read], get)

    def w(key, scale=1.0):
        return m(lambda t: t.write[key] * scale)

    def r(key):
        return m(lambda t: t.read[key])

    def exec_s(t):
        x = t.write
        return x["window_s"] - x["drain_phase_s"] - x["barrier_s"]

    def ratio(num, den):
        return lambda t: num(t) / den(t) if den(t) else 0.0

    traced_run = w("run_s")
    untraced_run = median([t for t in untraced if t.write],
                          lambda t: t.write["run_s"])
    overhead = None
    if traced_run is not None and untraced_run:
        overhead = traced_run / untraced_run - 1.0
    return {
        "apps.construct_s": w("construct_s"),
        "apps.arena_mb": w("arena_bytes", 1.0 / MIB),
        "sim.ctor_s": w("sim_ctor_s"),
        "sim.warmup_s": w("warmup_s"),
        "sim.events": w("events"),
        "sim.windows": w("windows"),
        "sim.exec_s": m(exec_s),
        "sim.ns_per_event": m(lambda t: exec_s(t) / t.write["events"] * 1e9),
        "sim.drain_phase_s": w("drain_phase_s"),
        "sim.barrier_s": w("barrier_s"),
        "sim.overhead_us_per_window": m(
            lambda t: (t.write["drain_phase_s"] + t.write["barrier_s"]) /
            t.write["windows"] * 1e6),
        "sim.window_p50_us": w("window_p50_us"),
        "sim.window_p99_us": w("window_p99_us"),
        "net.drain_s": w("drain_s"),
        "net.drain_busy_ratio": m(ratio(lambda t: t.write["drain_s"],
                                        lambda t: t.write["drain_phase_s"])),
        "net.cross_posts": w("cross_posts"),
        "net.skipped_wakeups": w("skipped_wakeups"),
        "radio.lpl_wakeups": w("lpl_wakeups"),
        "core.entries": w("entries_logged"),
        "core.dropped": w("entries_dropped"),
        "core.charge_flush_visits": w("charge_flush_visits"),
        "seal.s": w("seal_s"),
        "seal.flush_s": w("flush_s"),
        "emission.merge_s": w("merge_s"),
        "emission.stall_s": w("stall_s"),
        "emission.queued_peak": w("queued_peak"),
        "emission.peak_buffered": w("peak_buffered"),
        "emission.tail_s": w("tail_s"),
        "spill.close_s": w("close_s"),
        "spill.segments": w("segments"),
        "spill.index_mb": w("index_bytes", 1.0 / MIB),
        "read.open_s": r("open_s"),
        "read.decode_s": r("decode_s"),
        "read.range_s": r("range_s"),
        "read.origin_s": r("origin_s"),
        "read.activity_s": r("activity_s"),
        "read.summary_s": r("summary_s"),
        "read.segments_read_ratio": m(ratio(
            lambda t: t.read["segments_read"],
            lambda t: t.read["segments_total"])),
        "read.selected_ratio": m(ratio(lambda t: t.read["entries_selected"],
                                       lambda t: t.read["entries_decoded"])),
        "proc.cpu_s": w("cpu_s"),
        "proc.vol_ctx_switches": w("vol_ctx_switches"),
        "proc.minor_faults": w("minor_faults"),
        "trace.overhead": overhead,
    }


def self_times(trials):
    """Per span name: count, total and self time (duration minus the part
    covered by its child spans), summed over every traced process."""
    table = {}
    for t in trials:
        for result in (t.write, t.read):
            if not result:
                continue
            spans = result["spans"]
            child = [0.0] * len(spans)
            for name, start, end, parent in spans:
                if parent >= 0:
                    child[parent] += end - start
            for i, (name, start, end, _) in enumerate(spans):
                row = table.setdefault(name, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += end - start
                row[2] += end - start - child[i]
    return table


def measure(exe, build_dir, name, workload, seed, seconds, trace, threads,
            trace_dir=None):
    """Runs one workload; returns (tally, metrics, units)."""
    tally = Tally()
    rng = random.Random(seed)
    spill_dir = build_dir / "spill"
    spill_dir.mkdir(parents=True, exist_ok=True)
    spill = spill_dir / ("%s-%d.qnto" % (name, os.getpid()))
    start = time.monotonic()
    deadline = start + DEADLINE_S
    untraced, traced = [], []
    last = 0.0

    def more(done, minimum):
        end = time.monotonic() - start + last
        return end < TRIAL_LIMIT_S and (done < minimum or end <= seconds)

    while more(len(traced) if trace else len(untraced),
               MIN_TRACED_PAIRS if trace else MIN_TRIALS):
        begun = time.monotonic()
        index = len(untraced)
        untraced.append(run_trial(exe, workload, spill, threads, tally, rng,
                                  deadline, profile=False, read=not trace))
        if trace:
            series = (trace_dir / ("%s-series-%d.json" % (name, index))
                      if trace_dir else None)
            traced.append(run_trial(exe, workload, spill, threads, tally, rng,
                                    deadline, profile=True, read=True,
                                    series=series))
            u, t = untraced[-1].write, traced[-1].write
            if u and t:
                diff = [k for k in DETERMINISTIC if u[k] != t[k]]
                tally.check(not diff, "traced run changed %s" % ", ".join(diff))
        last = time.monotonic() - begun
        log("%s trial %d (%.1f s): %s" % (name, index, last, trial_summary(
            traced[-1] if trace else untraced[-1])))

    if trace:
        metrics = per_layer(traced, untraced)
        units = dict(PER_LAYER)
        print_self_times(name, self_times(traced))
        if trace_dir:
            write_spans(trace_dir / ("%s-spans.jsonl" % name), name, traced)
    else:
        metrics = end_to_end(untraced)
        units = dict(END_TO_END)
    if any(v is None for v in metrics.values()):
        tally.check(False, "%s: no successful trial" % name)
        metrics = {}
    return tally, metrics, units


def trial_summary(trial):
    parts = []
    for result, keys in ((trial.write, ("setup_s", "run_s")),
                         (trial.read, ("scan_s", "query_s"))):
        if result:
            parts += ["%s %.4f" % (k, result[k]) for k in keys]
    return ", ".join(parts)


def print_self_times(name, table):
    print("%s spans (traced processes):" % name)
    print("  %-24s %6s %10s %10s" % ("span", "count", "total s", "self s"))
    for span, (count, total, own) in sorted(table.items(),
                                             key=lambda kv: -kv[1][2]):
        print("  %-24s %6d %10.4f %10.4f" % (span, count, total, own))


def write_spans(path, name, trials):
    with open(path, "w") as out:
        for i, t in enumerate(trials):
            for kind, result in (("write", t.write), ("read", t.read)):
                if not result:
                    continue
                run_id = "%s/%d/%s" % (name, i, kind)
                for span, start, end, parent in result["spans"]:
                    out.write(json.dumps({"run": run_id, "name": span,
                                          "start": start, "end": end,
                                          "parent": parent}) + "\n")


def report(results):
    """Prints every metric with its unit, then the JSON result line.
    Returns the process exit code."""
    tally = Tally()
    metrics = {}
    prefix = len(results) > 1
    for name, (t, values, units) in results.items():
        tally.attempted += t.attempted
        tally.failed += t.failed
        for metric, value in values.items():
            key = "%s.%s" % (name, metric) if prefix else metric
            metrics[key] = {"value": value, "unit": units[metric]}
    for key, m in metrics.items():
        print("%-32s %16.6f %s" % (key, m["value"], m["unit"]))
    print("operations: %d attempted, %d failed" % (tally.attempted,
                                                   tally.failed))
    correct = tally.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def self_test(exe, build_dir):
    """Runs every check on TINY: hashes equal at 1 and 2 workers, every
    metric emitted with its unit, a wrong pinned hash counted as failed,
    BENCHMARK.json in step with the tables above, strict CLI."""
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)

    for threads in (1, 2):
        tally, metrics, _ = measure(exe, build_dir, "tiny", TINY, 1, 0, 0,
                                    threads)
        expect(tally.failed == 0 and tally.attempted > 0,
               "tiny at %d workers: %d of %d operations failed" % (
                   threads, tally.failed, tally.attempted))
    tally, metrics, units = measure(exe, build_dir, "tiny", TINY, 7, 0, 0,
                                    WORKER_THREADS)
    expect([(k, units[k]) for k in metrics] == END_TO_END,
           "untraced metrics %s" % sorted(metrics))
    tally, metrics, units = measure(exe, build_dir, "tiny", TINY, 7, 0, 1,
                                    WORKER_THREADS)
    expect(tally.failed == 0, "traced tiny run failed %d" % tally.failed)
    expect([(k, units[k]) for k in metrics] == PER_LAYER,
           "traced metrics %s" % sorted(metrics))
    wrong = Workload(TINY.topology, TINY.motes, TINY.sinks, TINY.warmup_ms,
                     TINY.span_ms, TINY.read_min_s, "0" * 16, TINY.scan_hash)
    tally, _, _ = measure(exe, build_dir, "tiny", wrong, 1, 0, 0,
                          WORKER_THREADS)
    expect(tally.failed >= MIN_TRIALS,
           "wrong pinned hash counted %d failures" % tally.failed)

    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text())
        expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] ==
               END_TO_END, "BENCHMARK.json end_to_end differs from END_TO_END")
        expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER,
               "BENCHMARK.json per_layer differs from PER_LAYER")
        expect(sorted(w["name"] for w in spec["workloads"]) ==
               sorted(WORKLOADS),
               "BENCHMARK.json workloads differ from WORKLOADS")
    for bad in (["--bogus"], ["--workload", "nosuch"], ["--trace", "2"],
                ["--workload", "chain64", "--threads", "1"],
                ["--workload", "chain64", "--trace-dir", "spans"]):
        proc = subprocess.run([sys.executable, str(Path(__file__))] + bad,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        expect(proc.returncode == 2 and b"usage:" in proc.stderr and
               not proc.stdout, "%s did not exit 2 with usage" % bad)
    for p in problems:
        log("self-test: %s" % p)
    print("self-test: %s" % ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload",
                        help="comma-separated: " + ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir",
                        help="with --trace 1: write spans and per-window "
                             "series here")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return args
    if not args.workload:
        parser.error("--workload is required")
    args.workloads = args.workload.split(",")
    for name in args.workloads:
        if name not in WORKLOADS:
            parser.error("unknown workload '%s'" % name)
    if args.trace_dir and not args.trace:
        parser.error("--trace-dir needs --trace 1")
    return args


def main(argv):
    args = parse_args(argv)
    try:
        exe, build_dir = build()
        if args.self_test:
            return self_test(exe, build_dir)
        trace_dir = None
        if args.trace_dir:
            trace_dir = Path(args.trace_dir)
            trace_dir.mkdir(parents=True, exist_ok=True)
        results = {}
        for name in args.workloads:
            results[name] = measure(exe, build_dir, name, WORKLOADS[name],
                                    args.seed, args.seconds, args.trace,
                                    WORKER_THREADS, trace_dir)
        return report(results)
    except RunnerError as e:
        log("run.py: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
