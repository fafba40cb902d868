#!/usr/bin/env python3
"""Wall-clock benchmark of the real sjoin cluster (master, slaves, collector).

Usage (from the repository root):

    python3 wallbench/run.py --workload steady|saturate|chatty|straggler|all \
        --seed N --seconds S --trace 0|1

Builds wallbench/ (and the program's libraries from src/) with CMake, checks
the reference-join checker on small traces, computes the reference digest of
the workload's trace for the seed (cached, outside the timed set-up), then
runs repetitions of the workload for about S seconds, each in a fresh
process, and checks every repetition's output against the reference.

--trace 0 reports the end-to-end metrics (medians over the repetitions).
--trace 1 alternates untraced and traced repetitions and replays the job on
one thread; it reports the per-layer metrics and the tracing overhead.

Prints a table of every metric with its unit, writes a run report (every
repetition, thread placement, host facts, per-rank accounting) under the
build directory, and ends stdout with one JSON line:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Exit status: 0 ok; 1 an output differed from the reference join or a slave
was declared dead; 2 usage, build or environment error; 3 the replay's spans
accounted for less than 90% of its wall time.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["steady", "saturate", "chatty", "straggler"]


def median(values):
    return statistics.median(values) if values else 0.0


# End-to-end metrics of the untraced repetitions: (metric, unit, key in a
# repetition's result). Each is the median over the repetitions; the delay
# and epoch-lag quantiles are taken within each repetition first.
END_TO_END = [
    ("throughput_tps", "1/s", "throughput_tps"),
    ("delay_p50_ms", "ms", "delay_p50_ms"),
    ("delay_p99_ms", "ms", "delay_p99_ms"),
    ("drain_s", "s", "drain_s"),
    ("epoch_lag_p99_ms", "ms", "epoch_lag_p99_ms"),
    ("setup_s", "s", "setup_s"),
    ("peak_rss_mb", "MB", "peak_rss_mb"),
    ("trace_gen_s", "s", "gen_s"),
]

# The end-to-end metrics in the result line, gated by BENCHMARK.json.
# trace_gen_s is the load generator's time, outside the system under test.
# The others are printed and kept in the run report, but their spread
# across runs on this kind of host exceeds the largest bound (0.25) on some
# workload: on saturate the production delay is backlog, so it magnifies
# the host's slow drift in compute speed about twofold; drain_s is a few
# milliseconds of shutdown handshake on the paced workloads; and
# epoch_lag_p99_ms is the master's timer wake-up under host vCPU stalls.
GATED = ["throughput_tps", "setup_s", "peak_rss_mb"]

# (metric, unit) measured by the traced cluster repetitions.
CLUSTER_LAYERS = [
    ("core.runner.epoch_us.p50", "us"),
    ("core.runner.epoch_us.p99", "us"),
    ("core.runner.report_wait_us", "us"),
    ("core.balancer.migrations", "count"),
    ("core.runner.migration_ms.p50", "ms"),
] + [
    (f"net.inproc.{what}.{frame}", unit)
    for frame in ["tuple_batch", "load_report", "state_transfer",
                  "result_stats", "metrics"]
    for what, unit in [("frames", "count"), ("bytes", "bytes")]
] + [
    ("net.inproc.send_us.master", "us"),
    ("net.inproc.send_us.slave", "us"),
    ("net.inproc.slave_recv_idle_frac", "ratio"),
    ("join.join_module.comparisons", "count"),
    ("join.join_module.outputs", "count"),
    ("join.join_module.splits", "count"),
    ("join.join_module.merges", "count"),
    ("join.useful_ratio", "ratio"),
    ("join.output_skew", "ratio"),
    ("window.window_store.tuples_end", "count"),
    ("os.cpu_s", "s"),
    ("os.nivcsw", "count"),
    ("os.max_threads_per_cpu", "count"),
]

# (metric, unit) measured by the single-thread replay.
REPLAY_LAYERS = [
    ("gen.stream_source.drain_us", "us"),
    ("core.master_buffer.add_us", "us"),
    ("core.master_buffer.drain_us", "us"),
    ("core.master_buffer.peak_bytes", "bytes"),
    ("net.codec.encode_us", "us"),
    ("net.codec.decode_us", "us"),
    ("net.inproc.handoff_us", "us"),
    ("join.join_module.process_us", "us"),
    ("replay.tps", "1/s"),
    ("replay.accounted_frac", "ratio"),
]

# The ungated end-to-end metrics, also reported in --trace 1 runs under the
# layer whose boundary observes them (no bound applies to per-layer metrics).
UNGATED_AS_LAYER = [
    ("join.sink.delay_p50_ms", "delay_p50_ms"),
    ("join.sink.delay_p99_ms", "delay_p99_ms"),
    ("core.runner.epoch_lag_p99_ms", "epoch_lag_p99_ms"),
    ("core.runner.drain_s", "drain_s"),
]

OVERHEAD = [
    ("trace.overhead.throughput_tps", "1/s", "throughput_tps"),
    ("trace.overhead.delay_p50_ms", "ms", "delay_p50_ms"),
]

REP_TIMEOUT_S = 150

# Child processes (compiler included) keep their temporary files inside the
# build directory; set by main().
ENV = dict(os.environ)


class BenchError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def log(msg):
    print(f"wallbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "wallbench")


def build(bdir):
    if shutil.which("cmake") is None:
        raise BenchError(2, "cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged(cmd, "configure")
    run_logged(["cmake", "--build", bdir, "--target", "wallbench", "-j", jobs],
               "build")


def run_logged(cmd, what):
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                         text=True, timeout=850, env=ENV)
    if res.returncode != 0:
        sys.stderr.write(res.stdout[-4000:])
        raise BenchError(2, f"{what} failed (exit {res.returncode})")


def tool(bdir, *args, allow=(0,)):
    """Runs the benchmark binary; returns the parsed last stdout line."""
    cmd = [os.path.join(bdir, "wallbench"), *args]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, timeout=REP_TIMEOUT_S, env=ENV)
    sys.stderr.write(res.stderr)
    if res.returncode not in allow:
        raise BenchError(res.returncode if res.returncode in (1, 3) else 2,
                         f"{' '.join(args[:3])} exited {res.returncode}")
    lines = res.stdout.strip().splitlines()
    try:
        return res.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError(2, f"{' '.join(args[:3])} printed no result line")


def reference(bdir, workload, seed):
    cache = os.path.join(bdir, "cache")
    os.makedirs(cache, exist_ok=True)
    path = os.path.join(cache, f"{workload}-{seed}.ref")
    if not os.path.isfile(path):
        tmp = path + f".tmp{os.getpid()}"
        tool(bdir, "reference", "--workload", workload, "--seed", str(seed),
             "--out", tmp)
        os.replace(tmp, path)
    return path


def end_to_end(reps):
    """Every end-to-end metric over a set of repetitions."""
    return {name: median([r[key] for r in reps]) for name, _, key in END_TO_END}


def run_workload(bdir, workload, seed, seconds, traced):
    ref = reference(bdir, workload, seed)
    spans_dir = os.path.join(bdir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    base = ["--workload", workload, "--seed", str(seed), "--ref", ref]
    report = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(traced), "reps": [], "traced_reps": []}

    start = time.monotonic()
    replay = None
    if traced:
        spans = os.path.join(spans_dir, f"{workload}-{seed}-replay.jsonl")
        code, replay = tool(bdir, "replay", *base, "--spans", spans,
                            allow=(0, 1, 3))
        report["replay"] = replay
        report["replay_spans"] = spans
        if code == 3:
            raise BenchError(3, "replay accounted for "
                             f"{replay['replay.accounted_frac']:.3f} of its "
                             "wall time, below 0.90")

    durations = []
    while True:
        elapsed = time.monotonic() - start
        step = median(durations)
        if durations and elapsed + step > seconds:
            break
        t0 = time.monotonic()
        _, rep = tool(bdir, "run", *base)
        report["reps"].append(rep)
        if traced:
            spans = os.path.join(spans_dir, f"{workload}-{seed}-cluster.jsonl")
            _, trep = tool(bdir, "run", *base, "--traced", "--spans", spans)
            report["traced_reps"].append(trep)
            report["cluster_spans"] = spans
        durations.append(time.monotonic() - t0)
    report["host"] = report["reps"][0]["host"]
    return report, replay


def summarize(report, replay, traced):
    """Checks every repetition and returns (attempted, failed, metrics)."""
    reps = report["reps"]
    all_reps = reps + report["traced_reps"]
    attempted = sum(int(r["expected_pairs"]) for r in all_reps)
    failed = sum(int(r["mismatch"]) + int(r["dead_slaves"]) +
                 abs(int(r["tuples"]) - int(r["tuples_sent"])) for r in all_reps)
    if replay is not None:
        failed += int(replay["replay.mismatch"])
    units = {name: unit for name, unit, _ in END_TO_END}
    e2e = end_to_end(reps)
    report["end_to_end"] = e2e
    metrics = {}
    if not traced:
        for name in GATED:
            metrics[name] = {"value": e2e[name], "unit": units[name]}
    else:
        treps = report["traced_reps"]
        for name, unit in CLUSTER_LAYERS:
            metrics[name] = {"value": median([r["layers"][name] for r in treps]),
                             "unit": unit}
        for name, unit in REPLAY_LAYERS:
            metrics[name] = {"value": replay[name], "unit": unit}
        for name, key in UNGATED_AS_LAYER:
            metrics[name] = {"value": e2e[key], "unit": units[key]}
        traced_e2e = end_to_end(treps)
        for name, unit, key in OVERHEAD:
            metrics[name] = {"value": traced_e2e[key] - e2e[key], "unit": unit}
    return attempted, failed, metrics


def print_table(workload, report, metrics, attempted, failed):
    reps = report["reps"]
    print(f"== {workload}  seed={report['seed']}  reps={len(reps)}"
          f"  traced_reps={len(report['traced_reps'])}")
    pairs = sum(int(r["delay_samples"]) for r in reps)
    epochs = sum(int(r["epochs"]) for r in reps)
    counts = {"delay_p50_ms": f"n={pairs} pairs", "delay_p99_ms": f"n={pairs} pairs",
              "epoch_lag_p99_ms": f"n={epochs} epochs"}
    rows = [(name, report["end_to_end"][name], unit, counts.get(name, ""))
            for name, unit, _ in END_TO_END]
    rows += [(name, m["value"], m["unit"], "") for name, m in metrics.items()
             if name not in report["end_to_end"]]
    frac = failed / attempted if attempted else 0.0
    rows.append(("failed_frac", frac, "ratio",
                 f"{failed} of {attempted} reference pairs"))
    for name, value, unit, note in rows:
        print(f"  {name:<40} {value:>16.6g} {unit:<6} {note}")
    threads = reps[0]["threads"]
    placement = ", ".join(f"{t['role']}{t['rank']}:{t['cpus_allowed']}"
                          for t in sorted(threads, key=lambda t: (t['rank'], t['role'])))
    print(f"  threads (Cpus_allowed_list): {placement}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
            raise BenchError(2, f"program sources not found under {ROOT}/src")
        bdir = build_dir()
        ENV["TMPDIR"] = os.path.join(bdir, "tmp")
        os.makedirs(ENV["TMPDIR"], exist_ok=True)
        build(bdir)
        code, _ = tool(bdir, "selftest", allow=(0, 1))
        if code != 0:
            raise BenchError(1, "the reference-join checker failed its self-test")
        names = WORKLOADS if args.workload == "all" else [args.workload]
        correct = True
        attempted_all = failed_all = 0
        metrics_all = {}
        reports_dir = os.path.join(bdir, "reports")
        os.makedirs(reports_dir, exist_ok=True)
        for name in names:
            report, replay = run_workload(bdir, name, args.seed, args.seconds,
                                          bool(args.trace))
            attempted, failed, metrics = summarize(report, replay,
                                                   bool(args.trace))
            report.update(attempted=attempted, failed=failed, metrics=metrics,
                          SJOIN_PIN_CPUS=os.environ.get("SJOIN_PIN_CPUS"))
            path = os.path.join(reports_dir,
                                f"{name}-seed{args.seed}-trace{args.trace}.json")
            with open(path, "w") as f:
                json.dump(report, f, indent=1)
            print_table(name, report, metrics, attempted, failed)
            log(f"run report: {path}")
            correct = correct and failed == 0
            attempted_all += attempted
            failed_all += failed
            if len(names) == 1:
                metrics_all = metrics
            else:
                metrics_all.update({f"{name}.{k}": v for k, v in metrics.items()})
    except BenchError as e:
        log(f"error: {e}")
        return e.code
    except subprocess.TimeoutExpired as e:
        log(f"error: timed out: {e}")
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted_all,
                      "failed": failed_all, "metrics": metrics_all}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
