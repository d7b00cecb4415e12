#!/usr/bin/env python3
"""Run one workload of the FMore benchmark and print its metrics.

    python3 perfbench/run.py --workload fl_cifar|market_1m|stream_1m|wire_1m|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root. It builds perfbench/ (and the libraries it
links from the repository) into .bench_build/perfbench, then runs the
workload's main lane in a fresh process with FMORE_THREADS pinned to the
usable core count, and its reference lane in another; every round of the
checked prefix must be bit-identical between the two.

--trace 0 prints the end-to-end metrics; --trace 1 runs the traced lane of
every workload (each per-layer metric is measured on the workload that
exercises its layer), writes Chrome trace files under .bench_build/traces
and prints the per-layer metrics. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib  # noqa: E402

BUILD_ROOT = ".bench_build"
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
LANE_TIMEOUT_S = 150

# Trace lanes: warm-up rounds, untraced rounds (the in-process untraced
# round time the traced one is set against) and traced rounds.
TRACE_ROUNDS = {
    "fl_cifar": (10, 30, 8),
    "market_1m": (5, 30, 10),
    "stream_1m": (3, 12, 8),
    "wire_1m": (20, 100, 30),
}


class BenchError(Exception):
    pass


def usable_cores():
    return len(os.sched_getaffinity(0))


def build():
    """Configure until a build system exists, then build the lane binary
    (a no-op when current)."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    commands = []
    if not any(os.path.exists(os.path.join(BUILD_DIR, name))
               for name in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        commands.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release", *generator])
    commands.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench_lane",
                     "-j", str(usable_cores())])
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    with open(log_path, "w") as log:
        for command in commands:
            if subprocess.run(command, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as failed:
                    tail = failed.read().splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    return os.path.abspath(os.path.join(BUILD_DIR, "perfbench_lane"))


def run_lane(binary, workload, lane, seed, work_dir, threads, **counts):
    """Run one lane in a fresh process group and return its JSON result."""
    command = [binary, "--workload", workload, "--lane", lane, "--seed", str(seed),
               "--work-dir", work_dir]
    for key, value in counts.items():
        command += ["--" + key.replace("_", "-"), str(value)]
    env = dict(os.environ, FMORE_THREADS=str(threads))
    process = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = process.communicate(timeout=LANE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchError(f"{workload} {lane} lane exceeded {LANE_TIMEOUT_S} s")
    if process.returncode != 0:
        raise BenchError(f"{workload} {lane} lane exited {process.returncode}: "
                         f"{err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def cpu_ticks():
    """(steal, total) jiffies of the whole machine from /proc/stat."""
    with open("/proc/stat") as handle:
        fields = [int(v) for v in handle.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def run_sizes(workload, seconds):
    spec = benchlib.WORKLOADS[workload]
    timed = max(benchlib.MIN_TIMED_ROUNDS, round(seconds * spec["rounds_per_s"]))
    warmup = max(spec["check_rounds"],
                 math.ceil(benchlib.WARMUP_S * spec["rounds_per_s"]))
    return warmup, timed


def tape_digest(digests):
    return hashlib.sha256("".join(digests).encode()).hexdigest()[:16]


def fmt(value):
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def run_end_to_end(binary, workload, seed, seconds, work_dir, threads):
    spec = benchlib.WORKLOADS[workload]
    warmup, timed = run_sizes(workload, seconds)
    check = spec["check_rounds"]
    steal_before, total_before = cpu_ticks()
    main = run_lane(binary, workload, "main", seed, os.path.join(work_dir, "main"), threads,
                    setup_repeats=benchlib.SETUP_REPEATS, warmup_rounds=warmup,
                    rounds=timed, check_rounds=check)
    steal_after, total_after = cpu_ticks()
    steal_pct = 100.0 * (steal_after - steal_before) / max(1, total_after - total_before)
    reference_threads = spec["reference_threads"] or threads
    reference = run_lane(binary, workload, "reference", seed,
                         os.path.join(work_dir, "reference"), reference_threads,
                         check_rounds=check)
    mismatched = [r + 1 for r, (a, b) in enumerate(zip(main["digests"], reference["digests"]))
                  if a != b]
    if len(main["digests"]) != check or len(reference["digests"]) != check:
        raise BenchError(f"{workload}: expected {check} checked rounds")
    failed = min(main["attempted"], main["failed"] + reference["failed"] + len(mismatched))
    values = benchlib.end_to_end(main)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in benchlib.END_TO_END}
    line = benchlib.result_line(failed == 0, main["attempted"], failed, metrics)

    env = main["env"]
    n = len(main["round_ms"])
    top = benchlib.highest_percentile(n)
    print(f"perfbench {workload}: seed={seed} seconds={seconds} closed loop")
    print(f"  why: {spec['why']}")
    print(f"  env: nproc={os.cpu_count()} usable_cores={threads} "
          f"FMORE_THREADS={env['thread_budget']} hardware_threads={env['hardware_threads']} "
          f"cpu=\"{env['cpu_model']}\"")
    print(f"  build: {env['build']}")
    print(f"  steal         {steal_pct:.1f}% of the machine's CPU time went to other guests "
          f"during the main lane (hypervisor steal, from /proc/stat)")
    print(f"  rounds: warmup={warmup} timed={n} setup_repeats={benchlib.SETUP_REPEATS}"
          + (f" checkpoint_fs={env['checkpoint_fs']}" if "checkpoint_fs" in env else ""))
    print(f"  setup_s       {fmt(values['setup_s'])} s   (median of {len(main['setup_s'])} "
          f"set-ups: {', '.join(fmt(s) for s in main['setup_s'])})")
    print(f"  round_ms_p50  {fmt(values['round_ms_p50'])} ms  (n={n})")
    print(f"  round_ms_p90  {fmt(values['round_ms_p90'])} ms  (n={n}, "
          f"{benchlib.samples_beyond(n, 90.0)} rounds beyond; highest percentile with "
          f">={benchlib.MIN_BEYOND} beyond: p{fmt(top)} = "
          f"{fmt(benchlib.percentile(main['round_ms'], top))} ms)")
    print(f"  run_s         {fmt(values['run_s'])} s")
    print(f"  peak_rss_mb   {fmt(values['peak_rss_mb'])} MB"
          + ("  (coordinator + forked workers)" if workload == "wire_1m" else ""))
    print(f"  failed_frac   {failed}/{main['attempted']} = "
          f"{fmt(failed / main['attempted'])} ratio")
    if "auction.quorum_closes" in main["values"]:
        quorum = benchlib.fold(main["values"]["auction.quorum_closes"])
        deadline = benchlib.fold(main["values"]["auction.deadline_closes"])
        print(f"  close mix     quorum={quorum:.0f} deadline={deadline:.0f}")
    print(f"  reference     rounds 1-{check}: "
          f"{check - len(mismatched)}/{check} bit-identical; tape digest "
          f"(seed {seed}) = {tape_digest(main['digests'])}")
    for reason in main["failures"] + reference["failures"]:
        print(f"  FAILED        {reason}")
    for r in mismatched:
        print(f"  FAILED        round {r}: differs from the reference lane")
    return line


def run_traced(binary, workload, seed, work_dir, threads):
    trace_dir = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    per_workload = {}
    attempted = 0
    failed = 0
    print(f"perfbench traced run: seed={seed}, every workload in its own process")
    for name in benchlib.WORKLOADS:
        warmup, untraced, traced = TRACE_ROUNDS[name]
        trace_path = os.path.abspath(os.path.join(trace_dir, f"{name}-seed{seed}.json"))
        lane = run_lane(binary, name, "trace", seed, os.path.join(work_dir, name), threads,
                        setup_repeats=3, warmup_rounds=warmup, rounds=untraced,
                        trace_rounds=traced, trace_out=trace_path)
        with open(trace_path) as handle:
            events = json.load(handle)["traceEvents"]
        values = benchlib.layer_values(lane, events, threads)
        per_workload[name] = values
        attempted += lane["attempted"]
        failed += lane["failed"]
        traced_ms = benchlib.traced_round_ms(name, events)
        untraced_ms = statistics.median(lane["round_ms"])
        gap = traced_ms - untraced_ms
        glue = values.get("bench.round_ms")
        print(f"  {name}: traced round {traced_ms:.4g} ms (sum of layer self times over "
              f"{traced} rounds) vs untraced round_ms_p50 {untraced_ms:.4g} ms "
              f"({len(lane['round_ms'])} rounds, same process): tracing overhead "
              f"{gap:+.4g} ms ({100.0 * gap / untraced_ms:+.1f}%)"
              + (f"; benchmark glue between calls {glue:.3g} ms" if glue else ""))
        print(f"    trace file: {trace_path}")
        for reason in lane["failures"]:
            print(f"    FAILED {reason}")

    print("  per-layer metrics (value from the workload in brackets):")
    for name, unit, homes in benchlib.PER_LAYER:
        source = workload if workload in homes else homes[0]
        others = ", ".join(f"{home} {fmt(per_workload[home][name])}"
                           for home in homes if home != source)
        print(f"    {name:28s} {fmt(per_workload[source][name]):>10s} {unit:7s} [{source}]"
              + (f"  also {others}" if others else ""))
    print("  measured from outside as follows:")
    print("    ml.*, fl.fedavg: replayed by the benchmark on the fl_cifar world for the last"
          " rounds (the coordinator's own calls run inside fl::Coordinator::run)")
    print("    fl.coordinator: round span minus mec.select inside the real run;"
          " fl.worker_util = (ml.train_ms + ml.eval_ms) / (threads x fl.coordinator_ms),"
          " computed")
    print("    market_1m/stream_1m layers: the selector's round composed from its public"
          " calls on a twin world, checked bit-identical to the selector every round")
    print("    mec.worker_busy: worker CPU time from /proc/<pid>/schedstat (workers are"
          " other processes); mec.wire_wait = run_round wall - max worker busy, computed")
    print("    auction.ingest_mbids_per_s = arrived_bids / ingest_ms, computed")
    metrics = benchlib.pick_layers(workload, per_workload)
    return benchlib.result_line(failed == 0, attempted, failed, metrics)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*benchlib.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
        threads = usable_cores()
        work_dir = os.path.abspath(os.path.join(BUILD_ROOT, "runs",
                                                f"{args.workload}-{os.getpid()}"))
        os.makedirs(work_dir, exist_ok=True)
        try:
            if args.trace:
                line = run_traced(binary, args.workload, args.seed, work_dir, threads)
            elif args.workload == "all":
                lines = {}
                for name in benchlib.WORKLOADS:
                    lines[name] = run_end_to_end(binary, name, args.seed, args.seconds,
                                                 os.path.join(work_dir, name), threads)
                print(f"{'workload':10s} " + " ".join(f"{m:>14s}" for m, _ in
                                                       benchlib.END_TO_END)
                      + "    failed_frac")
                for name, result in lines.items():
                    cells = " ".join(f"{fmt(result['metrics'][m]['value']):>11s} {u:2s}"
                                     for m, u in benchlib.END_TO_END)
                    print(f"{name:10s} {cells}    {result['failed']}/{result['attempted']}")
                line = lines
            else:
                line = run_end_to_end(binary, args.workload, args.seed, args.seconds,
                                      work_dir, threads)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
