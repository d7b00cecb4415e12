#!/usr/bin/env python3
"""A/A harness: two interleaved sets of runs of the same build.

    python3 perfbench/aa.py [--workloads fl_cifar,market_1m,...] [--runs 10]
                            [--seconds S] [--out perfbench/runs/aa-<stamp>.json]

Run it from the repository root. Pair i runs every workload once in set A
(seed 1+i) and once in set B (seed 101+i), alternating which set goes first.
Per workload and end-to-end metric it reports each set's quartiles, the
interquartile spread as a share of the median, and the shift between the
two medians, and says whether the sets agree within the bound in
BENCHMARK.json (spread within the bound, setup_s excepted, and the shift
within the bound). Every run's result line is kept in the output file; the
bounds in BENCHMARK.json were set from such files in perfbench/runs/.
"""

import argparse
import datetime
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib  # noqa: E402

SET_SEEDS = {"A": 1, "B": 101}


def load_bounds():
    try:
        with open("BENCHMARK.json") as handle:
            spec = json.load(handle)
    except FileNotFoundError:
        return {}
    return {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    process = subprocess.run(command, capture_output=True, text=True, timeout=300)
    if process.returncode != 0:
        raise SystemExit(f"aa: {workload} seed {seed} failed:\n{process.stderr}")
    lines = process.stdout.strip().splitlines()
    steal = [line.split()[1] for line in lines if line.strip().startswith("steal ")]
    return json.loads(lines[-1]), float(steal[0].rstrip("%")) if steal else None


def summarize(runs, bounds):
    summary = {}
    for workload, sets in runs.items():
        rows = {}
        for name, _ in benchlib.END_TO_END:
            row = {}
            for label in ("A", "B"):
                values = [r["metrics"][name]["value"] for r in sets[label]]
                q1, median, q3 = benchlib.quartiles(values)
                row[label] = {"q1": q1, "median": median, "q3": q3,
                              "spread": (q3 - q1) / median}
            row["shift"] = (row["B"]["median"] - row["A"]["median"]) / row["A"]["median"]
            bound = bounds.get(name)
            if bound is not None:
                spreads_ok = name == "setup_s" or max(row["A"]["spread"],
                                                      row["B"]["spread"]) <= bound
                row["bound"] = bound
                row["agree"] = spreads_ok and abs(row["shift"]) <= bound
                row["steady"] = name == "setup_s" or max(row["A"]["spread"],
                                                         row["B"]["spread"]) < bound / 3
            rows[name] = row
        failures = sum(r["failed"] for label in ("A", "B") for r in sets[label])
        summary[workload] = {"metrics": rows, "failed_runs_rounds": failures}
    return summary


def print_summary(summary):
    print(f"{'workload':10s} {'metric':13s} {'A q1/med/q3':>30s} {'spread':>7s} "
          f"{'B q1/med/q3':>30s} {'spread':>7s} {'shift':>7s} {'bound':>6s} verdict")
    for workload, info in summary.items():
        for name, row in info["metrics"].items():
            cells = []
            for label in ("A", "B"):
                s = row[label]
                cells.append(f"{s['q1']:9.4g}/{s['median']:9.4g}/{s['q3']:9.4g} "
                             f"{100 * s['spread']:6.2f}%")
            verdict = ""
            if "bound" in row:
                verdict = ("agree" if row["agree"] else "DISAGREE") + \
                          ("" if row["steady"] else " (spread above bound/3)")
            bound = f"{row['bound']:6.3f}" if "bound" in row else "     -"
            print(f"{workload:10s} {name:13s} {cells[0]:>38s} {cells[1]:>38s} "
                  f"{100 * row['shift']:+6.2f}% {bound} {verdict}")
        print(f"{workload:10s} failed rounds over all runs: {info['failed_runs_rounds']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(benchlib.DECLARED))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json, else 20")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    workloads = [w for w in args.workloads.split(",") if w]
    for workload in workloads:
        if workload not in benchlib.WORKLOADS:
            parser.error(f"unknown workload {workload}")
    seconds = args.seconds
    if seconds is None:
        try:
            with open("BENCHMARK.json") as handle:
                seconds = json.load(handle)["run_seconds"]
        except FileNotFoundError:
            seconds = 20
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    out = args.out or os.path.join(HERE, "runs", f"aa-{stamp}.json")

    runs = {w: {"A": [], "B": []} for w in workloads}
    log = []
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for workload in workloads:
            for label in order:
                seed = SET_SEEDS[label] + i
                result, steal_pct = run_once(workload, seed, seconds)
                runs[workload][label].append(result)
                log.append({"pair": i, "set": label, "workload": workload, "seed": seed,
                            "steal_pct": steal_pct, "result": result})
                p50 = result["metrics"]["round_ms_p50"]["value"]
                print(f"pair {i} set {label} {workload} seed {seed}: round_ms_p50 {p50:.4g} ms, "
                      f"steal {steal_pct}%", flush=True)

    summary = summarize(runs, load_bounds())
    print_summary(summary)
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as handle:
        json.dump({"seconds": seconds, "runs_per_set": args.runs, "set_seeds": SET_SEEDS,
                   "nproc": os.cpu_count(), "runs": log, "summary": summary}, handle, indent=1)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
