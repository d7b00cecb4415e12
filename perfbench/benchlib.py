"""Metric rules of the benchmark: percentiles, the trace fold into per-layer
self times, and the schema of the result line. `run.py` and `aa.py` share
them; `tests/test_benchlib.py` covers them."""

import math
import statistics

# Set-up repetitions per run; setup_s is their median.
SETUP_REPEATS = 5
# Untimed rounds before timing starts, in seconds of nominal round rate
# (an idle VM runs its first ~1.5 s at about twice the steady round time).
WARMUP_S = 1.5
# A percentile is reported only with at least this many rounds beyond it.
MIN_BEYOND = 10
# So round_ms_p90 needs at least this many timed rounds.
MIN_TIMED_ROUNDS = 100

# Why each workload is in the benchmark (mirrored in BENCHMARK.json), whether
# BENCHMARK.json declares it, the nominal round rate that sizes a run from
# --seconds, how many leading rounds are checked against the reference lane,
# and the thread count of that lane. market_1m and stream_1m are not
# declared: on a VM whose vCPUs and last-level cache are shared with other
# guests, their round times spread 18-34% (market_1m, hypervisor steal:
# every parallel section waits for its slowest vCPU) and 26-31%
# (stream_1m, cache contention: 105 ms vs 185 ms per round at no steal)
# between runs, beyond any usable bound. Both still run with run.py and in
# every traced run, which measures their layers.
WORKLOADS = {
    "fl_cifar": {
        "declared": True,
        "why": "FL rounds bound by training: ml kernels, coordinator fan-out "
               "and per-round checkpoints show; market changes should not",
        "rounds_per_s": 15.0,
        "check_rounds": 5,
        "reference_threads": 1,
    },
    "market_1m": {
        "declared": False,
        "why": "1M-node market, 8 in-process shards: evolve, collect+score, "
               "rank, merge, select/price and record assembly, no training",
        "rounds_per_s": 20.0,
        "check_rounds": 5,
        "reference_threads": None,
    },
    "stream_1m": {
        "declared": False,
        "why": "1M bids per round ingested one at a time into an incremental "
               "top-K, closing on quorum or deadline",
        "rounds_per_s": 5.5,
        "check_rounds": 3,
        "reference_threads": None,
    },
    "wire_1m": {
        "declared": True,
        "why": "1M-node market over forked shard workers: parallel processes, "
               "CRC-framed pipe I/O and the head merge on the critical path",
        "rounds_per_s": 45.0,
        "check_rounds": 5,
        "reference_threads": None,
    },
}

DECLARED = [name for name, spec in WORKLOADS.items() if spec["declared"]]

END_TO_END = [
    ("setup_s", "s"),
    ("round_ms_p50", "ms"),
    ("round_ms_p90", "ms"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
]

# name, unit, the workloads that exercise the layer (the first one is
# where the value comes from when the requested workload does not).
PER_LAYER = [
    ("ml.dataset_ms", "ms", ["fl_cifar"]),
    ("ml.partition_ms", "ms", ["fl_cifar"]),
    ("ml.forward_ms", "ms", ["fl_cifar"]),
    ("ml.backward_ms", "ms", ["fl_cifar"]),
    ("ml.train_ms", "ms", ["fl_cifar"]),
    ("ml.samples_trained", "count", ["fl_cifar"]),
    ("ml.eval_ms", "ms", ["fl_cifar"]),
    ("ml.samples_evaluated", "count", ["fl_cifar"]),
    ("fl.coordinator_ms", "ms", ["fl_cifar"]),
    ("fl.fedavg_ms", "ms", ["fl_cifar"]),
    ("fl.worker_util", "ratio", ["fl_cifar"]),
    ("core.checkpoint_ms", "ms", ["fl_cifar"]),
    ("core.checkpoint_kb", "KB", ["fl_cifar"]),
    ("core.eq_cache_hits", "count", ["fl_cifar"]),
    ("core.eq_cache_misses", "count", ["fl_cifar"]),
    ("auction.equilibrium_ms", "ms", ["market_1m", "stream_1m", "wire_1m", "fl_cifar"]),
    ("auction.tie_keys_ms", "ms", ["market_1m"]),
    ("auction.rank_ms", "ms", ["market_1m"]),
    ("auction.merge_ms", "ms", ["market_1m"]),
    ("auction.select_price_ms", "ms", ["market_1m"]),
    ("auction.ingest_ms", "ms", ["stream_1m"]),
    ("auction.arrived_bids", "count", ["stream_1m"]),
    ("auction.ingest_mbids_per_s", "Mbid/s", ["stream_1m"]),
    ("auction.head_churn_frac", "ratio", ["stream_1m"]),
    ("auction.close_ms", "ms", ["stream_1m"]),
    ("auction.quorum_closes", "count", ["stream_1m"]),
    ("auction.deadline_closes", "count", ["stream_1m"]),
    ("mec.population_ms", "ms", ["market_1m", "stream_1m", "wire_1m"]),
    ("mec.select_ms", "ms", ["market_1m", "stream_1m", "fl_cifar"]),
    ("mec.evolve_ms", "ms", ["market_1m", "stream_1m"]),
    ("mec.collect_ms", "ms", ["market_1m", "stream_1m"]),
    ("mec.bids_collected", "count", ["market_1m", "stream_1m"]),
    ("mec.arrivals_ms", "ms", ["stream_1m"]),
    ("mec.record_ms", "ms", ["market_1m", "stream_1m"]),
    ("mec.record_kb", "KB", ["market_1m", "stream_1m"]),
    ("mec.fork_ms", "ms", ["wire_1m"]),
    ("mec.worker_busy_ms", "ms", ["wire_1m"]),
    ("mec.wire_wait_ms", "ms", ["wire_1m"]),
    ("mec.evictions", "count", ["wire_1m"]),
    ("mec.respawns", "count", ["wire_1m"]),
    ("mec.corrupt_frames", "count", ["wire_1m"]),
    ("mec.frame_retries", "count", ["wire_1m"]),
    ("mec.dropped_shards", "count", ["wire_1m"]),
]

# The spans one round is made of, per workload: their self times add up to
# the traced round, set next to the untraced round_ms_p50.
ROUND_LAYERS = {
    "fl_cifar": ["mec.select", "fl.coordinator"],
    "market_1m": ["mec.evolve", "mec.collect", "auction.tie_keys", "auction.rank",
                  "auction.merge", "auction.select_price", "mec.record"],
    "stream_1m": ["mec.evolve", "mec.collect", "mec.arrivals", "auction.ingest",
                  "auction.close", "mec.record"],
    "wire_1m": ["mec.run_round"],
}


def _rank(n, p):
    """1-based nearest rank of the p-th percentile of n samples (rounded
    first, so 99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - _rank(n, p)


def highest_percentile(n, candidates=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)):
    """The highest candidate percentile with at least MIN_BEYOND samples
    beyond it, or None when even the median has fewer."""
    for p in candidates:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(main):
    """The end-to-end metrics of one main-lane result."""
    rounds = main["round_ms"]
    if samples_beyond(len(rounds), 90.0) < MIN_BEYOND:
        raise ValueError(f"{len(rounds)} timed rounds leave fewer than {MIN_BEYOND} "
                         f"beyond the 90th percentile")
    return {
        "setup_s": statistics.median(main["setup_s"]),
        "round_ms_p50": statistics.median(rounds),
        "round_ms_p90": percentile(rounds, 90.0),
        "run_s": main["run_s"],
        "peak_rss_mb": main["peak_rss_kib"] / 1024.0,
    }


def span_self_ms(events):
    """(name, round, span id, self time in ms) of every span. Self time is
    the span's duration minus the part of it its children cover."""
    children = {}
    for event in events:
        parent = event["args"]["parent"]
        if parent >= 0:
            children.setdefault(parent, []).append(event)
    out = []
    for event in events:
        end = event["ts"] + event["dur"]
        covered = 0.0
        cursor = event["ts"]
        for child in sorted(children.get(event["args"]["id"], []), key=lambda c: c["ts"]):
            lo = max(cursor, child["ts"])
            hi = min(end, child["ts"] + child["dur"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((event["name"], event["args"]["round"], event["args"]["id"],
                    (event["dur"] - covered) / 1000.0))
    return out


def self_times(events):
    """Per span name, its self times in ms, one per group: a round (all
    spans of that name in the round summed) or, outside rounds (set-up),
    one occurrence."""
    grouped = {}
    for name, round_id, span_id, self_ms in span_self_ms(events):
        key = (name, round_id if round_id >= 0 else ("once", span_id))
        grouped[key] = grouped.get(key, 0.0) + self_ms
    per_name = {}
    for (name, _), value in grouped.items():
        per_name.setdefault(name, []).append(value)
    return per_name


def fold(series):
    """One number from a lane's value series."""
    values = series["values"]
    if series["fold"] == "sum":
        return float(sum(values))
    if series["fold"] == "last":
        return float(values[-1])
    return float(statistics.median(values))


def layer_values(lane, events, threads):
    """Every per-layer number one traced workload yields."""
    values = {}
    for name, samples in self_times(events).items():
        values[name + "_ms"] = statistics.median(samples)
    for name, series in lane["values"].items():
        values[name] = fold(series)
    if "auction.ingest_ms" in values and "auction.arrived_bids" in values:
        values["auction.ingest_mbids_per_s"] = (
            values["auction.arrived_bids"] / values["auction.ingest_ms"] / 1000.0)
    if "ml.train_ms" in values and "fl.coordinator_ms" in values:
        values["fl.worker_util"] = ((values["ml.train_ms"] + values["ml.eval_ms"])
                                    / (threads * values["fl.coordinator_ms"]))
    return values


def traced_round_ms(workload, events):
    """Median over traced rounds of the summed self times of the spans a
    round of `workload` is made of."""
    layers = set(ROUND_LAYERS[workload])
    per_round = {}
    for name, round_id, _, self_ms in span_self_ms(events):
        if name in layers and round_id >= 0:
            per_round[round_id] = per_round.get(round_id, 0.0) + self_ms
    return statistics.median(per_round.values())


def pick_layers(workload, per_workload):
    """The per-layer metrics for `workload`: each from the requested
    workload when it exercises the layer, else from the layer's first."""
    metrics = {}
    for name, unit, homes in PER_LAYER:
        source = workload if workload in homes else homes[0]
        if name not in per_workload.get(source, {}):
            raise KeyError(f"{source} produced no value for {name}")
        metrics[name] = {"value": per_workload[source][name], "unit": unit}
    return metrics


def result_line(correct, attempted, failed, metrics):
    """The last line the benchmark prints."""
    line = {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
            "metrics": metrics}
    validate_result(line, list(metrics))
    return line


def validate_result(line, metric_names):
    """Raise ValueError unless `line` has exactly the result schema and the
    named metrics, each a finite number with a unit."""
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(line)}")
    if not isinstance(line["correct"], bool):
        raise ValueError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(line[key], int) or isinstance(line[key], bool) or line[key] < 0:
            raise ValueError(f"{key} must be a whole number")
    if line["attempted"] < 1:
        raise ValueError("attempted must be at least 1")
    if line["failed"] > line["attempted"]:
        raise ValueError("failed exceeds attempted")
    if set(line["metrics"]) != set(metric_names):
        raise ValueError(f"metrics {sorted(line['metrics'])} != {sorted(metric_names)}")
    for name, metric in line["metrics"].items():
        if set(metric) != {"value", "unit"}:
            raise ValueError(f"{name}: keys {sorted(metric)}")
        value = metric["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise ValueError(f"{name}: value {value!r} is not a finite number")
        if not isinstance(metric["unit"], str) or not metric["unit"]:
            raise ValueError(f"{name}: missing unit")
