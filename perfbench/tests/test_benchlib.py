"""Tests of the benchmark's metric rules and output schema.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import math
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import benchlib  # noqa: E402
import run  # noqa: E402


def span(span_id, name, ts, dur, parent=-1, round_id=1):
    return {"name": name, "ts": float(ts), "dur": float(dur),
            "args": {"id": span_id, "parent": parent, "round": round_id}}


class PercentileRule(unittest.TestCase):
    def test_ten_samples_beyond_decide_the_percentile(self):
        self.assertEqual(benchlib.highest_percentile(100), 90.0)
        self.assertEqual(benchlib.highest_percentile(199), 90.0)
        self.assertEqual(benchlib.highest_percentile(200), 95.0)
        self.assertEqual(benchlib.highest_percentile(1000), 99.0)
        self.assertEqual(benchlib.highest_percentile(10000), 99.9)
        self.assertEqual(benchlib.highest_percentile(99), 75.0)
        self.assertEqual(benchlib.highest_percentile(20), 50.0)
        self.assertIsNone(benchlib.highest_percentile(19))

    def test_samples_beyond_counts_strictly_above_the_rank(self):
        self.assertEqual(benchlib.samples_beyond(100, 90.0), 10)
        self.assertEqual(benchlib.samples_beyond(99, 90.0), 9)
        self.assertEqual(benchlib.samples_beyond(101, 90.0), 10)

    def test_nearest_rank_percentile(self):
        values = list(range(100, 0, -1))  # unsorted on purpose
        self.assertEqual(benchlib.percentile(values, 90.0), 90)
        self.assertEqual(benchlib.percentile(values, 50.0), 50)
        self.assertEqual(benchlib.percentile(values, 100.0), 100)
        self.assertEqual(benchlib.percentile([7.0], 90.0), 7.0)
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50.0)

    def test_p90_needs_enough_rounds(self):
        main = {"setup_s": [0.3, 0.1, 0.2], "round_ms": [float(i) for i in range(1, 100)],
                "run_s": 5.0, "peak_rss_kib": 2048}
        with self.assertRaises(ValueError):
            benchlib.end_to_end(main)
        main["round_ms"].append(100.0)
        values = benchlib.end_to_end(main)
        self.assertEqual(values["round_ms_p90"], 90.0)
        self.assertEqual(values["round_ms_p50"], 50.5)
        self.assertEqual(values["setup_s"], 0.2)
        self.assertEqual(values["peak_rss_mb"], 2.0)

    def test_quartiles_are_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.5, 12.0, 10.2, 9.8, 10.1, 10.9, 11.5]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(benchlib.quartiles(values), (q1, q2, q3))

    def test_run_sizes_meet_the_rule_at_any_length(self):
        for workload, spec in benchlib.WORKLOADS.items():
            for seconds in (0.5, 1, 10, 60):
                warmup, timed = run.run_sizes(workload, seconds)
                self.assertGreaterEqual(benchlib.samples_beyond(timed, 90.0),
                                        benchlib.MIN_BEYOND)
                self.assertGreaterEqual(warmup, spec["check_rounds"])


class SelfTimes(unittest.TestCase):
    def test_self_time_subtracts_covered_child_time_once(self):
        events = [
            span(0, "round", 0, 100),
            span(1, "a", 10, 30, parent=0),
            span(2, "b", 30, 20, parent=0),   # overlaps a by 10
            span(3, "c", 90, 50, parent=0),   # runs past the parent's end
        ]
        times = benchlib.self_times(events)
        self.assertAlmostEqual(times["round"][0], (100 - 40 - 10) / 1000.0)
        self.assertAlmostEqual(times["a"][0], 0.030)

    def test_groups_by_round_and_setup_occurrence(self):
        events = [
            span(0, "setup", 0, 1000, round_id=-1),
            span(1, "setup", 2000, 3000, round_id=-1),
            span(2, "collect", 5000, 100, round_id=1),
            span(3, "collect", 5100, 300, round_id=1),
            span(4, "collect", 6000, 200, round_id=2),
        ]
        times = benchlib.self_times(events)
        self.assertEqual(sorted(times["setup"]), [1.0, 3.0])
        self.assertEqual(sorted(times["collect"]), [0.2, 0.4])

    def test_traced_round_sums_the_round_layers(self):
        events = [
            span(0, "bench.round", 0, 1000, round_id=3),
            span(1, "mec.evolve", 0, 200, parent=0, round_id=3),
            span(2, "mec.collect", 200, 300, parent=0, round_id=3),
            span(3, "mec.collect", 500, 300, parent=0, round_id=3),
            span(4, "auction.equilibrium", 0, 5000, round_id=-1),
        ]
        self.assertAlmostEqual(benchlib.traced_round_ms("market_1m", events), 0.8)

    def test_derived_layer_values(self):
        lane = {"values": {"auction.arrived_bids": {"fold": "median", "values": [900000.0]},
                           "auction.quorum_closes": {"fold": "sum", "values": [1, 0, 1]},
                           "core.checkpoint_kb": {"fold": "last", "values": [10.0, 12.0]}}}
        events = [span(0, "auction.ingest", 0, 150000)]
        values = benchlib.layer_values(lane, events, threads=4)
        self.assertAlmostEqual(values["auction.ingest_mbids_per_s"], 6.0)
        self.assertEqual(values["auction.quorum_closes"], 2.0)
        self.assertEqual(values["core.checkpoint_kb"], 12.0)

        lane = {"values": {}}
        events = [span(0, "fl.coordinator", 0, 100000),
                  span(1, "ml.train", 0, 200000, round_id=1),
                  span(2, "ml.eval", 0, 40000, round_id=1)]
        values = benchlib.layer_values(lane, events, threads=4)
        self.assertAlmostEqual(values["fl.worker_util"], 240.0 / 400.0)


class Schema(unittest.TestCase):
    def metrics(self):
        return {name: {"value": 1.5, "unit": unit} for name, unit in benchlib.END_TO_END}

    def test_a_good_line_round_trips_through_json(self):
        line = benchlib.result_line(True, 120, 0, self.metrics())
        self.assertEqual(json.loads(json.dumps(line)), line)

    def test_rejects_malformed_lines(self):
        names = [name for name, _ in benchlib.END_TO_END]
        good = {"correct": True, "attempted": 10, "failed": 0, "metrics": self.metrics()}
        bad_lines = [
            {**good, "extra": 1},
            {k: v for k, v in good.items() if k != "failed"},
            {**good, "correct": 1},
            {**good, "attempted": 0},
            {**good, "attempted": True},
            {**good, "failed": 11},
            {**good, "attempted": 10.0},
            {**good, "metrics": {**good["metrics"], "setup_s": {"value": math.nan,
                                                                 "unit": "s"}}},
            {**good, "metrics": {**good["metrics"], "setup_s": {"value": 1.0}}},
            {**good, "metrics": {k: v for k, v in good["metrics"].items() if k != "run_s"}},
        ]
        benchlib.validate_result(good, names)
        for line in bad_lines:
            with self.assertRaises(ValueError, msg=str(line)):
                benchlib.validate_result(line, names)

    def test_pick_layers_takes_the_requested_workload_when_it_has_the_layer(self):
        per_workload = {w: {name: float(i) for name, _, _ in benchlib.PER_LAYER}
                        for i, w in enumerate(benchlib.WORKLOADS)}
        metrics = benchlib.pick_layers("stream_1m", per_workload)
        stream = list(benchlib.WORKLOADS).index("stream_1m")
        market = list(benchlib.WORKLOADS).index("market_1m")
        fl = list(benchlib.WORKLOADS).index("fl_cifar")
        self.assertEqual(metrics["mec.evolve_ms"]["value"], stream)
        self.assertEqual(metrics["auction.rank_ms"]["value"], market)
        self.assertEqual(metrics["ml.train_ms"]["value"], fl)
        self.assertEqual(set(metrics), {name for name, _, _ in benchlib.PER_LAYER})

    def test_benchmark_json_mirrors_the_metric_tables(self):
        path = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")
        with open(path) as handle:
            spec = json.load(handle)
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual({w["name"]: w["why"] for w in spec["workloads"]},
                         {name: benchlib.WORKLOADS[name]["why"] for name in benchlib.DECLARED})
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         benchlib.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         [(name, unit) for name, unit, _ in benchlib.PER_LAYER])
        for metric in spec["end_to_end"]:
            self.assertEqual(metric["better"], "lower")
            self.assertLessEqual(metric["bound"], 0.25)
        setup_bound = [m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup_bound, max(m["bound"] for m in spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
