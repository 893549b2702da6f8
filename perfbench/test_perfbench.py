"""Tests of the benchmark's own logic, and the seed self-test.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The seed self-test builds the driver (as run.py does) and runs one unit of
each simulated workload at two seeds."""

import json
import os
import subprocess
import unittest

import benchlib
import run


class PercentileRuleTest(unittest.TestCase):
    def test_interpolates_like_the_library(self):
        self.assertEqual(benchlib.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(benchlib.percentile([1, 2, 3, 4], 0), 1)
        self.assertEqual(benchlib.percentile([1, 2, 3, 4], 100), 4)
        self.assertAlmostEqual(benchlib.percentile(list(range(101)), 99), 99)

    def test_highest_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(benchlib.top_percentile(99))
        self.assertEqual(benchlib.top_percentile(100), 90.0)
        self.assertEqual(benchlib.top_percentile(999), 95.0)
        self.assertEqual(benchlib.top_percentile(1000), 99.0)
        self.assertEqual(benchlib.top_percentile(9999), 99.0)
        self.assertEqual(benchlib.top_percentile(10000), 99.9)
        self.assertEqual(benchlib.top_percentile(10 ** 6), 99.999)

    def test_description_states_the_sample_count(self):
        text = benchlib.describe_timing([float(i) for i in range(1000)], "ms")
        self.assertIn("median 499.5 ms", text)
        self.assertIn("p99 ", text)
        self.assertTrue(text.endswith("n=1000"))
        self.assertNotIn(", p", benchlib.describe_timing([1.0, 2.0], "s"))


def span(start, end, parent):
    return {"start": start, "end": end, "parent": parent}


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(benchlib.self_times([span(1.0, 3.5, -1)]), [2.5])

    def test_children_are_subtracted_once_where_they_overlap(self):
        spans = [span(0, 10, -1), span(1, 3, 0), span(2, 5, 0), span(7, 8, 0)]
        selfs = benchlib.self_times(spans)
        self.assertEqual(selfs[0], 10 - (4 + 1))
        self.assertEqual(selfs[1:], [2, 3, 1])

    def test_only_direct_children_count_and_are_clipped(self):
        spans = [span(0, 10, -1), span(2, 6, 0), span(3, 4, 1),
                 span(9, 12, 0)]
        selfs = benchlib.self_times(spans)
        self.assertEqual(selfs[0], 10 - 4 - 1)  # child 3 clipped to [9, 10]
        self.assertEqual(selfs[1], 3)
        self.assertEqual(selfs[2], 1)


def rung(rate, sent, returned, p99):
    return {"rate_pps": rate, "sent": sent, "returned": returned,
            "p99_ms": p99}


class MaxRateTest(unittest.TestCase):
    def test_highest_rung_before_the_first_failure(self):
        rungs = [rung(4000, 4400, 4400, 30), rung(1000, 1100, 1100, 9),
                 rung(8000, 8800, 8700, 40), rung(2000, 2200, 2200, 14)]
        self.assertEqual(benchlib.max_rate(rungs, 50)["rate_pps"], 4000)

    def test_latency_limit_fails_a_lossless_rung(self):
        rungs = [rung(1000, 1100, 1100, 9), rung(2000, 2200, 2200, 60)]
        self.assertEqual(benchlib.max_rate(rungs, 50)["rate_pps"], 1000)

    def test_a_pass_above_a_failure_does_not_count(self):
        rungs = [rung(1000, 1100, 1100, 9), rung(2000, 2200, 2199, 9),
                 rung(4000, 4400, 4400, 9)]
        self.assertEqual(benchlib.max_rate(rungs, 50)["rate_pps"], 1000)

    def test_failing_lowest_rung_gives_none(self):
        self.assertIsNone(benchlib.max_rate([rung(1000, 1100, 1099, 9)], 50))


class SpreadTest(unittest.TestCase):
    def test_seed_ranges_are_inclusive(self):
        self.assertEqual(benchlib.parse_seeds("7"), [7])
        self.assertEqual(benchlib.parse_seeds("0-3"), [0, 1, 2, 3])

    def test_quartile_distance_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
        self.assertAlmostEqual(benchlib.relative_spread(values), 5.0 / 5.0)


class HostSpeedTest(unittest.TestCase):
    """Times are scaled by the reference kernel pass on the reference host
    over the pass measured around them."""

    CONFIG = {"host_speed": {"reference_calib_s": 0.04}}

    @staticmethod
    def raw(calibs, setup_calibs):
        units = [{"wall_s": 1.0, "cpu_s": 1.0, "probes": 100, "calib_s": c}
                 for c in calibs]
        return {"workload": "paper_path", "units": units,
                "setup_s": [0.5] * max(1, len(setup_calibs)),
                "setup_calib_s": setup_calibs, "peak_rss_kb": 1024}

    def test_a_host_half_as_fast_halves_the_times(self):
        speed, setup = run.host_speed(self.raw([0.08, 0.02], [0.08, 0.04]),
                                      self.CONFIG)
        self.assertEqual(speed, [0.5, 2.0])
        self.assertEqual(setup, [0.5, 1.0])

    def test_end_to_end_times_are_at_the_reference_speed(self):
        metrics = run.end_to_end(
            self.raw([0.08, 0.08, 0.08], [0.02, 0.02, 0.08]), self.CONFIG, [])
        self.assertEqual(metrics["wall_s"], 0.5)
        self.assertEqual(metrics["setup_s"], 1.0)
        self.assertEqual(metrics["probes_per_s"], 200.0)
        self.assertEqual(metrics["rtt_excess_p50_ms"], 5.0)


class LayerTableTest(unittest.TestCase):
    """BENCHMARK.json, config.json and README.md name the same layer
    metrics, each with the end-to-end metric and workload it moves."""

    def test_every_layer_metric_is_mapped_and_documented(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            listed = {m["name"] for m in json.load(f)["per_layer"]}
        rows = run.load_json("config.json")["layers"]
        self.assertEqual({r["metric"] for r in rows}, listed)
        with open(os.path.join(run.HERE, "README.md")) as f:
            readme = f.read()
        for row in rows:
            self.assertTrue(row["moves"] and row["on"] and row["unmoved_on"])
            self.assertIn(f"`{row['metric']}`", readme)


class SeedSelfTest(unittest.TestCase):
    """A second seed changes every workload's digest, and both seeds
    reproduce their reference digests with every output check passing
    (the driver exits non-zero when a check fails)."""

    SEEDS = (1, 2)

    @classmethod
    def setUpClass(cls):
        cls.driver = run.build()
        cls.references = run.load_json("references.json")

    def digest(self, workload, seed):
        proc = subprocess.run(
            [self.driver, "--workload", workload, "--seed", str(seed),
             "--digest-only"], capture_output=True, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout)["digest"]

    def test_second_seed_changes_every_digest_and_passes(self):
        for workload in ("paper_path", "mesh_sharded", "fabric_build"):
            with self.subTest(workload=workload):
                first, second = (self.digest(workload, s) for s in self.SEEDS)
                self.assertNotEqual(first, second)
                expected = self.references[workload]
                self.assertEqual(first, expected[str(self.SEEDS[0])])
                self.assertEqual(second, expected[str(self.SEEDS[1])])


if __name__ == "__main__":
    os.chdir(run.ROOT)
    unittest.main()
