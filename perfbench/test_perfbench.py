#!/usr/bin/env python3
"""Tests for the benchmark harness itself.

    python3 perfbench/test_perfbench.py

Covers the summary math (median, quartile spread, percentiles and the
">= 10 samples beyond" rule), the metric reduction, the seeded inputs, and
-- through `perfbench_harness selftest`, built on demand -- that the
correctness gate rejects a response with one byte flipped.
"""

import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import stats  # noqa: E402


class Quartiles(unittest.TestCase):
    def test_quartile_spread(self):
        # statistics.quantiles(1..10, n=4) = [2.75, 5.5, 8.25].
        self.assertAlmostEqual(stats.quartile_spread(range(1, 11)), 5.5 / 5.5)
        self.assertEqual(stats.quartile_spread([7.0] * 10), 0.0)
        self.assertAlmostEqual(
            stats.quartile_spread(
                [100, 101, 99, 100, 102, 98, 100, 100, 101, 99]),
            (101 - 99) / 100)


class Percentiles(unittest.TestCase):
    def test_interpolates_between_order_statistics(self):
        self.assertEqual(stats.percentile(list(range(1, 11)), 0.5), (5.5, 5))
        value, beyond = stats.percentile(list(range(100)), 0.9)
        self.assertAlmostEqual(value, 89.1)
        self.assertEqual(beyond, 10)

    def test_single_sample(self):
        self.assertEqual(stats.percentile([4.2], 0.9), (4.2, 0))

    def test_order_does_not_matter(self):
        xs = [5, 1, 9, 3, 7, 2, 8]
        self.assertEqual(stats.percentile(xs, 0.9),
                         stats.percentile(sorted(xs), 0.9))

    def test_ten_beyond_rule(self):
        n = stats.samples_needed(0.9)
        self.assertGreaterEqual(stats.percentile(list(range(n)), 0.9)[1], 10)
        self.assertLess(stats.percentile(list(range(n - 1)), 0.9)[1], 10)
        self.assertGreater(stats.samples_needed(0.99), 900)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 0.5)


def raw_window(**over):
    raw = {"setup_s": [0.3, 0.2, 0.4], "window_s": 10.0, "cpu_s": 15.0,
           "requests": 200, "runs": 9200, "messages": 4_000_000,
           "computed_runs": 9200,
           "latency_ms": [float(i) for i in range(1, 201)],
           "peak_rss_mb": 16.0, "attempted": 200, "failed": 0}
    raw.update(over)
    return raw


class Reduction(unittest.TestCase):
    def test_end_to_end(self):
        m = run.end_to_end(raw_window())
        self.assertEqual(set(m), {name for name, _ in run.END_TO_END})
        self.assertEqual(m["setup_s"][0], 0.3)
        self.assertIn("median of 3 set-ups, quartile spread 0.667",
                      m["setup_s"][1])
        self.assertEqual(m["runs_per_s"][0], 920.0)
        self.assertEqual(m["requests_per_s"][0], 20.0)
        self.assertEqual(m["sim_msgs_per_s"][0], 400_000.0)
        self.assertAlmostEqual(m["cpu_ms_per_run"][0], 15_000 / 9200)
        self.assertEqual(m["request_ms_p50"][0], 100.5)
        self.assertIn("n=200, 100 beyond", m["request_ms_p50"][1])
        self.assertEqual(m["success_frac"][0], 1.0)

    def test_setup_median_of_even_count(self):
        m = run.end_to_end(raw_window(setup_s=[0.4, 0.1, 0.3, 0.2]))
        self.assertAlmostEqual(m["setup_s"][0], 0.25)

    def test_failures_lower_success_frac(self):
        m = run.end_to_end(raw_window(attempted=200, failed=1))
        self.assertEqual(m["success_frac"][0], 199 / 200)

    def test_per_layer_requires_every_metric(self):
        layers = {name: {"unit": "ms", "samples": [1.0, 2.0, 3.0]}
                  for name in run.PER_LAYER
                  if not name.startswith(("client.", "trace."))}
        out = run.per_layer(raw_window(layers=layers, window_s=11.0),
                            [raw_window(), raw_window(window_s=10.5)])
        self.assertEqual(out["graph.gen_ms"][0], 2.0)
        self.assertIn("n=200, 20 beyond", out["client.request_ms_p90"][2])
        self.assertAlmostEqual(out["trace.overhead_frac"][0], 11.0 / 10.25 - 1)
        del layers["net.ping_us"]
        with self.assertRaises(run.BenchError):
            run.per_layer(raw_window(layers=layers), [raw_window()])


class Inputs(unittest.TestCase):
    def files(self, workload, seed):
        with tempfile.TemporaryDirectory() as d:
            run.write_inputs(workload, seed, Path(d))
            return {str(p.relative_to(d)): p.read_text()
                    for p in sorted(Path(d).rglob("*.job"))}

    def test_same_seed_same_inputs(self):
        for w in run.WORKLOADS:
            self.assertEqual(self.files(w, 7), self.files(w, 7))
            self.assertNotEqual(self.files(w, 7), self.files(w, 8))

    def test_warm_pool_shape(self):
        files = self.files("serve-warm", 1)
        self.assertEqual(len(files), run.WARM_POOL_FILES)
        runs = sum(count for _, _, count, _ in run.SERVE_JOBS)
        self.assertEqual(runs, 46)


class Gate(unittest.TestCase):
    def test_flipped_byte_is_a_failure(self):
        os.chdir(HERE.parent)
        run.build()
        out = subprocess.run([str(run.HARNESS), "selftest"],
                             capture_output=True, text=True)
        self.assertEqual(out.returncode, 0, out.stderr)
        self.assertIn("selftest ok", out.stdout)


if __name__ == "__main__":
    unittest.main()
