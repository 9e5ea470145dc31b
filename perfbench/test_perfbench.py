"""Tests of the benchmark's own code: the percentile rule, the kept
expected outputs, and that every result file is valid JSON.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import re
import unittest
from pathlib import Path

import run
import stats

HERE = Path(__file__).resolve().parent


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertEqual(stats.percentile(list(range(1, 1001)), 99), 990)
        self.assertIsNone(stats.percentile(list(range(1, 1000)), 99))
        self.assertIsNone(stats.percentile(list(range(29)), 99))

    def test_median_rule(self):
        self.assertEqual(stats.percentile(list(range(1, 21)), 50), 10)
        self.assertIsNone(stats.percentile(list(range(1, 20)), 50))

    def test_order_does_not_matter(self):
        v = [5.0, 1.0, 4.0, 2.0, 3.0] * 300
        self.assertEqual(stats.percentile(v, 90), 5.0)
        self.assertEqual(stats.percentile(v, 10), 1.0)

    def test_bad_input(self):
        self.assertIsNone(stats.percentile([], 50))
        self.assertIsNone(stats.percentile([1.0] * 100, 100))
        self.assertIsNone(stats.percentile([1.0] * 100, 0))

    def test_tail_falls_back(self):
        self.assertEqual(stats.tail(list(range(1, 2001)))[0], 99)
        # 87 slabs (three cold campaigns) support p88, no higher.
        p, v = stats.tail(list(range(1, 88)))
        self.assertEqual((p, v), (88, 77))
        # 19 figure pipelines support no percentile above the median.
        self.assertEqual(stats.tail(list(range(1, 20))), (50, 10))


class KeptFilesTest(unittest.TestCase):
    def test_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(
            set(spec), {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"})
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(run.WORKLOADS))
        e2e = {m["name"]: m for m in spec["end_to_end"]}
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                 "rps": "1/s", "p50_us": "us", "p99_us": "us"}
        self.assertEqual(set(e2e), set(units))
        self.assertEqual(e2e["setup_s"]["bound"],
                         max(m["bound"] for m in e2e.values()))
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
            self.assertEqual(m["unit"], units[m["name"]])
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))

    def test_every_per_layer_metric_is_emitted(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        src = (HERE / "driver.cc").read_text() + (HERE / "run.py").read_text()
        for m in spec["per_layer"]:
            self.assertIn(f'"{m["name"]}"', src, m["name"])

    def test_slab_digests(self):
        kept = json.loads((HERE / "expected" / "slab_digests.json")
                          .read_text())
        self.assertEqual(len(kept["digests"]), 29)
        self.assertTrue(all(re.fullmatch(r"[0-9a-f]{16}", d)
                            for d in kept["digests"]))

    def test_figures_match_build_list(self):
        cmake = (HERE / "CMakeLists.txt").read_text()
        listed = re.search(r"set\(PERFBENCH_FIGURES(.*?)\)", cmake, re.S)
        self.assertEqual(sorted(listed.group(1).split()),
                         run.figure_names())

    def test_sec3_drops_only_wall_clock_rows(self):
        text = ("== opt level ==\n| a | 1 |\n"
                "== O2 pipeline wall clock on x (suite totals) ==\n"
                "| dce | 0.62 |\n"
                "== next ==\n| b | 2 |\n")
        want = "== opt level ==\n| a | 1 |\n== next ==\n| b | 2 |\n"
        self.assertEqual(run.canonical("sec3_codegen_stats", text), want)
        self.assertEqual(run.canonical("fig05_multiprog_throughput",
                                       text), text)
        kept = (HERE / "expected" / "figures" /
                "sec3_codegen_stats.txt").read_text()
        self.assertIn("wall clock", kept)
        self.assertNotIn("wall clock", run.canonical(
            "sec3_codegen_stats", kept))


class ResultFilesTest(unittest.TestCase):
    def test_results_parse(self):
        results = sorted((run.BUILD / "results").glob("*.json"))
        for path in results:
            with self.subTest(path=path.name):
                doc = json.loads(path.read_text())
                if path.name.startswith("spans-"):
                    self.assertIsInstance(doc, list)
                    continue
                res = doc["result"]
                self.assertEqual(set(res), {"correct", "attempted",
                                            "failed", "metrics"})
                self.assertGreaterEqual(res["attempted"], 1)
                for key in ("nproc", "avx512_flags", "CISA_THREADS",
                            "build_type", "git_rev", "CISA_SIM_UOPS",
                            "CISA_SIM_WARMUP"):
                    self.assertIn(key, doc["host"])


if __name__ == "__main__":
    unittest.main()
