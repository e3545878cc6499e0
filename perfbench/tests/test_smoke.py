#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/tests/test_smoke.py --binary <path to tvacr_perfbench>

Runs every workload with --trace 0 and --trace 1 at --size tiny and checks
that the result line follows the contract, that it carries exactly the
metrics BENCHMARK.json lists, that every figure the workload is meant to
move is actually measured (non-zero), and that run.py refuses to run where
the library sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

PACKAGE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PACKAGE)
BINARY = None

# The figures each workload must measure, by the metric names the
# benchmark prints: the per-path end-to-end figures (in the record), and
# the per-layer metrics that must be non-zero on a traced run.
NAMED = {
    "audit_hour": ["audit_samsung_s", "audit_lg_s"],
    "table_sweep": ["sweep_s"],
    "capture_ingest": ["analyze_pkts_per_s", "transcode_mb_per_s", "replay_pkts_per_s",
                       "gateway_records_per_s", "snapshot_p50_ms", "snapshot_p90_ms"],
    "fleet_population": ["households_per_s"],
}
RUN_LAYERS = ["core.testbed_build_s", "core.experiment_run_s", "tv.captures",
              "tv.batches_uploaded", "fp.backend_batches", "fp.backend_matches",
              "fp.match_ratio", "sim.packets", "core.self_s"]
LAYERS = {
    "audit_hour": RUN_LAYERS + ["analysis.analyze_s", "analysis.identify_s", "geo.locate_s",
                                "analysis.self_s", "geo.self_s", "fp.self_s",
                                "e2e.audit_samsung_s", "e2e.audit_lg_s"],
    "table_sweep": RUN_LAYERS + ["core.trace_of_s", "core.matrix.cell_s.p50",
                                 "core.matrix.cell_s.max", "core.matrix.queue_wait_s",
                                 "core.matrix.busy_ratio", "e2e.sweep_s"],
    "capture_ingest": ["net.read_s", "analysis.pass1_s", "analysis.finish_s",
                       "analysis.shard_run_s.max", "replay.transcode_s", "replay.tvcr_bytes",
                       "replay.cold_s", "replay.blocks", "gateway.poll_s", "gateway.drain_s",
                       "gateway.snapshot_s", "gateway.ring_occupancy_max", "gateway.offered",
                       "mem.rss_file_mb", "net.self_s", "analysis.self_s", "replay.self_s",
                       "gateway.self_s"] + ["e2e." + name for name in NAMED["capture_ingest"]],
    "fleet_population": ["fleet.run_s", "fleet.shard_s.p50", "fleet.shard_s.max",
                         "fleet.queue_wait_s", "fleet.events", "fleet.packets", "fleet.self_s",
                         "e2e.households_per_s"],
}
ALWAYS = ["bench.self_s", "trace.wall_s", "trace.untraced_wall_s", "trace.self_sum_s"]


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.benchmark = load_benchmark()
        cls.workdir = tempfile.mkdtemp(prefix="perfbench-smoke-")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def run_bench(self, workload, trace):
        command = [BINARY, "--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace), "--size", "tiny", "--workdir", self.workdir]
        result = subprocess.run(command, capture_output=True, text=True, timeout=300)
        self.assertEqual(result.returncode, 0, result.stderr)
        lines = result.stdout.strip().splitlines()
        record = json.loads(lines[-2])["record"]
        final = json.loads(lines[-1])
        return record, final

    def check_contract(self, final, expected):
        self.assertEqual(set(final), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(final["correct"])
        self.assertEqual(final["failed"], 0)
        self.assertGreaterEqual(final["attempted"], 1)
        self.assertEqual(set(final["metrics"]), {m["name"] for m in expected})
        for metric in expected:
            got = final["metrics"][metric["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float))

    def test_every_workload_emits_every_metric(self):
        for workload in (w["name"] for w in self.benchmark["workloads"]):
            with self.subTest(workload=workload, trace=0):
                record, final = self.run_bench(workload, 0)
                self.check_contract(final, self.benchmark["end_to_end"])
                for name, metric in final["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                for name in NAMED[workload]:
                    self.assertGreater(float(record["named"][name]["value"]), 0, name)
                self.assertEqual(record["workload"], workload)
                self.assertEqual(record["seed"], 7)
                for key in ("nproc", "compiler", "build_type"):
                    self.assertIn(key, record["host"])
                self.assertTrue(record["inputs"])
                self.assertGreaterEqual(record["samples"]["setup"], 3)
            with self.subTest(workload=workload, trace=1):
                record, final = self.run_bench(workload, 1)
                self.check_contract(final, self.benchmark["per_layer"])
                for name in LAYERS[workload] + ALWAYS:
                    self.assertGreater(final["metrics"][name]["value"], 0, name)
                self.assertGreaterEqual(record["samples"]["traced_rounds"], 1)

    def test_binary_rejects_unknown_arguments(self):
        for args in (["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
                     ["--workload", "audit_hour", "--seed", "-1", "--seconds", "1", "--trace", "0"],
                     ["--workload", "audit_hour", "--seed", "1", "--seconds", "1", "--trace", "2"],
                     ["--workload", "audit_hour", "--seed", "1"]):
            result = subprocess.run([BINARY] + args, capture_output=True, text=True, timeout=30)
            self.assertEqual(result.returncode, 2, args)
            self.assertEqual(result.stdout, "")

    def test_run_py_fails_without_the_library_sources(self):
        with tempfile.TemporaryDirectory(prefix="perfbench-bare-") as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(PACKAGE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            result = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "audit_hour", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(result.returncode, 0)
            self.assertEqual(result.stdout, "")


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) < 2 or args[0] != "--binary":
        sys.exit("usage: test_smoke.py --binary <tvacr_perfbench> [unittest args]")
    BINARY = os.path.abspath(args[1])
    unittest.main(argv=[sys.argv[0]] + args[2:])
