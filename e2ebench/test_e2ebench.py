#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

    python3 e2ebench/test_e2ebench.py

Covers the accuracy known answer on the committed campus fixture, the
percentile and open-loop lag arithmetic, the response framing, and daemon
hygiene: the child is reaped on failure and timeout, ports are ephemeral,
the per-run temp dir is removed, nothing else under the tree changes, and a
copy holding only the benchmark files fails without printing a result. The
tests that need binaries build them first (as run.py does).
"""

import json
import os
import shutil
import stat
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (the module under test)

ROOT = run.ROOT
FIXTURE = os.path.join(ROOT, "tests", "data", "fixture_campus.pcap")
# EvaluateTopK of "TOPK flows 100" after the fixture is ATTACHed to a
# HK-Minimum:mem=1KB instance (a budget small enough that top-100 misses).
PRECISION = 0.75
ARE = 0.527729319

_built = {}


def binaries():
    if not _built:
        bdir = run.build_dir()
        run.build(bdir)
        _built["hk_serve"] = os.path.join(bdir, "bin", "hk_serve")
        _built["hkbench"] = os.path.join(bdir, "bin", "hkbench")
        _built["dir"] = bdir
    return _built


def tree_listing():
    """Every file under the checkout except the build tree and .git."""
    skip = {os.path.realpath(run.build_dir()), os.path.join(ROOT, ".git")}
    found = set()
    for d, dirs, files in os.walk(ROOT):
        dirs[:] = [x for x in dirs if os.path.realpath(os.path.join(d, x)) not in skip
                   and os.path.join(d, x) not in skip and x != "__pycache__"]
        for f in files:
            found.add(os.path.relpath(os.path.join(d, f), ROOT))
    return found


class ArithmeticTest(unittest.TestCase):
    def test_percentile_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 0.5), 50)
        self.assertEqual(run.percentile(values, 0.99), 99)
        self.assertEqual(run.percentile(values, 1.0), 100)
        self.assertEqual(run.percentile(values, 0.0), 1)
        self.assertEqual(run.percentile([7.5], 0.99), 7.5)
        self.assertEqual(run.percentile([3, 1, 2], 0.5), 2)
        self.assertEqual(run.median([4, 1, 3, 2]), 2)
        with self.assertRaises(ValueError):
            run.percentile([], 0.5)

    def test_open_loop_times_from_the_due_time(self):
        # The first reply stalls 40 ms; at 1000 req/s the next ~40 requests
        # were due during the stall, so each runs late and its latency counts
        # the wait from its due time (no coordinated omission).
        class StallingConn:
            calls = 0

            def request(self, line):
                StallingConn.calls += 1
                if StallingConn.calls == 1:
                    time.sleep(0.040)
                return "OK 1\n"

        tally = run.Tally()
        samples, lags = {}, []
        run.open_loop(StallingConn(), lambda: ("point", "POINT x 1", lambda r: True), 1000.0,
                      tally, samples, lags, count=120)
        lat = samples["point"]
        self.assertEqual(len(lat), 120)
        self.assertEqual(len(lags), 120)
        self.assertEqual(tally.attempted, 120)
        self.assertEqual(tally.failed, 0)
        self.assertGreaterEqual(lat[0], 0.040)
        # Request 1 was due 1 ms in: it waited ~39 ms for the sender.
        self.assertGreater(lags[1], 0.030)
        self.assertGreater(lat[1], 0.030)
        # Latency includes the lag, and the backlog drains.
        self.assertTrue(all(lat[i] >= lags[i] for i in range(120)))
        self.assertLess(run.median(lags[100:]), 0.005)

    def test_response_framing(self):
        self.assertEqual(run.response_end(b"OK 5\nFLOW"), 5)
        self.assertEqual(run.response_end(b"ERR bad\n"), 8)
        self.assertEqual(run.response_end(b"END consistency=exact\n"), 22)
        topk = b"FLOW a 3\nFLOW b 2\nEND consistency=exact tracked=2 min=2\n"
        self.assertEqual(run.response_end(topk + b"OK 1\n"), len(topk))
        self.assertEqual(run.response_end(topk[:-1]), -1)
        self.assertEqual(run.response_end(b"STAT a 1\nSTAT b"), -1)

    def test_topk_validation(self):
        good = "FLOW ab 3\nFLOW cd 2\nEND consistency=exact tracked=2 min=2\n"
        self.assertTrue(run.valid_topk(good))
        self.assertFalse(run.valid_topk(good, window=True))
        self.assertTrue(run.valid_topk(good.replace("min=2", "min=2 window=8"), window=True))
        self.assertFalse(run.valid_topk("ERR no instance\n"))
        self.assertFalse(run.valid_topk("FLOW zz 3\nEND consistency=exact\n"))
        self.assertFalse(run.valid_topk("FLOW 1 1\n" * 101 + "END consistency=exact\n"))

    def test_metrics_parsing(self):
        sums = run.parse_metrics(
            '# TYPE hk_x counter\nhk_x{instance="a"} 3\nhk_x{instance="b"} 4\nhk_y 1.5\nEND\n')
        self.assertEqual(sums, {"hk_x": 7, "hk_y": 1.5})


class DescriptionTest(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual(bench["command"][:2], ["python3", "e2ebench/run.py"])
        self.assertEqual({w["name"]: w["why"] for w in bench["workloads"]},
                         {name: w.why for name, w in run.WORKLOADS.items()})
        self.assertTrue(all(len(w["why"]) <= 200 for w in bench["workloads"]))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.E2E_UNITS)
        ladder = {m["name"]: (m["unit"], m["better"]) for m in run.load_ladder()}
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]},
                         ladder)
        for m in run.load_ladder():
            self.assertTrue(m["call"] and m["on"], m["name"])
            for target in m["moves"]:
                self.assertTrue(target in run.E2E_UNITS or target in ladder, target)


class FixtureAccuracyTest(unittest.TestCase):
    def test_known_answer_on_the_campus_fixture(self):
        # The benchmark's own precision path (ServeCore TOPK, its wire text
        # parsed back, EvaluateTopK) on the committed 4k-packet capture.
        work = os.path.join(binaries()["dir"], "test-fixture")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        try:
            subprocess.run(
                [binaries()["hkbench"], "prepare", "--seed", "1", "--dir", work,
                 "--setup", "CREATE flows HK-Minimum:mem=1KB",
                 "--setup", f"ATTACH flows {FIXTURE}"],
                stdout=subprocess.DEVNULL, timeout=120, check=True)
            with open(os.path.join(work, "prepare.json")) as f:
                result = json.load(f)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        self.assertEqual(result["packets"], 4000)
        self.assertEqual(result["flows"], 1000)
        self.assertAlmostEqual(result["precision"], PRECISION, places=9)
        self.assertAlmostEqual(result["are"], ARE, places=8)
        self.assertEqual(result["expected"][0][0], "TOPK flows 100")
        self.assertEqual(len(result["point_ids"]), 128)


class DaemonHygieneTest(unittest.TestCase):
    def setUp(self):
        self.work = os.path.join(binaries()["dir"], "test-work")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def test_child_reaped_on_failure_and_ports_ephemeral(self):
        hk_serve = binaries()["hk_serve"]
        procs = []
        with self.assertRaises(RuntimeError):
            with run.Daemon(hk_serve, self.work, "a") as a, run.Daemon(hk_serve, self.work,
                                                                       "b") as b:
                procs = [a.proc, b.proc]
                ports = {a.wait_port(), b.wait_port()}
                self.assertEqual(len(ports), 2)
                self.assertNotIn(7070, ports)
                conn = run.Conn(a.wait_port())
                self.assertEqual(conn.request("PING"), "OK pong\n")
                conn.close()
                raise RuntimeError("failure mid-cycle")
        for proc in procs:
            self.assertIsNotNone(proc.returncode)  # waited for, not a zombie

    def test_child_reaped_on_timeout(self):
        silent = os.path.join(self.work, "silent")
        with open(silent, "w") as f:
            f.write("#!/bin/sh\nexec sleep 60\n")
        os.chmod(silent, os.stat(silent).st_mode | stat.S_IXUSR)
        daemon = None
        start = time.perf_counter()
        with self.assertRaises(run.BenchError):
            with run.Daemon(silent, self.work, "silent") as daemon:
                daemon.wait_port(timeout=0.5)
        self.assertLess(time.perf_counter() - start, 10)
        self.assertIsNotNone(daemon.proc.returncode)

    def test_run_cleans_up_and_writes_nothing_else(self):
        binaries()
        before = tree_listing()
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "campus-ingest",
             "--seed", "3", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), set(run.E2E_UNITS))
        self.assertFalse(os.path.exists(os.path.join(ROOT, ".bench_tmp")))
        self.assertEqual(tree_listing(), before)
        leftover = subprocess.run(["pgrep", "-f", binaries()["hk_serve"]],
                                  capture_output=True, text=True)
        self.assertEqual(leftover.stdout.strip(), "")

    def test_benchmark_files_alone_fail_without_a_result(self):
        alone = os.path.join(self.work, "alone")
        os.makedirs(alone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        shutil.copytree(HERE, os.path.join(alone, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        out = subprocess.run(
            [sys.executable, os.path.join(os.path.basename(HERE), "run.py"), "--workload",
             "campus-ingest", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=alone, env=env, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
