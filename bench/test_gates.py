#!/usr/bin/env python3
"""Tests for bench/gates.py (stdlib unittest):

    python3 bench/test_gates.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import gates  # noqa: E402

BASE = 1e6


def report(rows, kernel="avx2"):
    """A ladder JSON holding one median aggregate per row."""
    return {
        "context": {"simd_kernel": kernel},
        "benchmarks": [{"name": f"{name}_median", "run_name": name, "run_type": "aggregate",
                        "aggregate_name": "median", "items_per_second": ips}
                       for name, ips in rows.items()],
    }


def setting(gate, ratio):
    """(ladder rows, committed rows) putting every row of `gate` at BASE and
    its numerators at ratio * BASE."""
    ladder, committed = {}, {}
    for ref in gate.num + [gate.den]:
        ips = ratio * BASE if ref in gate.num else BASE
        if isinstance(ref, tuple):
            committed.setdefault(ref[0], {})[ref[1]] = ips
        else:
            ladder[ref] = ips
    return ladder, committed


def status_of(gate, ladder, committed, kernel="avx2"):
    results = gates.evaluate(report(ladder, kernel), lambda name: committed.get(name, {}))
    return next(status for g, status, _ in results if g == gate)


class GateTableTest(unittest.TestCase):
    def test_hard_gates_pass_at_and_fail_just_under_their_threshold(self):
        hard = [g for g in gates.GATES if g.hard]
        self.assertGreaterEqual(len(hard), 4)
        for gate in hard:
            with self.subTest(gate=gate.name):
                self.assertEqual(status_of(gate, *setting(gate, gate.threshold)), "PASS")
                self.assertEqual(status_of(gate, *setting(gate, gate.threshold * 0.999)), "FAIL")

    def test_hard_gates_fail_on_a_missing_row(self):
        for gate in (g for g in gates.GATES if g.hard):
            for dropped in gate.num + [gate.den]:
                with self.subTest(gate=gate.name, dropped=dropped):
                    ladder, committed = setting(gate, gate.threshold * 2)
                    if isinstance(dropped, tuple):
                        del committed[dropped[0]][dropped[1]]
                    else:
                        del ladder[dropped]
                    self.assertEqual(status_of(gate, ladder, committed), "FAIL")

    def test_best_numerator_counts(self):
        gate = gates.batch_gate("HK-Minimum")
        ladder, committed = setting(gate, 0.5)
        ladder[gate.num[-1]] = gate.threshold * BASE
        self.assertEqual(status_of(gate, ladder, committed), "PASS")

    def test_avx2_gate_skips_on_a_scalar_context(self):
        avx2 = [g for g in gates.GATES if g.avx2]
        self.assertTrue(avx2)
        for gate in avx2:
            self.assertEqual(status_of(gate, {}, {}, kernel="scalar"), "SKIP")
            self.assertEqual(status_of(gate, {}, {}, kernel="avx2"), "FAIL")

    def test_crc_gate_is_hard_and_skips_on_a_scalar_context(self):
        gate = next(g for g in gates.GATES if g.num == ["L9/crc"])
        self.assertEqual(gate.den, "L9/crc/table")
        self.assertTrue(gate.hard)
        self.assertEqual(status_of(gate, *setting(gate, 3.0)), "PASS")
        self.assertEqual(status_of(gate, *setting(gate, 3.0 * 0.999)), "FAIL")
        self.assertEqual(status_of(gate, *setting(gate, 3.0), kernel="scalar"), "SKIP")

    def test_query_gate_is_soft_over_the_snapshot(self):
        gate = next(g for g in gates.GATES if g.num == ["L8/execute/topk"])
        self.assertEqual(gate.den, "L8/snapshot/HK-Minimum")
        self.assertFalse(gate.hard)
        self.assertEqual(status_of(gate, *setting(gate, 0.2)), "PASS")
        self.assertEqual(status_of(gate, *setting(gate, 0.14)), "WARN")
        self.assertIn(["L8/snapshot/HK-Minimum", "L8/execute/topk"], gates.CHAINS)

    def test_checkpoint_gates_cover_sparse_and_dense_states(self):
        for suffix in ("", "/dense"):
            gate = next(g for g in gates.GATES if g.num == [f"L9/save{suffix}"])
            self.assertEqual(gate.den, f"L9/copy{suffix}")
            self.assertFalse(gate.hard)
            self.assertEqual(gate.threshold, 0.7)

    def test_soft_gates_only_warn(self):
        soft = [g for g in gates.GATES if not g.hard]
        self.assertTrue(soft)
        for gate in soft:
            with self.subTest(gate=gate.name):
                self.assertEqual(status_of(gate, *setting(gate, gate.threshold * 0.5)), "WARN")
                self.assertEqual(status_of(gate, *setting(gate, gate.threshold)), "PASS")

    def test_real_time_suffix_and_medians(self):
        rows = gates.load_rows({"benchmarks": [
            {"name": "L4/sharded/n:8/real_time", "run_type": "iteration",
             "items_per_second": 1.0},
            {"name": "L4/sharded/n:8/real_time_median", "run_name": "L4/sharded/n:8/real_time",
             "run_type": "aggregate", "aggregate_name": "median", "items_per_second": 2.0},
            {"name": "L4/sharded/n:8/real_time_mean", "run_name": "L4/sharded/n:8/real_time",
             "run_type": "aggregate", "aggregate_name": "mean", "items_per_second": 3.0},
        ]})
        self.assertEqual(rows, {"L4/sharded/n:8": 2.0})

    def test_committed_prerefactor_pair_passes(self):
        for gate in (g for g in gates.GATES if isinstance(g.den, tuple)):
            with self.subTest(gate=gate.name):
                self.assertEqual(status_of(gate, {}, {
                    name: gates.read_committed(name)
                    for name in {gate.den[0]} | {ref[0] for ref in gate.num}}), "PASS")


if __name__ == "__main__":
    unittest.main()
