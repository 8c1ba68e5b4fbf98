#!/usr/bin/env python3
"""Same-run gates over the performance ladder's JSON (bench/ladder.cpp).

    ./build/ladder --benchmark_out=ladder.json --benchmark_out_format=json
    python3 bench/gates.py ladder.json

Prints every ladder row's ns per item (packets; queries for L8, slab
bytes for L9) and, for a row in a chain, its delta over the row below
it. Then checks GATES:
each is the best of its numerator rows over its denominator row, in items
per second (the median of the ladder's repetitions), against a threshold.
A hard gate below its threshold fails the run (exit 1); a soft one warns.
A missing row fails the run, except that a gate marked avx2 is skipped
when the ladder ran the scalar kernel, which registers no avx2 rows.

Every row a gate reads comes from the one run, except the packed-slab
gate's: the ladder has no row for the layout before the packed slab, so
that gate compares two recordings committed in bench/results/, made on
one machine.
"""

import json
import os
import sys
from collections import namedtuple

RESULTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

# num: numerator rows (the best counts); den: the denominator row. A row is
# a ladder row name, or (file in bench/results/, row) for a committed one.
Gate = namedtuple("Gate", "name num den threshold hard avx2", defaults=(False,))
HARD, SOFT = True, False


def batch_gate(spec):
    return Gate(f"batch {spec}: best burst / scalar Insert, 64 MB",
                [f"L3/dram/{spec}/burst:{n}" for n in (32, 256, 4096)],
                f"L2/dram/{spec}/insert", 1.2, HARD)


def prerefactor_gate(version):
    row = f"insert/{version}"
    return Gate(f"packed slab {version}: scalar Insert / pre-refactor (committed)",
                [("BENCH_micro_algorithms.json", row)],
                ("BENCH_micro_algorithms_prerefactor.json", row), 1.15, HARD)


GATES = [
    batch_gate("HK-Minimum"),
    batch_gate("HK-Parallel"),
    Gate("simd HK-Minimum:d=4 InsertBatch: avx2 / scalar, 4 MB",
         ["L3/insert_batch/avx2"], "L3/insert_batch/scalar", 1.3, HARD, avx2=True),
    Gate("telemetry InsertBatch: on / off, 64 MB",
         ["L3/telemetry/on"], "L3/telemetry/off", 0.97, HARD),
    # The PCLMULQDQ fold runs where simd=auto resolves to avx2 (4.6x cold,
    # 8.9x warm on a 4-vCPU Xeon); a scalar run CRCs with the tables.
    Gate("checkpoint Crc32: dispatched / table loop, 32 MB",
         ["L9/crc"], "L9/crc/table", 3.0, HARD, avx2=True),
    *(prerefactor_gate(v) for v in ("HK-Basic", "HK-Minimum", "HK-Parallel")),
    # Soft until CI has a runner with >= 4 free cores.
    Gate("sharded: n=8 / n=1", ["L4/sharded/n:8"], "L4/sharded/n:1", 3.5, SOFT),
    Gate("window: w=8 / bare inner", ["L4/window/w:8"], "L4/window/inner", 0.5, SOFT),
    Gate("parse: stream / slurp", ["L5/parse/stream"], "L5/parse/slurp", 0.5, SOFT),
    Gate("parse / HK-Minimum replay", ["L5/parse/slurp"], "L6/replay/HK-Minimum", 1.0, SOFT),
    # Parse overlapped with apply: replay at >= 0.8x the slower of its two
    # halves, which is apply here (serial, it read ~0.58).
    Gate("replay / apply alone, HK-Minimum", ["L6/replay/HK-Minimum"], "L6/apply/HK-Minimum",
         0.8, SOFT),
    Gate("weighted mouse flood: collapsed / per-unit replay",
         ["L2/weighted/collapsed"], "L2/weighted/replay", 2.0, SOFT),
    # SaveState encodes the slab in one pass, against one copy of the slab:
    # mostly empty buckets (the caida-sized sketch) and every bucket
    # occupied, where the masks add 1/32 to the bytes written.
    Gate("checkpoint: SaveState / plain copy, reused buffers", ["L9/save"], "L9/copy", 0.7, SOFT),
    Gate("checkpoint, every bucket occupied: SaveState / plain copy",
         ["L9/save/dense"], "L9/copy/dense", 0.7, SOFT),
    # A TOPK costs about what its snapshot costs: parse and render add
    # little. Rendering the 100 lines with snprintf and string temporaries
    # read 0.08; to_chars into one buffer reads 0.31-0.32 (4-vCPU VM).
    Gate("query: Execute TOPK 100 / its Snapshot(100), HK-Minimum 8 MB",
         ["L8/execute/topk"], "L8/snapshot/HK-Minimum", 0.2, SOFT),
]

CHAINS = [
    [f"L0/prepare/{k}", f"L1/apply/{k}", f"L2/insert/{k}", f"L3/insert_batch/{k}"]
    for k in ("scalar", "avx2")
] + [
    # Replay overlaps parse with apply, so its delta over apply alone is
    # what the overlap fails to hide.
    ["L5/parse/slurp", "L6/apply/HK-Minimum", "L6/replay/HK-Minimum"],
    # Execute's delta over the snapshot is parse, locks and rendering.
    ["L8/snapshot/HK-Minimum", "L8/execute/topk"],
]


def load_rows(report):
    """Row name -> items per second: a repeated row's median, else its one
    run. google-benchmark appends /real_time to wall-clock rows; the
    tables name rows without it."""
    singles, medians = {}, {}
    for bench in report.get("benchmarks", []):
        ips = bench.get("items_per_second")
        if ips is None or bench.get("error_occurred"):
            continue
        if bench.get("run_type") == "aggregate":
            if bench.get("aggregate_name") == "median":
                medians[bench["run_name"].removesuffix("/real_time")] = ips
        else:
            singles[bench["name"].removesuffix("/real_time")] = ips
    return {**singles, **medians}


def read_committed(name):
    with open(os.path.join(RESULTS, name)) as f:
        return load_rows(json.load(f))


def evaluate(report, committed=read_committed):
    """[(gate, status, detail)], status one of PASS, FAIL, WARN, SKIP."""
    rows = load_rows(report)
    kernel = report.get("context", {}).get("simd_kernel")

    def value(ref):
        return committed(ref[0]).get(ref[1]) if isinstance(ref, tuple) else rows.get(ref)

    results = []
    for gate in GATES:
        if gate.avx2 and kernel == "scalar":
            results.append((gate, "SKIP", "the ladder ran the scalar kernel"))
            continue
        missing = [ref for ref in gate.num + [gate.den] if not value(ref)]
        if missing:
            results.append((gate, "FAIL", f"missing row(s) {missing}"))
            continue
        best = max(gate.num, key=value)
        ratio = value(best) / value(gate.den)
        status = "PASS" if ratio >= gate.threshold else "FAIL" if gate.hard else "WARN"
        kind = "hard" if gate.hard else "soft"
        results.append((gate, status, f"{ratio:.3f}x (need >= {gate.threshold}, {kind});"
                                      f" {best} over {gate.den}"))
    return results


def print_rows(report):
    rows = load_rows(report)
    below = {upper: lower for chain in CHAINS for lower, upper in zip(chain, chain[1:])}
    print(f"{'row':<56} {'ns/item':>12}  delta over the row below")
    for name in sorted(rows):
        ns = 1e9 / rows[name]
        line = f"{name:<56} {ns:>12.3f}"
        if below.get(name) in rows:
            line += f"  {ns - 1e9 / rows[below[name]]:+.3f} over {below[name]}"
        print(line)


def main(argv):
    if len(argv) != 2:
        print(f"usage: {argv[0]} LADDER.json", file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        report = json.load(f)
    context = report.get("context", {})
    print(f"host: {context.get('num_cpus')} CPUs at {context.get('mhz_per_cpu')} MHz,"
          f" simd kernel {context.get('simd_kernel')}")
    print_rows(report)
    print()
    results = evaluate(report)
    for gate, status, detail in results:
        print(f"[{status}] {gate.name}: {detail}")
    failed = [gate.name for gate, status, _ in results if status == "FAIL"]
    print(f"\n{len(failed)} gate(s) failed" + (f": {failed}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
