#!/usr/bin/env python3
"""CI gate over the google-benchmark JSON artifacts.

Checks (see ROADMAP "Throughput trajectory", ISSUE 3 and ISSUE 4):

  * batch (hard): for each HeavyKeeper pipeline in
    BENCH_micro_batch_insert.json, the best InsertBatch throughput must be
    >= 1.2x the scalar Insert throughput. This is the acceptance gate the
    batch API shipped with; falling under it is a regression -> exit 1.

  * scalar (hard): the packed-slab refactor (ISSUE 4) shipped with a
    measured >= 1.15x scalar-insert speedup over the pre-refactor layout.
    Given --algorithms (the committed post-refactor
    BENCH_micro_algorithms.json) and --algorithms-prerefactor (the
    committed pre-refactor baseline recorded on the same machine), every
    insert/HK-* data point must hold that ratio. Both files are committed
    artifacts from one machine, so the gate is deterministic in CI; a
    violation means someone re-recorded the baseline pair and lost the
    speedup -> exit 1.

  * baseline (soft): if a committed baseline JSON is given, warn when a
    scalar/batch data point drops below 50% of the baseline's
    items_per_second. Cross-machine variance is large, so this only warns.
    --algorithms-fresh and --primitives/--primitives-baseline feed the
    same soft comparison for the CI runner's own numbers.

  * weighted (soft): BENCH_micro_weighted_insert.json carries a
    `replay_tax` counter on weighted/unmonitored/collapsed - how many
    times slower the per-unit replay path is than the collapsed geometric
    path on the same mouse flood. Warn when the collapse stops paying
    (tax < 2x); it ships at two orders of magnitude.

  * sharded (soft for now): in BENCH_micro_sharded_insert.json, the
    8-shard throughput should be >= 3.5x the 1-shard throughput. CI
    runners rarely have 8 free cores, so a miss prints a prominent warning
    but exits 0; pass --sharded-hard to enforce once a capable runner
    exists.

  * pcap (soft): BENCH_micro_pcap_ingest.json against its committed
    baseline - warn when the parse-only or replay throughput drops below
    50% of the recorded run (cross-machine variance, so warn only), and
    warn when parse-only stops clearing replay (parsing should never be
    the bottleneck of parse+insert).

  * window (soft): BENCH_micro_window_insert.json - the sliding-window
    ring's per-packet overhead (epoch clock + slot rebuilds) should stay
    small: warn when window/insert/w/8 drops below 0.5x the bare inner
    (window/insert/inner). Also warns when any window/ data point drops
    below 50% of the committed baseline.

  * simd (hard on vector-capable runners): BENCH_micro_simd_insert.json -
    the d=4 vectorized InsertBatch rows (avx2/neon) must hold >= 1.3x the
    same spec's simd=scalar rows (the ISSUE 9 acceptance gate). The bench
    registers vector rows only when the host has the kernel, so scalar-only
    runners skip with a message instead of failing. --simd-baseline feeds
    the soft 50% watch.

  * telemetry (hard): BENCH_micro_telemetry_overhead.json - the
    instrumented HK-Minimum InsertBatch (registry enabled) must hold
    >= 0.97x the same binary's throughput with the runtime kill switch
    flipped (Registry::SetEnabled(false)). This is the ISSUE 10 acceptance
    gate: telemetry may cost at most 3% on the DRAM-bound hot path. The
    cache-resident twin rows (HK-Minimum-small) are informational only.
    --telemetry-baseline feeds the soft 50% watch.

  * serve (soft): BENCH_micro_serve_ingest.json - the hk_serve daemon's
    streaming reader (serve/stream, bounded-buffer OpenStream) should stay
    within 2x of the slurp baseline (serve/slurp): the always-on mode is
    allowed to cost a little over batch mode, not multiples. Also warns
    when any serve/ data point drops below 50% of the committed baseline.

Usage:
  check_bench_regression.py --batch build/BENCH_micro_batch_insert.json \
      [--baseline bench/results/BENCH_micro_batch_insert.json] \
      [--algorithms bench/results/BENCH_micro_algorithms.json] \
      [--algorithms-prerefactor bench/results/BENCH_micro_algorithms_prerefactor.json] \
      [--algorithms-fresh build/BENCH_micro_algorithms.json] \
      [--primitives build/BENCH_micro_primitives.json] \
      [--primitives-baseline bench/results/BENCH_micro_primitives.json] \
      [--weighted build/BENCH_micro_weighted_insert.json] \
      [--sharded build/BENCH_micro_sharded_insert.json] \
      [--sharded-baseline bench/results/BENCH_micro_sharded_insert.json] \
      [--sharded-hard] \
      [--serve build/BENCH_micro_serve_ingest.json] \
      [--serve-baseline bench/results/BENCH_micro_serve_ingest.json] \
      [--telemetry build/BENCH_micro_telemetry_overhead.json] \
      [--telemetry-baseline bench/results/BENCH_micro_telemetry_overhead.json]
"""

import argparse
import json
import sys

BATCH_MIN_RATIO = 1.2
TELEMETRY_MIN_RATIO = 0.97
SIMD_MIN_RATIO = 1.3
SCALAR_MIN_RATIO = 1.15
SHARDED_MIN_RATIO = 3.5
BASELINE_MIN_FRACTION = 0.5
REPLAY_TAX_MIN = 2.0
SERVE_STREAM_MAX_SLOWDOWN = 2.0
WINDOW_MIN_FRACTION_OF_INNER = 0.5


def load_items(path):
    """name -> items_per_second for every benchmark in a JSON report.

    Repetition reports (--benchmark_repetitions with
    --benchmark_report_aggregates_only) contribute only their median
    aggregate, filed under the plain row name - so noisy runners can
    record baselines from interleaved repetitions and the checks compare
    medians against medians."""
    with open(path) as f:
        report = json.load(f)
    out = {}
    for bench in report.get("benchmarks", []):
        ips = bench.get("items_per_second")
        if ips is None:
            continue
        if bench.get("run_type") == "aggregate":
            if bench.get("aggregate_name") == "median":
                out[bench["run_name"]] = ips
        else:
            out[bench["name"]] = ips
    return out


def check_batch(items):
    failures = []
    specs = sorted({name.split("/")[1] for name in items if name.startswith("insert/")})
    if not specs:
        failures.append("batch JSON contains no insert/<spec>/... benchmarks")
    for spec in specs:
        scalar = items.get(f"insert/{spec}/scalar")
        batches = {n: v for n, v in items.items() if n.startswith(f"insert/{spec}/batch")}
        if scalar is None or not batches:
            failures.append(f"{spec}: missing scalar or batch data points")
            continue
        best_name, best = max(batches.items(), key=lambda kv: kv[1])
        ratio = best / scalar
        status = "OK" if ratio >= BATCH_MIN_RATIO else "FAIL"
        print(f"[batch] {spec}: best batch {best:.3e} ({best_name}) vs scalar {scalar:.3e}"
              f" -> {ratio:.2f}x (need >= {BATCH_MIN_RATIO}x) {status}")
        if ratio < BATCH_MIN_RATIO:
            failures.append(f"{spec}: batch only {ratio:.2f}x scalar")
    return failures


def check_simd(items, baseline_items):
    """SIMD kernel gate (ISSUE 9): on runners whose micro_simd_insert
    registered vector rows (the bench only registers them when the host
    has the kernel), the d=4 vectorized HK-Minimum InsertBatch must be
    >= 1.3x the same spec's simd=scalar InsertBatch - hard failure below
    that. The gate is scoped to HK-Minimum because only the Minimum
    discipline has a vector insert kernel (scan-then-touch-one);
    Basic/Parallel mutate every mapped bucket, so their vector rows gain
    only the prepare/hash stages and are reported as context. On
    scalar-only runners there is nothing to compare: skip with a message.
    The committed baseline feeds the usual soft 50% watch."""
    failures = []
    vector_rows = {n: v for n, v in items.items()
                   if n.startswith("simd/insert/") and
                   n.split("/")[-1] in ("avx2", "neon")}
    if not vector_rows:
        print("[simd] runner reports no vector kernel (no avx2/neon rows);"
              " hard gate skipped")
    for name, vec in sorted(vector_rows.items()):
        if "/d/4/" not in name:
            continue
        scalar_name = name.rsplit("/", 1)[0] + "/scalar"
        scalar = items.get(scalar_name)
        if scalar is None:
            failures.append(f"{name}: missing {scalar_name} twin")
            continue
        ratio = vec / scalar
        if "/HK-Minimum/" not in name:
            print(f"[simd] {name}: {ratio:.2f}x scalar (no vector apply:"
                  " informational)")
            continue
        status = "OK" if ratio >= SIMD_MIN_RATIO else "FAIL"
        print(f"[simd] {name}: {vec:.3e} vs scalar {scalar:.3e}"
              f" -> {ratio:.2f}x (need >= {SIMD_MIN_RATIO}x) {status}")
        if ratio < SIMD_MIN_RATIO:
            failures.append(f"{name}: vector batch only {ratio:.2f}x scalar")
    # Context rows (informational): prepare/query/hashbytes stage speedups.
    for stage in ("prepare", "query", "hashbytes"):
        for name, vec in sorted(items.items()):
            if not name.startswith(f"simd/{stage}/"):
                continue
            if name.split("/")[-1] not in ("avx2", "neon"):
                continue
            scalar = items.get(name.rsplit("/", 1)[0] + "/scalar")
            if scalar:
                print(f"[simd] {name}: {vec / scalar:.2f}x scalar")
    if baseline_items:
        check_baseline({n: v for n, v in items.items() if n.startswith("simd/")},
                       {n: v for n, v in baseline_items.items() if n.startswith("simd/")})
    return failures


def check_scalar(items, prerefactor_items):
    failures = []
    hk_names = sorted(n for n in prerefactor_items
                      if n.startswith("insert/HK-") and "/" not in n[len("insert/"):])
    if not hk_names:
        failures.append("pre-refactor JSON contains no insert/HK-* benchmarks")
    for name in hk_names:
        before = prerefactor_items[name]
        after = items.get(name)
        if after is None:
            failures.append(f"{name}: missing from the post-refactor JSON")
            continue
        ratio = after / before
        status = "OK" if ratio >= SCALAR_MIN_RATIO else "FAIL"
        print(f"[scalar] {name}: packed-slab {after:.3e} vs pre-refactor {before:.3e}"
              f" -> {ratio:.2f}x (need >= {SCALAR_MIN_RATIO}x) {status}")
        if ratio < SCALAR_MIN_RATIO:
            failures.append(f"{name}: packed-slab scalar only {ratio:.2f}x pre-refactor")
    return failures


def load_counters(path, counter):
    """name -> counters[counter] for benchmarks carrying that counter."""
    with open(path) as f:
        report = json.load(f)
    out = {}
    for bench in report.get("benchmarks", []):
        if counter in bench:
            out[bench["name"]] = bench[counter]
    return out


def check_weighted(path):
    taxes = load_counters(path, "replay_tax")
    if not taxes:
        print("[weighted] WARNING: no replay_tax counter found; nothing checked")
        return
    for name, tax in sorted(taxes.items()):
        status = "OK" if tax >= REPLAY_TAX_MIN else "WARNING (collapse not paying)"
        print(f"[weighted] {name}: replay tax {tax:.1f}x"
              f" (collapsed path speedup over per-unit replay) {status}")


def load_times(path):
    """name -> cpu_time for every benchmark (for time-based microbenches)."""
    with open(path) as f:
        report = json.load(f)
    return {b["name"]: b["cpu_time"] for b in report.get("benchmarks", [])
            if "cpu_time" in b}


def check_primitives(items, baseline_items):
    for name, base in sorted(baseline_items.items()):
        now = items.get(name)
        if now is None or base <= 0:
            continue
        if now > base * 2.0:
            print(f"[primitives] WARNING: {name} at {now / base:.1f}x the committed"
                  f" baseline cpu_time ({now:.2f} vs {base:.2f} ns)")


def check_baseline(items, baseline_items):
    for name, base in sorted(baseline_items.items()):
        now = items.get(name)
        if now is None:
            continue
        frac = now / base if base > 0 else 1.0
        if frac < BASELINE_MIN_FRACTION:
            print(f"[baseline] WARNING: {name} at {frac:.0%} of the committed baseline"
                  f" ({now:.3e} vs {base:.3e} items/s)")


def check_pcap(items, baseline_items):
    parse = items.get("pcap/parse")
    if parse is None:
        print("[pcap] WARNING: no pcap/parse data point; nothing checked")
        return
    replays = {n: v for n, v in items.items() if n.startswith("pcap/replay/")}
    for name, ips in sorted(replays.items()):
        if parse < ips:
            print(f"[pcap] WARNING: parse-only {parse:.3e} slower than {name} {ips:.3e}"
                  f" items/s - the parser became the ingest bottleneck")
    if baseline_items:
        check_baseline({n: v for n, v in items.items() if n.startswith("pcap/")},
                       {n: v for n, v in baseline_items.items() if n.startswith("pcap/")})
    print(f"[pcap] parse {parse:.3e} items/s"
          + "".join(f", {n.split('/', 2)[2]} {v:.3e}" for n, v in sorted(replays.items())))


def check_telemetry(items, baseline_items):
    """Instrumented-vs-stripped hot path (hard, ISSUE 10)."""
    failures = []
    on = items.get("telemetry/insert/HK-Minimum/on")
    off = items.get("telemetry/insert/HK-Minimum/off")
    if on is None or off is None:
        failures.append("telemetry JSON missing the HK-Minimum on/off pair")
        return failures
    ratio = on / off if off > 0 else 0.0
    status = "OK" if ratio >= TELEMETRY_MIN_RATIO else "FAIL"
    print(f"[telemetry] instrumented {on:.3e} vs stripped {off:.3e} items/s"
          f" -> {ratio:.3f}x (need >= {TELEMETRY_MIN_RATIO}x) {status}")
    if ratio < TELEMETRY_MIN_RATIO:
        failures.append(f"telemetry overhead: instrumented only {ratio:.3f}x stripped")
    small_on = items.get("telemetry/insert/HK-Minimum-small/on")
    small_off = items.get("telemetry/insert/HK-Minimum-small/off")
    if small_on and small_off:
        print(f"[telemetry] cache-resident context: {small_on / small_off:.3f}x"
              " (informational, not gated)")
    if baseline_items:
        check_baseline({n: v for n, v in items.items() if n.startswith("telemetry/")},
                       {n: v for n, v in baseline_items.items()
                        if n.startswith("telemetry/")})
    return failures


def check_serve(items, baseline_items):
    """Streaming-reader cost vs the slurp baseline (soft)."""
    slurp = items.get("serve/slurp")
    stream = items.get("serve/stream")
    if slurp is None or stream is None:
        print("[serve] WARNING: missing serve/slurp or serve/stream; nothing checked")
        return
    slowdown = slurp / stream if stream > 0 else float("inf")
    status = ("OK" if slowdown <= SERVE_STREAM_MAX_SLOWDOWN
              else "WARNING (streaming reader too far off slurp)")
    print(f"[serve] stream {stream:.3e} vs slurp {slurp:.3e} items/s"
          f" -> {slowdown:.2f}x slower (target <= {SERVE_STREAM_MAX_SLOWDOWN}x) {status}")
    if baseline_items:
        check_baseline({n: v for n, v in items.items() if n.startswith("serve/")},
                       {n: v for n, v in baseline_items.items() if n.startswith("serve/")})


def check_window(items, baseline_items):
    """Sliding-window ring tax over the bare inner (soft)."""
    inner = items.get("window/insert/inner")
    at8 = items.get("window/insert/w/8")
    if inner is None or at8 is None:
        print("[window] WARNING: missing inner or w=8 data point; nothing checked")
        return
    frac = at8 / inner if inner > 0 else 0.0
    status = ("OK" if frac >= WINDOW_MIN_FRACTION_OF_INNER
              else "WARNING (ring tax too high)")
    print(f"[window] w=8 {at8:.3e} vs bare inner {inner:.3e} items/s"
          f" -> {frac:.2f}x (target >= {WINDOW_MIN_FRACTION_OF_INNER}x) {status}")
    if baseline_items:
        check_baseline({n: v for n, v in items.items() if n.startswith("window/")},
                       {n: v for n, v in baseline_items.items() if n.startswith("window/")})


def check_sharded(items, hard):
    base = items.get("sharded/insert/n/1/real_time") or items.get("sharded/insert/n/1")
    at8 = items.get("sharded/insert/n/8/real_time") or items.get("sharded/insert/n/8")
    if base is None or at8 is None:
        print("[sharded] WARNING: missing n=1 or n=8 data point; nothing checked")
        return []
    ratio = at8 / base
    ok = ratio >= SHARDED_MIN_RATIO
    status = "OK" if ok else ("FAIL" if hard else "WARNING (soft)")
    print(f"[sharded] n=8 {at8:.3e} vs n=1 {base:.3e} items/s"
          f" -> {ratio:.2f}x (target >= {SHARDED_MIN_RATIO}x) {status}")
    if not ok and hard:
        return [f"sharded scaling only {ratio:.2f}x at 8 shards"]
    return []


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--batch", required=True, help="fresh BENCH_micro_batch_insert.json")
    parser.add_argument("--baseline", help="committed baseline JSON to warn against")
    parser.add_argument("--algorithms",
                        help="committed post-refactor BENCH_micro_algorithms.json")
    parser.add_argument("--algorithms-prerefactor",
                        help="committed pre-refactor scalar baseline (hard 1.15x gate)")
    parser.add_argument("--algorithms-fresh",
                        help="this run's BENCH_micro_algorithms.json (soft warn vs committed)")
    parser.add_argument("--primitives", help="fresh BENCH_micro_primitives.json")
    parser.add_argument("--primitives-baseline",
                        help="committed primitives baseline (soft cpu_time warn)")
    parser.add_argument("--weighted",
                        help="fresh BENCH_micro_weighted_insert.json (replay_tax watch)")
    parser.add_argument("--sharded", help="fresh BENCH_micro_sharded_insert.json")
    parser.add_argument("--sharded-baseline",
                        help="committed sharded baseline JSON to warn against")
    parser.add_argument("--pcap", help="fresh BENCH_micro_pcap_ingest.json")
    parser.add_argument("--pcap-baseline",
                        help="committed pcap ingest baseline (soft parse-throughput warn)")
    parser.add_argument("--window", help="fresh BENCH_micro_window_insert.json")
    parser.add_argument("--window-baseline",
                        help="committed window baseline (soft ring-tax warn)")
    parser.add_argument("--telemetry", help="fresh BENCH_micro_telemetry_overhead.json"
                        " (hard 0.97x instrumented-vs-stripped gate)")
    parser.add_argument("--telemetry-baseline",
                        help="committed telemetry baseline JSON to warn against")
    parser.add_argument("--serve", help="fresh BENCH_micro_serve_ingest.json")
    parser.add_argument("--serve-baseline",
                        help="committed serve ingest baseline (soft stream-vs-slurp warn)")
    parser.add_argument("--simd", help="fresh BENCH_micro_simd_insert.json"
                        " (hard d=4 vector-vs-scalar gate on vector-capable runners)")
    parser.add_argument("--simd-baseline",
                        help="committed simd baseline JSON to warn against")
    parser.add_argument("--sharded-hard", action="store_true",
                        help="fail (not warn) when the sharded scaling target is missed")
    args = parser.parse_args()

    failures = check_batch(load_items(args.batch))
    if args.baseline:
        check_baseline(load_items(args.batch), load_items(args.baseline))
    if args.algorithms and args.algorithms_prerefactor:
        failures += check_scalar(load_items(args.algorithms),
                                 load_items(args.algorithms_prerefactor))
    if args.algorithms_fresh and args.algorithms:
        check_baseline(load_items(args.algorithms_fresh), load_items(args.algorithms))
    if args.primitives and args.primitives_baseline:
        check_primitives(load_times(args.primitives), load_times(args.primitives_baseline))
    if args.weighted:
        check_weighted(args.weighted)
    if args.sharded:
        failures += check_sharded(load_items(args.sharded), args.sharded_hard)
        if args.sharded_baseline:
            check_baseline(load_items(args.sharded), load_items(args.sharded_baseline))
    if args.pcap:
        check_pcap(load_items(args.pcap),
                   load_items(args.pcap_baseline) if args.pcap_baseline else {})
    if args.window:
        check_window(load_items(args.window),
                     load_items(args.window_baseline) if args.window_baseline else {})
    if args.telemetry:
        failures += check_telemetry(
            load_items(args.telemetry),
            load_items(args.telemetry_baseline) if args.telemetry_baseline else {})
    if args.serve:
        check_serve(load_items(args.serve),
                    load_items(args.serve_baseline) if args.serve_baseline else {})
    if args.simd:
        failures += check_simd(load_items(args.simd),
                               load_items(args.simd_baseline) if args.simd_baseline else {})

    if failures:
        print("\nbench regression check FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nbench regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
