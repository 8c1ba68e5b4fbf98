#!/usr/bin/env python3
"""End-to-end benchmark of the hk_serve daemon.

    python3 e2ebench/run.py --workload campus-ingest --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The command builds hk_serve and the
hkbench helper from the checkout (Release, into .bench_build/ or
$CARGO_TARGET_DIR), synthesizes the workload's capture from --seed, and has
hkbench compute its exact oracle and the in-process reference answers. It
then measures for --seconds, in cycles: spawn the real hk_serve on an
ephemeral loopback port, CREATE + ATTACH over the wire, drive it from this
process (at most two threads and two connections), check every answer
against the reference, scrape METRICS, and reap the daemon.

--trace 0 prints the end-to-end metrics. --trace 1 prints the per-layer
ladder (ladder.json): hkbench's traced in-process replay of the same input
plus the METRICS counts of the cycles run here.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics; the line before it is a detailed report (environment
block, per-cycle numbers, METRICS counts). The exit status is 0 only when
every operation succeeded and every answer was correct. Captures and
checkpoints live in a temporary directory under .bench_tmp/, removed at
exit.
"""

import argparse
import gc
import hashlib
import json
import os
import random
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

PACKETS = 2_000_000            # capture size requested from the generator
QUERY_RATE_HZ = 1000.0         # open-loop rate on a drained daemon, all verbs together
INGEST_QUERY_RATE_HZ = 500.0   # under ingest (serve-mixed): no backlog even in slow host periods
IDLE_QUERIES_PER_CYCLE = 1000  # post-drain open-loop requests (ingest workloads)
PIPELINE_BURST = 50            # post-drain pipelined requests per write
PIPELINE_BURSTS = 20           # pipelined bursts per verb per cycle
IDLE_CHECKPOINT_S = 0.25       # post-drain CHECKPOINTs: at least one, until this long
IDLE_CHECKPOINTS_MAX = 8
CHECKPOINT_FIRST_S = 0.2       # CHECKPOINT schedule under ingest (serve-mixed): first one
CHECKPOINT_PERIOD_S = 0.5      # this long after ATTACH, then one per period
POLL_S = 0.001                 # drain-poll period
SOCKET_TIMEOUT_S = 60.0
SPAN_COVERAGE_FLOOR = 0.9
PRECISION_FLOOR = 0.95         # EvaluateTopK precision of the main instance's TOPK 100


class BenchError(Exception):
    """The benchmark could not run (as opposed to: ran and found wrong answers)."""


class Workload:
    def __init__(self, name, kind, key, instances, why, window=None,
                 queries_under_ingest=False):
        self.name = name
        self.kind = kind                  # capture generator: campus | caida
        self.key = key                    # ATTACH key policy
        self.instances = instances        # [(name, spec)]; the first is the main one
        self.why = why
        self.window = window              # name of the Window: instance, if any
        self.queries_under_ingest = queries_under_ingest

    @property
    def main(self):
        return self.instances[0][0]

    def create_lines(self):
        return [f"CREATE {name} {spec}" for name, spec in self.instances]

    def attach_lines(self, capture):
        suffix = "" if self.key == "5tuple" else f" key={self.key}"
        return [f"ATTACH {name} {capture}{suffix}" for name, _ in self.instances]


WORKLOADS = {
    w.name: w for w in [
        Workload(
            "campus-ingest", "campus", "5tuple", [("flows", "HK-Minimum")],
            "Elephant-heavy 5-tuple stream into one cache-resident HK-Minimum: "
            "per-packet cost is parse, hash and the monitored store fast path; "
            "shard, window and query layers idle until drain."),
        Workload(
            "caida-sharded", "caida", "pair",
            [("flows", "Sharded:n=2,threads=1,mem=32MB,inner=HK-Minimum:d=4")],
            "Mouse-dominated address-pair stream into a 32 MB two-worker Sharded "
            "sketch (d=4 AVX2 probe): decay path dominates and the ingest-thread "
            "parser is the likely ceiling."),
        Workload(
            "serve-mixed", "campus", "5tuple",
            [("flows", "HK-Minimum:mem=8MB"),
             ("recent", f"Window:w=8,epoch={PACKETS // 10},inner=HK-Minimum")],
            "Two tenants ingest while an open loop sends TOPK, POINT and window "
            "TOPK and a second connection checkpoints: their lock holds slow "
            "ingest, and the 8 MB state sets checkpoint cost.",
            window="recent", queries_under_ingest=True),
    ]
}

# End-to-end metrics (--trace 0): name -> unit.
E2E_UNITS = {
    "ingest_mpps": "Mpps",
    "precision": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "topk_pipelined_us": "us",
    "point_pipelined_us": "us",
    "checkpoint_p50_ms": "ms",
}


def load_ladder():
    with open(os.path.join(HERE, "ladder.json")) as f:
        return json.load(f)["metrics"]


def percentile(values, q):
    """Nearest-rank percentile, q in [0, 1] (hkbench uses the same rule)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = -(-q * len(ordered) // 1)  # ceil without float surprises at q*n integral
    index = max(int(rank) - 1, 0)
    return ordered[min(index, len(ordered) - 1)]


def median(values):
    return percentile(values, 0.5)


# ----------------------------------------------------------------- build


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def run_quiet(cmd, timeout, cwd=None):
    """Run a tool with its output on our stderr (stdout carries results)."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=cwd, timeout=timeout,
                          check=False)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:3])} ... exited {proc.returncode}")


def read_cmake_cache(bdir):
    cache = {}
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"([A-Za-z_][A-Za-z0-9_]*):[A-Z]+=(.*)$", line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    return cache


def build(bdir):
    for need in ("CMakeLists.txt", "src/serve/serve_core.cpp", "examples/hk_serve.cpp"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            raise BenchError(f"{need} is missing: run from the root of a full checkout")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", bdir, "--target", "hk_serve", "hkbench", "-j", jobs],
              timeout=1500)
    cache = read_cmake_cache(bdir)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    if build_type not in ("Release", "RelWithDebInfo"):
        raise BenchError(f"refusing to measure a '{build_type or 'unset'}' build")
    for option in ("HK_ENABLE_SANITIZERS", "HK_ENABLE_TSAN"):
        if cache.get(option, "OFF").upper() in ("ON", "1", "TRUE", "YES"):
            raise BenchError(f"refusing to measure a {option} build")
    return cache


def source_revision():
    """The git commit, or a digest of the sources when the tree is no repository."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "examples", os.path.basename(HERE)):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(cache, kernel):
    env_off = os.environ.get("HK_TELEMETRY", "").lower() in ("off", "0", "false")
    built = cache.get("HK_TELEMETRY", "ON").upper() in ("ON", "1", "TRUE", "YES")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "simd_kernel": kernel,
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "sanitizers": "off",
        "telemetry": "on" if built and not env_off else "off",
        "commit": source_revision(),
    }


# ---------------------------------------------------------------- daemon


class Tally:
    """Operations attempted and failed (thread-safe)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self._lock = threading.Lock()

    def record(self, ok, what=""):
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.notes) < 10:
                    self.notes.append(what[:300])
        return ok


class Daemon:
    """One hk_serve child on an ephemeral port, always killed and reaped."""

    def __init__(self, binary, workdir, tag):
        self.log_path = os.path.join(workdir, f"{tag}.log")
        self.checkpoint = os.path.join(workdir, f"{tag}.ckpt")
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [binary, "--port", "0", "--checkpoint", self.checkpoint, "--interval-ms", "0"],
            stdin=subprocess.DEVNULL, stdout=self._log, stderr=self._log, cwd=workdir)

    def wait_port(self, timeout=30.0):
        deadline = time.perf_counter() + timeout
        while True:
            with open(self.log_path, "rb") as f:
                text = f.read()
            m = re.search(rb"listening on 127\.0\.0\.1:(\d+)", text)
            if m:
                return int(m.group(1))
            if self.proc.poll() is not None:
                raise BenchError(f"hk_serve exited early: {text[-500:]!r}")
            if time.perf_counter() > deadline:
                raise BenchError("hk_serve never reported its port")
            time.sleep(0.0002)

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for hk_serve")

    def close(self):
        # SIGKILL, not SHUTDOWN: a clean exit writes a final checkpoint, which
        # costs up to a second per cycle on the 32 MB workload and is not
        # part of any metric. Nothing outlives the cycle either way.
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._log.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def response_end(buf):
    """Byte length of the first complete response in buf, or -1."""
    nl = buf.find(b"\n")
    if nl < 0:
        return -1
    if buf.startswith((b"OK", b"ERR", b"END")):
        return nl + 1
    at = buf.find(b"\nEND")
    if at < 0:
        return -1
    nl = buf.find(b"\n", at + 1)
    return -1 if nl < 0 else nl + 1


class Conn:
    """A line-protocol client connection."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=SOCKET_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # Blocking mode: with a timeout set, Python polls before every recv,
        # even a MSG_DONTWAIT one. request() keeps its own deadline.
        self.sock.settimeout(None)
        self.buf = b""

    def request(self, line):
        self.sock.sendall(line.encode() + b"\n")
        return self.response()

    def response(self):
        """Busy-poll for the next response. A client that blocked in recv
        would add its own wake-up from an idle vCPU to every latency (about
        25 us of a 120 us POINT on a 4-vCPU VM)."""
        deadline = time.perf_counter() + SOCKET_TIMEOUT_S
        while True:
            end = response_end(self.buf)
            if end >= 0:
                break
            # hk_serve's accepted sockets keep Nagle on, so when responses
            # are pipelined each one waits for the ACK of the one before;
            # a delayed ACK would add 40 ms to the burst.
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
            try:
                chunk = self.sock.recv(1 << 16, socket.MSG_DONTWAIT)
            except BlockingIOError:
                if time.perf_counter() > deadline:
                    raise socket.timeout("no response from hk_serve") from None
                continue
            if not chunk:
                raise ConnectionError("hk_serve closed the connection")
            self.buf += chunk
        response, self.buf = self.buf[:end], self.buf[end:]
        return response.decode()

    def close(self):
        self.sock.close()


FLOW_RE = re.compile(r"FLOW [0-9a-f]+ \d+")
POINT_RE = re.compile(r"OK \d+\n")


def valid_topk(response, window=False):
    lines = response.split("\n")
    if lines[-1] != "" or not lines[-2].startswith("END consistency=exact"):
        return False
    if window and " window=" not in lines[-2]:
        return False
    flows = lines[:-2]
    return len(flows) <= 100 and all(FLOW_RE.fullmatch(line) for line in flows)


def safe_request(conn, line, tally, check):
    """One checked request: returns the response, or None after recording a failure."""
    try:
        response = conn.request(line)
    except OSError as e:  # includes ConnectionError and socket timeouts
        tally.record(False, f"{line}: {e}")
        return None
    if not tally.record(check(response), f"{line} -> {response[:200]!r}"):
        return None
    return response


def pipelined(conn, lines, expected, tally):
    """Send every line in one write, then read every response: the daemon
    answers back to back, so host wake-ups are paid once per burst, not per
    request. Returns the seconds per request, or None after a failure."""
    start = time.perf_counter()
    try:
        conn.sock.sendall("".join(line + "\n" for line in lines).encode())
        responses = [conn.response() for _ in lines]
    except OSError as e:
        tally.record(False, f"pipelined {lines[0]}: {e}")
        return None
    elapsed = time.perf_counter() - start
    ok = True
    for line, response in zip(lines, responses):
        ok = tally.record(response == expected[line], f"{line} -> {response[:200]!r}") and ok
    return elapsed / len(lines) if ok else None


def stats_of(conn, name, tally):
    response = safe_request(conn, f"STATS {name}", tally, lambda r: r.endswith("END\n"))
    if response is None:
        raise BenchError(f"STATS {name} failed")
    stats = {}
    for line in response.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[0] == "STAT":
            stats[parts[1]] = parts[2]
    return stats


def parse_metrics(text):
    """Prometheus exposition -> {metric name: value summed over its label series}."""
    sums = {}
    for line in text.splitlines():
        if not line.startswith("hk_"):
            continue
        series, _, value = line.rpartition(" ")
        name = series.split("{", 1)[0]
        sums[name] = sums.get(name, 0.0) + float(value)
    return sums


def open_loop(conn, next_request, rate_hz, tally, samples, lags, stop=None, count=None):
    """Send on a fixed schedule; latency runs from each request's due time."""
    interval = 1.0 / rate_hz
    due = time.perf_counter()
    sent = 0
    while (count is None or sent < count) and (stop is None or not stop.is_set()):
        # Sleep most of the gap (a spinning sender competes with the daemon
        # for vCPUs), then spin the last 200 us to send on time.
        gap = due - time.perf_counter()
        if gap > 0.0003:
            time.sleep(gap - 0.0002)
        while time.perf_counter() < due:
            pass
        lags.append(time.perf_counter() - due)
        verb, line, check = next_request()
        safe_request(conn, line, tally, check)
        samples.setdefault(verb, []).append(time.perf_counter() - due)
        due += interval
        sent += 1


class Context:
    def __init__(self, workload, seed, bins, tmp, prep):
        self.workload = workload
        self.seed = seed
        self.hk_serve, self.hkbench = bins
        self.tmp = tmp
        self.prep = prep
        self.capture = prep["capture"]
        self.expected = dict((req, resp) for req, resp in prep["expected"])
        self.point_ids = prep["point_ids"]
        self.tally = Tally()
        self.trace_seconds = 0.0


def wait_drained(conn, names, tally):
    """Poll STATS until every instance's ingest thread finished."""
    pending = list(names)
    while pending:
        pending = [n for n in pending if stats_of(conn, n, tally).get("ingest_done") != "1"]
        if pending:
            time.sleep(POLL_S)
    return time.perf_counter()


def mixed_ingest(ctx, conn, port, attached_at, rng, cycle):
    """serve-mixed: open-loop queries on this thread while a second thread
    (second connection) polls for drain and checkpoints on a fixed period."""
    wl = ctx.workload
    state = {"drained_at": None, "error": None}
    stop = threading.Event()

    def control():
        conn2 = None
        try:
            conn2 = Conn(port)
            next_checkpoint = attached_at + CHECKPOINT_FIRST_S
            pending = [name for name, _ in wl.instances]
            while pending:
                pending = [n for n in pending
                           if stats_of(conn2, n, ctx.tally).get("ingest_done") != "1"]
                if not pending:
                    break
                if time.perf_counter() >= next_checkpoint:
                    start = time.perf_counter()
                    ok = safe_request(conn2, "CHECKPOINT", ctx.tally,
                                      lambda r: r.startswith("OK checkpoint"))
                    if ok is not None:
                        cycle["ingest_checkpoint_ms"].append((time.perf_counter() - start) * 1e3)
                    while next_checkpoint <= time.perf_counter():
                        next_checkpoint += CHECKPOINT_PERIOD_S
                time.sleep(POLL_S)
            state["drained_at"] = time.perf_counter()
        except Exception as e:  # forwarded to the main thread below
            state["error"] = e
        finally:
            stop.set()
            if conn2 is not None:
                conn2.close()

    def next_request():
        pick = rng.randrange(3)
        if pick == 0:
            return "topk", f"TOPK {wl.main} 100", valid_topk
        if pick == 1:
            return ("point", f"POINT {wl.main} {rng.choice(ctx.point_ids)}",
                    lambda r: POINT_RE.fullmatch(r) is not None)
        return "window", f"TOPK {wl.window} 100 window", lambda r: valid_topk(r, window=True)

    thread = threading.Thread(target=control)
    thread.start()
    try:
        open_loop(conn, next_request, INGEST_QUERY_RATE_HZ, ctx.tally, cycle["ingest_samples"],
                  cycle["lags"], stop=stop)
    finally:
        stop.wait()
        thread.join()
    if state["error"] is not None:
        raise state["error"]
    return state["drained_at"]


def run_cycle(ctx, index, rng):
    """Spawn, set up, ingest, verify, query, scrape, reap. Returns the cycle's numbers."""
    wl = ctx.workload
    names = [name for name, _ in wl.instances]
    cycle = {"samples": {}, "ingest_samples": {}, "pipelined": {}, "lags": [], "checkpoint_ms": [],
             "ingest_checkpoint_ms": [], "idle_point_s": [], "instances": len(names)}
    started = time.perf_counter()
    with Daemon(ctx.hk_serve, ctx.tmp, f"cycle{index}") as daemon:
        port = daemon.wait_port()
        conn = Conn(port)
        try:
            for line in wl.create_lines() + wl.attach_lines(ctx.capture):
                if safe_request(conn, line, ctx.tally, lambda r: r.startswith("OK ")) is None:
                    raise BenchError(f"'{line}' failed: {ctx.tally.notes[-1:]}")
            attached_at = time.perf_counter()
            cycle["setup_s"] = attached_at - started
            if wl.queries_under_ingest:
                drained_at = mixed_ingest(ctx, conn, port, attached_at, rng, cycle)
            else:
                drained_at = wait_drained(conn, names, ctx.tally)
            cycle["peak_rss_mb"] = daemon.peak_rss_mb()
            cycle["ingest_s"] = drained_at - attached_at
            cycle["ingest_mpps"] = len(names) * ctx.prep["packets"] / cycle["ingest_s"] / 1e6

            # Correctness: every record applied, and every final answer
            # byte-equal to the in-process reference replay.
            for name in names:
                applied = stats_of(conn, name, ctx.tally).get("packets_applied")
                ctx.tally.record(applied == str(ctx.prep["packets"]),
                                 f"{name} applied {applied} of {ctx.prep['packets']}")
            for line, want in ctx.expected.items():
                start = time.perf_counter()
                safe_request(conn, line, ctx.tally, lambda r, want=want: r == want)
                if line.startswith("POINT "):
                    cycle["idle_point_s"].append(time.perf_counter() - start)

            # Drained daemon: an open loop of TOPK/POINT, then pipelined
            # bursts of each; every answer must still equal the reference.
            def next_request():
                if rng.randrange(2) == 0:
                    verb, line = "topk", f"TOPK {wl.main} 100"
                else:
                    verb, line = "point", f"POINT {wl.main} {rng.choice(ctx.point_ids)}"
                want = ctx.expected[line]
                return verb, line, lambda r: r == want
            open_loop(conn, next_request, QUERY_RATE_HZ, ctx.tally, cycle["samples"],
                      cycle["lags"], count=IDLE_QUERIES_PER_CYCLE)
            for verb in ("topk", "point"):
                for _ in range(PIPELINE_BURSTS):
                    lines = [f"TOPK {wl.main} 100" if verb == "topk" else
                             f"POINT {wl.main} {rng.choice(ctx.point_ids)}"
                             for _ in range(PIPELINE_BURST)]
                    per_request = pipelined(conn, lines, ctx.expected, ctx.tally)
                    if per_request is not None:
                        cycle["pipelined"].setdefault(verb, []).append(per_request)
            first = time.perf_counter()
            for _ in range(IDLE_CHECKPOINTS_MAX):
                start = time.perf_counter()
                if safe_request(conn, "CHECKPOINT", ctx.tally,
                                lambda r: r.startswith("OK checkpoint")) is not None:
                    cycle["checkpoint_ms"].append((time.perf_counter() - start) * 1e3)
                if time.perf_counter() - first >= IDLE_CHECKPOINT_S:
                    break

            cycle["simd_kernel"] = stats_of(conn, wl.main, ctx.tally).get("simd", "none")
            scrape = safe_request(conn, "METRICS", ctx.tally, lambda r: r.endswith("END\n"))
            cycle["metrics"] = parse_metrics(scrape or "")
        finally:
            conn.close()
    for path in (daemon.checkpoint, daemon.log_path):
        if os.path.exists(path):
            os.remove(path)
    return cycle


def run_cycles(ctx, budget_s):
    rng = random.Random(ctx.seed * 7919 + 17)
    cycles = []
    gc.disable()
    try:
        # One warm-up cycle first (page cache, allocator, CPU clocks): its
        # answers are checked like any other, its timings are dropped.
        run_cycle(ctx, 0, rng)
        gc.collect()
        start = time.perf_counter()
        while not cycles or (not ctx.tally.failed and time.perf_counter() - start < budget_s):
            cycles.append(run_cycle(ctx, len(cycles) + 1, rng))
            gc.collect()
    finally:
        gc.enable()
    return cycles


def pooled(cycles, verb, phase="samples"):
    return [s for c in cycles for s in c[phase].get(verb, [])]


def e2e_metrics(ctx, cycles):
    """Queries and CHECKPOINT are timed on the drained daemon, queries in
    pipelined bursts: one-at-a-time latency moves with host CPU steal by more
    than any usable bound (see README), so it is a per-layer metric."""
    checkpoints = [ms for c in cycles for ms in c["checkpoint_ms"]]
    return {
        "ingest_mpps": median([c["ingest_mpps"] for c in cycles]),
        "precision": ctx.prep["precision"],
        "setup_s": median([c["setup_s"] for c in cycles]),
        "peak_rss_mb": max(c["peak_rss_mb"] for c in cycles),
        "topk_pipelined_us": median(pooled(cycles, "topk", "pipelined")) * 1e6,
        "point_pipelined_us": median(pooled(cycles, "point", "pipelined")) * 1e6,
        "checkpoint_p50_ms": median(checkpoints),
    }


def metrics_ladder(cycles):
    """Per-layer counts from the last cycle's METRICS scrape, per applied packet
    (all 0 when telemetry is off)."""
    last = cycles[-1]
    sums = last["metrics"]
    packets = sums.get("hk_ingest_packets_total", 0.0) or 1.0
    attempts = sums.get("hk_core_decay_attempts_total", 0.0)
    instances = last["instances"]
    return {
        "core.decay_attempts_per_pkt": attempts / packets,
        "core.decay_success_ratio": (sums.get("hk_core_decay_success_total", 0.0) / attempts
                                     if attempts else 0.0),
        "core.stuck_per_kpkt": sums.get("hk_core_stuck_events_total", 0.0) * 1e3 / packets,
        "summary.admissions_per_kpkt": sums.get("hk_store_admissions_total", 0.0) * 1e3 / packets,
        "summary.evictions_per_kpkt": sums.get("hk_store_evictions_total", 0.0) * 1e3 / packets,
        "summary.root_resyncs_per_kpkt": (sums.get("hk_store_root_resyncs_total", 0.0) * 1e3
                                          / packets),
        "shard.ring_highwater": sums.get("hk_ring_occupancy_highwater", 0.0),
        "ingest.source_wait_share": (sums.get("hk_ingest_source_wait_us_total", 0.0)
                                     / (last["ingest_s"] * 1e6 * instances)),
        "ingest.malformed": sums.get("hk_ingest_malformed_frames_total", 0.0),
    }


def trace_metrics(ctx, cycles, bdir):
    """The per-layer ladder: hkbench's traced replay + this run's wire and METRICS numbers."""
    wl = ctx.workload
    spans_dir = os.path.join(bdir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [ctx.hkbench, "trace", "--capture", ctx.capture, "--key", wl.key,
           "--points", os.path.join(ctx.tmp, "points.txt"), "--dir", ctx.tmp,
           "--seconds", str(ctx.trace_seconds),
           "--spans-out", os.path.join(spans_dir, f"{wl.name}-seed{ctx.seed}.json")]
    for name, spec in wl.instances:
        cmd += ["--instance", f"{name}={spec}"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=170, check=False)
    if proc.returncode != 0:
        raise BenchError(f"hkbench trace exited {proc.returncode}")
    ladder = json.loads(proc.stdout.strip().splitlines()[-1])
    values = dict(ladder["metrics"])
    ctx.tally.record(ladder["topk_response"] == ctx.expected[f"TOPK {wl.main} 100"],
                     "traced replay TOPK differs from the reference")
    ctx.tally.record(ladder["malformed"] == 0, f"traced replay skipped {ladder['malformed']} frames")
    ctx.tally.record(values["bench.span_coverage"] >= SPAN_COVERAGE_FLOOR,
                     f"spans cover {values['bench.span_coverage']:.3f} of the ingest wall")
    values.update(metrics_ladder(cycles))
    ctx.tally.record(values["ingest.malformed"] == 0, "daemon skipped malformed frames")
    values["core.topk_are"] = ctx.prep["are"]
    idle_point = [s for c in cycles for s in c["idle_point_s"]]
    values["serve.net_us"] = median(idle_point) * 1e6 - values["serve.execute_us.point"]
    for verb in ("topk", "point"):
        for q in (50, 99):
            values[f"serve.wire_p{q}_us.{verb}"] = percentile(pooled(cycles, verb), q / 100) * 1e6
    for verb in ("topk", "point", "window"):
        samples = pooled(cycles, verb, "ingest_samples")
        for q in (50, 99):
            values[f"serve.under_ingest_p{q}_us.{verb}"] = (
                percentile(samples, q / 100) * 1e6 if samples else 0.0)
    lags = [s for c in cycles for s in c["lags"]]
    values["bench.generator_lag_p99_us"] = percentile(lags, 0.99) * 1e6
    return values, ladder["simd_kernel"]


def prepare(wl, seed, hkbench, tmp):
    capture = os.path.join(tmp, "capture.pcap")
    cmd = [hkbench, "prepare", "--kind", wl.kind, "--packets", str(PACKETS), "--seed", str(seed),
           "--dir", tmp]
    for line in wl.create_lines() + wl.attach_lines(capture):
        cmd += ["--setup", line]
    if wl.window:
        cmd += ["--check", f"TOPK {wl.window} 100 window"]
    run_quiet(cmd, timeout=170)
    # Write the capture out now, so its writeback does not land inside the
    # first timed checkpoint's fsync.
    with open(capture, "rb") as f:
        os.fsync(f.fileno())
    with open(os.path.join(tmp, "prepare.json")) as f:
        return json.load(f)


def run(args):
    wl = WORKLOADS[args.workload]
    bdir = build_dir()
    cache = build(bdir)
    bins = (os.path.join(bdir, "bin", "hk_serve"), os.path.join(bdir, "bin", "hkbench"))
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    try:
        prep = prepare(wl, args.seed, bins[1], tmp)
        ctx = Context(wl, args.seed, bins, tmp, prep)
        ctx.tally.record(prep["precision"] >= PRECISION_FLOOR,
                         f"precision {prep['precision']} below the {PRECISION_FLOOR} floor")
        sys.setswitchinterval(0.0001)
        if args.trace:
            ctx.trace_seconds = max(1.0, args.seconds * 0.5)
            cycles = run_cycles(ctx, max(1.0, args.seconds * 0.4))
            metrics, kernel = trace_metrics(ctx, cycles, bdir)
            units = {m["name"]: m["unit"] for m in load_ladder()}
        else:
            cycles = run_cycles(ctx, args.seconds)
            metrics = e2e_metrics(ctx, cycles) if not ctx.tally.failed else {}
            kernel = cycles[-1].get("simd_kernel", "none")
            units = E2E_UNITS
        missing = sorted(set(units) - set(metrics))
        if missing and not ctx.tally.failed:
            raise BenchError(f"metrics not produced: {missing}")
        report = {
            "workload": wl.name,
            "seed": args.seed,
            "trace": args.trace,
            "environment": environment(cache, kernel),
            "prepare": {k: prep[k] for k in ("packets", "flows", "precision", "are", "recall",
                                              "synth_s", "reference_s")},
            "cycles": [{k: c[k] for k in ("setup_s", "ingest_s", "ingest_mpps", "peak_rss_mb")
                        if k in c} for c in cycles],
            "samples": {verb: len(pooled(cycles, verb)) for verb in ("topk", "point")},
            "pipelined_bursts": {verb: len(pooled(cycles, verb, "pipelined"))
                                 for verb in ("topk", "point")},
            "under_ingest_samples": {verb: len(pooled(cycles, verb, "ingest_samples"))
                                     for verb in ("topk", "point", "window")},
            "checkpoints": sum(len(c["checkpoint_ms"]) for c in cycles),
            "under_ingest_checkpoint_ms": [ms for c in cycles for ms in c["ingest_checkpoint_ms"]],
            "metrics_scrape": {"simd_kernel": cycles[-1].get("simd_kernel"),
                               "per_packet": metrics_ladder(cycles),
                               "counts": cycles[-1].get("metrics", {})},
            "failures": ctx.tally.notes,
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass
    result = {
        "correct": ctx.tally.failed == 0,
        "attempted": ctx.tally.attempted,
        "failed": ctx.tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    return report, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def on_term(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    try:
        report, result = run(args)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
