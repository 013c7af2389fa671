#!/usr/bin/env python3
"""End-to-end benchmark of the `scoded` binary and a live `scoded serve`.

    python3 e2ebench/run.py --workload large|small --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the libraries, the CLI
and the helper programs from source into .bench_build/ (CMake,
RelWithDebInfo, the type of the repository's own default build); fixtures,
outputs and logs go to .bench_work/. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer metrics of the in-process traced run. The line before it starts
with "# fingerprint " and records the host, build, thread caps, seed and
fixtures. See e2ebench/README.md for the workloads and the metric map.
"""

import argparse
import hashlib
import json
import math
import os
import re
import select
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
SCODED = os.path.join(BUILD, "scoded_tools", "scoded")
HELPER = os.path.join(BUILD, "e2e_helper")
TRACER = os.path.join(BUILD, "e2e_trace")
SPAWN = os.path.join(BUILD, "e2e_spawn")

# Cores the benchmark may use. Each scoded CLI process gets half of them, so
# processes x threads stays within CORES and the host keeps headroom: on a
# shared 4-core host, runs that kept all 4 cores busy varied up to 3x on the
# pool-heavy drill; with 2 threads they varied far less.
CORES = max(1, min(4, os.cpu_count() or 1))
THREADS = max(1, CORES // 2)
WORKERS = 2
WORKER_THREADS = max(1, THREADS // WORKERS)
# The daemon and its load client share one CPU, and the daemon runs one
# thread. In a closed loop only one of the two runs at a time. When they sat
# on different CPUs, each hand-off had to wake an idle virtual CPU, which on
# a contended shared host took milliseconds: at 2-4% hypervisor steal the
# p95 of daemon checks rose 41% and session time 33% over quiet periods,
# against 6% and 11% with both on one CPU (interleaved runs, 4-vCPU VM).
SERVE_CPU = max(os.sched_getaffinity(0))
SERVE_THREADS = 1

CHECK_SC = "Color _||_ Price | Model"
DRILL_SC = "Price !_||_ Mileage"
MONITOR_SCS = ["Model _||_ Color", "Price !_||_ Mileage"]
ORACLE_SC = "Model _||_ Color"
DRILL_K = 500
MONITOR_BATCH = 2000
SESSION_BATCH = 500
SHARD_ROWS = 65536
SERVE_FILES = 2          # distinct CSVs the check requests cycle over
SETUP_PER_ROUND = 5     # set-ups timed in each round, so they span the run
TRACE_SERVE_REQUESTS = 50
WARMUP_REQUESTS = 10
TRACE_REPEATS = 3
OP_DEADLINE_S = 45.0     # a hung operation is killed and counted as failed
RUN_BUDGET_S = 120.0     # no new round starts after this much wall time

# Every workload runs every operation, so every end-to-end metric exists on
# every workload; the workload decides how large the CLI inputs are. The
# daemon load of a round is the same on both: SERVE_REQUESTS checks and one
# session. check_reps and analyze_reps repeat each `check` and each
# drill/monitor command within a round. Rounds repeat until --seconds have
# passed, and at least min_rounds times. On `large`, the memory-bound checks
# varied most from sample to sample on a shared host, so they run twice a
# round on a smaller file: about 13 samples each in a 45-second run, and 6
# or 7 of drill and monitor. `small`'s commands take milliseconds, so it
# runs each six times a round.
SERVE_SHAPE = dict(serve_rows=10_000, session_rows=50_000)
SERVE_REQUESTS = 100
WORKLOADS = {
    "large": dict(check_rows=300_000, analyze_rows=100_000, check_reps=2, analyze_reps=1,
                  setup="check", min_rounds=5, **SERVE_SHAPE),
    "small": dict(check_rows=10_000, analyze_rows=10_000, check_reps=6, analyze_reps=6,
                  setup="serve", min_rounds=5, **SERVE_SHAPE),
}
# serve_check_p95_ms is the median of the p95s of consecutive blocks of this
# many requests (ten lie beyond each block's p95), so a burst of host
# contention moves one block, not the whole run's tail.
P95_BLOCK = 200

PLANTED = ("Color depends on Model (40% of rows copy the model's colour); "
           "Price depends on Model only; Mileage is independent of all columns")

E2E_UNITS = {
    "setup_s": "s",
    "check_inmem_s": "s",
    "check_sharded_s": "s",
    "check_workers_s": "s",
    "check_inmem_rss_mb": "MB",
    "check_sharded_rss_mb": "MB",
    "drill_s": "s",
    "monitor_s": "s",
    "serve_check_p50_ms": "ms",
    "serve_check_p95_ms": "ms",
    "serve_monitor_s": "s",
    "serve_rss_mb": "MB",
}

OPS = ["check_inmem", "check_sharded", "check_workers", "drill", "monitor",
       "serve_check", "serve_monitor"]

LAYER_UNITS = {
    "table.io_ms": "ms", "table.csv_scan_ms": "ms", "table.csv_infer_ms": "ms",
    "table.csv_build_ms": "ms", "table.read_file_ms": "ms", "table.mb_per_s": "MB/s",
    "table.shard_open_ms": "ms", "table.shard_next_ms": "ms", "table.shards": "count",
    "core.sharded_check_ms": "ms", "core.shard_summarize_fold_ms": "ms",
    "dist.spawn_ms": "ms", "dist.check_all_ms": "ms", "dist.task_rtt_p50_ms": "ms",
    "dist.task_rtt_max_ms": "ms", "dist.tasks": "count", "dist.tasks_retried": "count",
    "dist.coordinator_wait_ms": "ms", "dist.worker_cpu_ms": "ms",
    "core.check_violation_ms": "ms", "stats.tests_executed": "count",
    "stats.rows_scanned": "count", "stats.encode_cache_hit_ratio": "ratio",
    "core.drilldown_ms": "ms", "core.drilldown_removals": "count",
    "stats.tau_benefit_calls": "count",
    "core.stream_create_ms": "ms", "core.stream_append_ms": "ms",
    "core.stream_append_p90_ms": "ms", "stats.concordance_compactions": "count",
    "serve.connect_ms": "ms", "serve.check_rtt_p50_ms": "ms", "serve.check_local_ms": "ms",
    "serve.check_overhead_ms": "ms", "serve.request_bytes": "bytes",
    "serve.wire_encode_ms": "ms", "serve.append_rtt_p50_ms": "ms",
    "serve.query_rtt_p50_ms": "ms",
}
for _op in OPS:
    LAYER_UNITS["parallel.tasks." + _op] = "count"
    LAYER_UNITS["parallel.runs." + _op] = "count"
    LAYER_UNITS["parallel.queue_wait_ms." + _op] = "ms"
for _op in OPS:
    LAYER_UNITS["trace.unattributed_ms." + _op] = "ms"


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build --

def build(targets):
    """Configures (once) and builds `targets`; raises on failure."""
    os.makedirs(WORK, exist_ok=True)
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                subprocess.run(["rm", "-rf", BUILD], check=True)
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", str(CORES), "--target"] + targets)
    with open(os.path.join(WORK, "build.log"), "ab") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                raise RuntimeError("build step failed: %s (see .bench_work/build.log)"
                                   % " ".join(step))


# ------------------------------------------------------------- processes --

class Proc:
    """Outcome of one child process."""

    def __init__(self, rc, wall_s, maxrss_kb, timed_out, stdout):
        self.rc = rc
        self.wall_s = wall_s
        self.maxrss_mb = maxrss_kb / 1024.0
        self.timed_out = timed_out
        self.stdout = stdout


def scoded_env(threads):
    """The caller's environment without its SCODED_* settings (a stray
    SCODED_SHARD_ROWS or SCODED_SIMD would change the path measured), plus
    the ones the benchmark sets; the fingerprint records those."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SCODED_")}
    env["SCODED_THREADS"] = str(threads)
    env["SCODED_CRASH_DIR"] = WORK  # flight-recorder reports stay in the checkout
    return env


def read_report(path):
    """The launcher's {"rc", "wall_s", "maxrss_kb"}, or None if it has none."""
    report = load_json(path)
    return report if isinstance(report, dict) and "rc" in report else None


# Process groups of running children, killed if run.py itself is stopped.
LIVE_GROUPS = set()


def kill_live_groups():
    for pgid in list(LIVE_GROUPS):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        LIVE_GROUPS.discard(pgid)


def spawn_argv(report_path, cpu):
    """The e2e_spawn prefix, pinned to `cpu` unless it is None."""
    return [SPAWN] + (["--cpu", str(cpu)] if cpu is not None else []) + [report_path]


def run_proc(argv, env=None, deadline_s=OP_DEADLINE_S, tag="proc", cpu=None):
    """Runs argv to completion under e2e_spawn, which times it and takes its
    peak RSS from wait4; the deadline kills the whole process group."""
    out_path = os.path.join(WORK, tag + ".out")
    err_path = os.path.join(WORK, tag + ".err")
    report_path = os.path.join(WORK, tag + ".report")
    if os.path.exists(report_path):
        os.remove(report_path)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(spawn_argv(report_path, cpu) + argv, stdout=out, stderr=err,
                                env=env, cwd=WORK, start_new_session=True)
        LIVE_GROUPS.add(proc.pid)
        timed_out = []

        def kill():
            timed_out.append(True)
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(deadline_s, kill)
        timer.daemon = True
        timer.start()
        try:
            proc.wait()
        finally:
            timer.cancel()
    # Kill anything the child left in its process group (e.g. killed workers).
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    LIVE_GROUPS.discard(proc.pid)
    with open(out_path, "rb") as f:
        stdout = f.read().decode("utf-8", errors="replace")
    report = read_report(report_path)
    if timed_out or report is None:
        return Proc(-1, deadline_s, 0, True, stdout)
    return Proc(report["rc"], report["wall_s"], report["maxrss_kb"], False, stdout)


def helper(args, tag, threads=THREADS, cpu=None):
    return run_proc([HELPER] + args + ["--threads", str(threads)], env=scoded_env(threads),
                    tag=tag, cpu=cpu)


# -------------------------------------------------------------- fixtures --

def fixture_seed(seed, tag):
    return (seed * 1_000_003 + tag * 7919 + 17) % (1 << 62)


def make_fixture(name, rows, seed, tag):
    path = os.path.join(WORK, name + ".csv")
    proc = helper(["gen", "--rows", str(rows), "--seed", str(fixture_seed(seed, tag)),
                   "--out", path], tag="gen_" + name)
    if proc.rc != 0:
        raise RuntimeError("fixture generation failed for %s" % name)
    with open(path, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    info = json.loads(proc.stdout)
    return path, {"file": name + ".csv", "rows": info["rows"], "bytes": info["bytes"],
                  "sha256": digest, "planted": PLANTED}


def g_statistic(path):
    """Independent oracle: G = 2 * sum O * ln(O / E) over the table of the
    two columns of ORACLE_SC, and the row count."""
    x, y = ORACLE_SC.split(" _||_ ")
    counts, rows_x, rows_y, n = {}, {}, {}, 0
    with open(path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split(",")
        ix, iy = header.index(x), header.index(y)
        for line in f:
            cells = line.rstrip("\n").split(",")
            a, b = cells[ix], cells[iy]
            counts[(a, b)] = counts.get((a, b), 0) + 1
            rows_x[a] = rows_x.get(a, 0) + 1
            rows_y[b] = rows_y.get(b, 0) + 1
            n += 1
    g = 0.0
    for (a, b), o in counts.items():
        g += o * math.log(o * n / (rows_x[a] * rows_y[b]))
    return 2.0 * g, n


def oracle_agrees(text, g, n):
    """The last `Model _||_ Color` state row matches G (to %.4g) and n."""
    rows = re.findall(r"^(\d+)\s+%s\s+(\S+)\s" % re.escape(ORACLE_SC), text, re.M)
    if not rows:
        return False
    records, printed = int(rows[-1][0]), float(rows[-1][1])
    if records != n:
        return False
    if g == 0.0:
        return printed == 0.0
    tolerance = 0.5 * 10 ** (math.floor(math.log10(abs(g))) - 3) * 1.001
    return abs(printed - g) <= tolerance


# ----------------------------------------------------------------- serve --

def ping(port, timeout_s=2.0):
    """One {"op":"ping"} round trip over the serve framing; True on ok."""
    payload = b'{"op":"ping"}'
    with socket.create_connection(("127.0.0.1", port), timeout=timeout_s) as conn:
        conn.sendall(struct.pack(">I", len(payload)) + payload)
        head = b""
        while len(head) < 4:
            chunk = conn.recv(4 - len(head))
            if not chunk:
                return False
            head += chunk
        size = struct.unpack(">I", head)[0]
        body = b""
        while len(body) < size:
            chunk = conn.recv(size - len(body))
            if not chunk:
                return False
            body += chunk
    return json.loads(body).get("ok") is True


class Daemon:
    """A `scoded serve --port 0` child: started, pinged, stopped cleanly."""

    def __init__(self, tag):
        self.report_path = os.path.join(WORK, tag + ".report")
        self.out_path = os.path.join(WORK, tag + ".out")
        self.err = open(os.path.join(WORK, tag + ".err"), "wb")
        self.out = open(self.out_path, "wb")
        self.proc = None
        self.port = None

    def start(self, deadline_s=20.0):
        """Spawns the daemon and waits for its first successful ping; returns
        False if it never answered."""
        start = time.perf_counter()
        if os.path.exists(self.report_path):
            os.remove(self.report_path)
        self.proc = subprocess.Popen(spawn_argv(self.report_path, SERVE_CPU) +
                                     [SCODED, "serve", "--port", "0", "--threads",
                                      str(SERVE_THREADS)], stdout=self.out, stderr=self.err,
                                     env=scoded_env(SERVE_THREADS), cwd=WORK,
                                     start_new_session=True)
        LIVE_GROUPS.add(self.proc.pid)
        while time.perf_counter() - start < deadline_s:
            if self.port is None:
                with open(self.out_path, encoding="utf-8", errors="replace") as f:
                    # Only a whole line: a read may see the write half done.
                    found = re.search(r"listening on 127\.0\.0\.1:(\d+)\n", f.read())
                if found:
                    self.port = int(found.group(1))
            if self.port is not None:
                try:
                    if ping(self.port):
                        return True
                except OSError:
                    pass
            if self.proc.poll() is not None:
                return False
            time.sleep(0.0005)
        return False

    def stop(self, deadline_s=20.0):
        """SIGTERM (e2e_spawn forwards it), then waits; returns (clean shutdown,
        peak RSS in MB from the launcher's wait4)."""
        if self.proc is None:
            return False, 0.0
        timer = threading.Timer(deadline_s, self._kill)
        timer.daemon = True
        timer.start()
        try:
            self.proc.send_signal(signal.SIGTERM)  # forwarded to the daemon
            self.proc.wait()
        finally:
            timer.cancel()
        LIVE_GROUPS.discard(self.proc.pid)
        self.out.close()
        self.err.close()
        report = read_report(self.report_path)
        if report is None:
            return False, 0.0
        with open(self.out_path, encoding="utf-8", errors="replace") as f:
            clean = report["rc"] == 0 and "shut down cleanly" in f.read()
        return clean, report["maxrss_kb"] / 1024.0

    def _kill(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def kill(self):
        if self.proc is not None and self.proc.poll() is None:
            self._kill()
            self.proc.wait()


class LoadClient:
    """The daemon's load generator: one long-lived `e2e_helper serve-load`
    process with one connection, on the daemon's CPU. Each command ("check
    N" or "session") runs closed loop and must be acknowledged within the
    deadline; the replies are read and gated after finish()."""

    def __init__(self, args, out_path):
        self.out_path = out_path
        self.report_path = os.path.join(WORK, "serve_load.report")
        for path in (out_path, self.report_path):
            if os.path.exists(path):
                os.remove(path)
        with open(os.path.join(WORK, "serve_load.err"), "wb") as err:
            self.proc = subprocess.Popen(
                spawn_argv(self.report_path, SERVE_CPU) + [HELPER] + args + ["--threads", "1"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, env=scoded_env(1),
                cwd=WORK, start_new_session=True, bufsize=0)
        LIVE_GROUPS.add(self.proc.pid)
        self.alive = self._reply() == "ready"

    def _reply(self):
        """The next line from the client, or "" on EOF or a missed deadline."""
        if not select.select([self.proc.stdout], [], [], OP_DEADLINE_S)[0]:
            return ""
        return self.proc.stdout.readline().decode("utf-8", errors="replace").strip()

    def command(self, line):
        if self.alive:
            try:
                self.proc.stdin.write((line + "\n").encode())
                self.alive = self._reply() == "ok"
            except BrokenPipeError:
                self.alive = False

    def finish(self):
        """Ends the load and returns its report, or None if the client
        failed, hung or died."""
        try:
            if self.alive:
                self.proc.stdin.write(b"end\n")
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        if self.alive:
            try:
                self.proc.wait(timeout=OP_DEADLINE_S)
            except subprocess.TimeoutExpired:
                self.alive = False
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        LIVE_GROUPS.discard(self.proc.pid)
        # A client that could not connect exits 0 with the error in its output.
        report = read_report(self.report_path)
        return load_json(self.out_path) if report is not None and report["rc"] == 0 else None


# ------------------------------------------------------------- benchmark --

class Ledger:
    """Attempted/failed operation counts, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, op, ok, why=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append("%s: %s" % (op, why or "output differs from reference"))
        return ok


def gate(ledger, op, proc, expected_stdout, expected_rc, extra_ok=True):
    """Correctness gate for one CLI operation."""
    if proc.timed_out:
        return ledger.record(op, False, "deadline exceeded")
    if proc.rc != expected_rc:
        return ledger.record(op, False, "exit code %d, expected %d" % (proc.rc, expected_rc))
    if proc.stdout != expected_stdout:
        return ledger.record(op, False, "stdout differs from in-process reference")
    return ledger.record(op, extra_ok, "independent G oracle disagrees")


def gate_serve(ledger, load, oracle):
    """Gates a serve-load report: every check reply and every session state
    must equal the in-process reference. Returns the round-trip ms of the
    correct check replies and the seconds of the correct sessions, without
    the warm-up (the first WARMUP_REQUESTS checks and the first session)."""
    if load is None:
        ledger.record("serve_load", False, "client failed or timed out")
        return [], []
    if "connect_error" in load:
        ledger.record("serve_load", False, load["connect_error"])
        return [], []
    check_ms = []
    for i, reply in enumerate(load["checks"]):
        ok = "error" not in reply and reply.get("line") == reply["expected"]
        if ledger.record("serve_check", ok, reply.get("error", "")) and i >= WARMUP_REQUESTS:
            check_ms.append(reply["ms"])
    session_s = []
    for i, session in enumerate(load["sessions"]):
        batches = session.get("batches", [])
        ok = "error" not in session and bool(batches)
        why = session.get("error", "")
        for b in batches:
            if ("error" in b or b.get("records") != b["expected_records"] or
                    b.get("lines") != b["expected"]):
                ok, why = False, b.get("error", "session state differs from in-process reference")
                break
        if ok and not oracle(batches[-1]["lines"]):
            ok, why = False, "independent G oracle disagrees"
        if ledger.record("serve_monitor", ok, why) and i >= 1:
            session_s.append(session["total_s"])
    return check_ms, session_s


def cpu_ticks():
    """(steal, total) CPU ticks of the host from /proc/stat, or None."""
    try:
        with open("/proc/stat", encoding="utf-8") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return (fields[7], sum(fields)) if len(fields) == 8 else None


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def block_p95(values):
    """Median of the p95s of consecutive P95_BLOCK-sample blocks (the last,
    partial block is dropped unless it is the only one)."""
    blocks = [values[i:i + P95_BLOCK] for i in range(0, len(values) - P95_BLOCK + 1, P95_BLOCK)]
    return statistics.median(percentile(b, 0.95) for b in (blocks or [values]))


def load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def measure_setup(kind, ledger, one_row_csv, ref_one):
    """SETUP_PER_ROUND gated set-up times: a one-row `check` ("check"), or
    daemon spawn to first successful ping, timed by e2e_helper ("serve")."""
    setup = []
    if kind == "serve":
        p = helper(["serve-setup", "--scoded", SCODED, "--repeats", str(SETUP_PER_ROUND)],
                   "serve_setup", threads=SERVE_THREADS, cpu=SERVE_CPU)
        report = json.loads(p.stdout) if p.rc == 0 and not p.timed_out else None
        if report is None:
            ledger.record("setup_serve", False, "serve-setup failed or timed out")
            return setup
        for why in report["failures"]:
            ledger.record("setup_serve", False, why)
        for seconds in report["setup_s"]:
            ledger.record("setup_serve", True)
            setup.append(seconds)
        return setup
    for _ in range(SETUP_PER_ROUND):
        p = run_proc([SCODED, "check", "--csv", one_row_csv, "--sc", CHECK_SC, "--threads",
                      str(THREADS)], env=scoded_env(THREADS), tag="setup")
        if gate(ledger, "setup_check", p, ref_one.stdout, ref_one.rc):
            setup.append(p.wall_s)
    return setup


def run_benchmark(workload, seed, seconds, trace, scale=1.0, corrupt_reference=False):
    """Runs one measurement; returns (result dict, fingerprint dict)."""
    cfg = {k: (max(1000, int(v * scale)) if k.endswith("_rows") else v)
           for k, v in WORKLOADS[workload].items()}
    os.makedirs(WORK, exist_ok=True)
    run_start = time.perf_counter()
    ticks_start = cpu_ticks()
    ledger = Ledger()

    # Fixtures, seeded; the program only ever sees the files.
    fixtures = {}
    check_csv, fixtures["check"] = make_fixture("check", cfg["check_rows"], seed, 1)
    analyze_csv, fixtures["analyze"] = make_fixture("analyze", cfg["analyze_rows"], seed, 2)
    serve_csvs = []
    for i in range(SERVE_FILES):
        path, fixtures["serve_%d" % i] = make_fixture("serve_%d" % i, cfg["serve_rows"], seed,
                                                      3 + i)
        serve_csvs.append(path)
    session_csv, fixtures["session"] = make_fixture("session", cfg["session_rows"], seed, 9)
    one_row_csv, fixtures["one_row"] = make_fixture("one_row", 1, seed, 10)

    # References from in-process library calls on the same fixtures.
    ref_check = helper(["ref-check", "--csv", check_csv, "--sc", CHECK_SC], "ref_check")
    ref_one = helper(["ref-check", "--csv", one_row_csv, "--sc", CHECK_SC], "ref_one")
    ref_drill = helper(["ref-drill", "--csv", analyze_csv, "--sc", DRILL_SC, "--k",
                        str(DRILL_K)], "ref_drill")
    monitor_args = []
    for sc in MONITOR_SCS:
        monitor_args += ["--sc", sc]
    ref_monitor = helper(["ref-monitor", "--csv", analyze_csv, "--batch", str(MONITOR_BATCH)]
                         + monitor_args, "ref_monitor")
    for ref in (ref_check, ref_one, ref_drill, ref_monitor):
        if ref.rc not in (0, 2) or ref.timed_out:
            raise RuntimeError("in-process reference failed")
    if corrupt_reference:
        # Self-test of the gate: a wrong verdict line must fail the op.
        swap = (": holds", ": VIOLATED") if ": holds" in ref_check.stdout else \
            (": VIOLATED", ": holds")
        ref_check.stdout = ref_check.stdout.replace(*swap, 1)
    analyze_g, analyze_n = g_statistic(analyze_csv)
    session_g, session_n = g_statistic(session_csv)

    setup = []
    daemon = Daemon("daemon")
    samples = {op: [] for op in ["check_inmem", "check_sharded", "check_workers", "drill",
                                 "monitor", "serve_monitor"]}
    rss = {"check_inmem": [], "check_sharded": []}
    serve_ms = []
    trace_out = None
    rounds = 0
    try:
        if not daemon.start():
            ledger.record("serve_start", False, "daemon did not answer a ping")
            raise RuntimeError("serve daemon failed to start")
        check_base = [SCODED, "check", "--csv", check_csv, "--sc", CHECK_SC]
        ops = [
            ("check_inmem", check_base + ["--shard-rows", "0", "--threads", str(THREADS)],
             THREADS, ref_check, None),
            ("check_sharded", check_base + ["--shard-rows", str(SHARD_ROWS), "--threads",
                                            str(THREADS)], THREADS, ref_check, None),
            ("check_workers", check_base + ["--workers", str(WORKERS), "--worker-transport",
                                            "fork", "--threads", str(WORKER_THREADS)],
             WORKER_THREADS, ref_check, None),
            ("drill", [SCODED, "drill", "--csv", analyze_csv, "--sc", DRILL_SC, "--k",
                       str(DRILL_K), "--threads", str(THREADS)], THREADS, ref_drill, None),
            ("monitor", [SCODED, "monitor", "--csv", analyze_csv, "--batch", str(MONITOR_BATCH),
                         "--threads", str(THREADS)] + monitor_args, THREADS, ref_monitor,
             lambda text: oracle_agrees(text, analyze_g, analyze_n)),
        ]
        load_path = os.path.join(WORK, "serve_load.json")
        load_args = ["serve-load", "--port", str(daemon.port), "--check-csv", ",".join(serve_csvs),
                     "--sc", CHECK_SC,
                     "--monitor-csv", session_csv, "--batch", str(SESSION_BATCH),
                     "--deadline-ms", str(int(OP_DEADLINE_S * 1000)), "--out", load_path]
        for sc in MONITOR_SCS:
            load_args += ["--monitor-sc", sc]
        # A round runs each CLI command check_reps or analyze_reps times;
        # repetitions are spread over the round, not run back to back.
        slots = []
        for rep in range(max(cfg["check_reps"], cfg["analyze_reps"])):
            for op in ops:
                if rep < (cfg["check_reps"] if op[0].startswith("check_") else
                          cfg["analyze_reps"]):
                    slots.append(op)

        load = LoadClient(load_args, load_path)
        try:
            # Warm-up, gated but not timed: WARMUP_REQUESTS daemon checks and
            # a session. The references above have just read every fixture,
            # so the page cache is already warm for the CLI commands.
            load.command("check %d" % WARMUP_REQUESTS)
            load.command("session")
            measure_start = time.perf_counter()
            while True:
                setup += measure_setup(cfg["setup"], ledger, one_row_csv, ref_one)
                # The round's daemon load is cut into chunks, one before each
                # CLI command, and the session sits in the middle: the
                # host's speed drifts within seconds, so load spread over
                # the whole run samples it evenly.
                for i, (name, argv, threads, ref, oracle) in enumerate(slots):
                    chunk = (SERVE_REQUESTS * (i + 1) // len(slots) -
                             SERVE_REQUESTS * i // len(slots))
                    load.command("check %d" % chunk)
                    if i == len(slots) // 2:
                        load.command("session")
                    p = run_proc(argv, env=scoded_env(threads), tag=name)
                    extra = oracle(p.stdout) if oracle else True
                    if gate(ledger, name, p, ref.stdout, ref.rc, extra):
                        samples[name].append(p.wall_s)
                        if name in rss:
                            rss[name].append(p.maxrss_mb)
                rounds += 1
                now = time.perf_counter()
                if rounds >= cfg["min_rounds"] and (now - measure_start >= seconds or
                                                    now - run_start >= RUN_BUDGET_S):
                    break
        finally:
            report = load.finish()
        serve_ms, samples["serve_monitor"] = gate_serve(
            ledger, report, lambda text: oracle_agrees(text, session_g, session_n))

        if trace:
            build(["e2e_trace"])
            spans_path = os.path.join(WORK, "trace_spans.json")
            argv = [TRACER, "--scoded", SCODED, "--threads", str(THREADS),
                    "--worker-threads", str(WORKER_THREADS), "--workers", str(WORKERS),
                    "--shard-rows", str(SHARD_ROWS), "--check-csv", check_csv,
                    "--check-sc", CHECK_SC, "--analyze-csv", analyze_csv,
                    "--drill-sc", DRILL_SC, "--k", str(DRILL_K), "--batch", str(MONITOR_BATCH),
                    "--port", str(daemon.port), "--serve-cpu", str(SERVE_CPU),
                    "--serve-threads", str(SERVE_THREADS), "--serve-csv", ",".join(serve_csvs),
                    "--serve-requests", str(TRACE_SERVE_REQUESTS),
                    "--serve-monitor-csv", session_csv, "--serve-batch", str(SESSION_BATCH),
                    "--repeat", str(TRACE_REPEATS), "--spans-out", spans_path]
            for sc in MONITOR_SCS:
                argv += ["--monitor-sc", sc]
            p = run_proc(argv, env=scoded_env(THREADS), deadline_s=120.0, tag="trace")
            if p.rc == 0 and not p.timed_out:
                trace_out = json.loads(p.stdout.strip().splitlines()[-1])
            ledger.record("trace", trace_out is not None, "traced run failed")
    finally:
        clean, serve_rss = daemon.stop()
        daemon.kill()
    ledger.record("serve_shutdown", clean, "daemon did not print 'shut down cleanly' with exit 0")

    def med(values):
        return statistics.median(values) if values else 0.0

    e2e = {
        "setup_s": med(setup),
        "check_inmem_s": med(samples["check_inmem"]),
        "check_sharded_s": med(samples["check_sharded"]),
        "check_workers_s": med(samples["check_workers"]),
        "check_inmem_rss_mb": med(rss["check_inmem"]),
        "check_sharded_rss_mb": med(rss["check_sharded"]),
        "drill_s": med(samples["drill"]),
        "monitor_s": med(samples["monitor"]),
        "serve_check_p50_ms": med(serve_ms),
        "serve_check_p95_ms": block_p95(serve_ms) if serve_ms else 0.0,
        "serve_monitor_s": med(samples["serve_monitor"]),
        "serve_rss_mb": serve_rss,
    }
    if trace:
        metrics = {}
        layer = trace_out["metrics"] if trace_out else {}
        op_ms = trace_out["op_ms"] if trace_out else {}
        e2e_ms = {
            "check_inmem": e2e["check_inmem_s"] * 1e3,
            "check_sharded": e2e["check_sharded_s"] * 1e3,
            "check_workers": e2e["check_workers_s"] * 1e3,
            "drill": e2e["drill_s"] * 1e3,
            "monitor": e2e["monitor_s"] * 1e3,
            "serve_check": e2e["serve_check_p50_ms"],
            "serve_monitor": e2e["serve_monitor_s"] * 1e3,
        }
        for name, unit in LAYER_UNITS.items():
            if name.startswith("trace.unattributed_ms."):
                op = name[len("trace.unattributed_ms."):]
                value = e2e_ms[op] - op_ms.get(op, 0.0)
            else:
                value = layer.get(name, 0.0)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E_UNITS.items()}

    # The share of CPU time the hypervisor gave to other guests during the
    # run: a run with a high share was measured on a contended host.
    ticks_end = cpu_ticks()
    steal_pct = None
    if ticks_start and ticks_end and ticks_end[1] > ticks_start[1]:
        steal_pct = 100.0 * (ticks_end[0] - ticks_start[0]) / (ticks_end[1] - ticks_start[1])

    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    fingerprint = host_fingerprint()
    fingerprint.update({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds_timed": rounds, "scale": scale,
        "scoded_env": {k: v for k, v in scoded_env(THREADS).items() if k.startswith("SCODED_")},
        "threads": {"per_process": THREADS, "check_workers": "%d workers x %d threads"
                    % (WORKERS, WORKER_THREADS), "serve_daemon": SERVE_THREADS, "load_client": 1,
                    "serve_cpu": SERVE_CPU},
        "fixtures": fixtures,
        "samples": {k: len(v) for k, v in samples.items()} | {"serve_check": len(serve_ms),
                                                              "setup": len(setup)},
        "failed_op_ratio": ledger.failed / max(1, ledger.attempted),
        "failures": ledger.failures[:20],
        "wall_s": time.perf_counter() - run_start,
        "host_steal_pct": steal_pct,
    })
    if trace:
        fingerprint["op_ms"] = {"end_to_end": e2e_ms, "traced": op_ms}
    RAW_SAMPLES.update(samples, setup=setup, serve_check_ms=serve_ms)
    return result, fingerprint


_FINGERPRINT = {}
# Every sample of the last run, kept for the result file in .bench_work/.
RAW_SAMPLES = {}


def host_fingerprint():
    if not _FINGERPRINT:
        cpu = "unknown"
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as f:
                found = re.search(r"^model name\s*:\s*(.*)$", f.read(), re.M)
                cpu = found.group(1).strip() if found else cpu
        except OSError:
            pass
        build_info = json.loads(run_proc([HELPER, "fingerprint"], tag="fingerprint").stdout)
        version = run_proc([SCODED, "version"], tag="version").stdout.strip()
        _FINGERPRINT.update({"nproc": os.cpu_count(), "cpu_model": cpu,
                             "simd_tier": build_info["simd_tier"],
                             "build_type": build_info["build_type"],
                             "scoded_version": version, "cores": CORES})
    return dict(_FINGERPRINT)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (os.path.isdir(os.path.join(ROOT, "src")) and
            os.path.isfile(os.path.join(ROOT, "tools", "scoded_cli.cc"))):
        log("e2ebench: run from a scoded checkout (src/ and tools/ not found next to e2ebench/)")
        return 2
    # SIGTERM unwinds through the finally blocks that stop the daemon.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        build(["scoded", "e2e_helper", "e2e_spawn"])
        result, fingerprint = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    except Exception:  # any failure: no result line, non-zero exit
        log("e2ebench: run failed\n" + traceback.format_exc())
        return 1
    finally:
        kill_live_groups()
    with open(os.path.join(WORK, "result-%s-%d-trace%d.json" % (args.workload, args.seed,
                                                                  args.trace)), "w") as f:
        json.dump({"result": result, "fingerprint": fingerprint, "samples": RAW_SAMPLES}, f,
                  indent=1)
    print("# fingerprint " + json.dumps(fingerprint, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
