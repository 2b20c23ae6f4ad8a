#!/usr/bin/env python3
"""The repro-lab benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-sweep --seed 1 --trace 0

Workloads (seeded, closed loop, one client; see README.md):

``cold-sweep``
    Paper presets computed in-process with ``jobs=1``, each from an
    empty result cache and trace store.
``warm-cli``
    ``python -m repro.lab run|report`` child processes against a result
    cache primed during set-up.
``serve-mixed``
    A ``repro-lab serve --jobs 1`` daemon driven over HTTP with a fixed
    mix of warm preset sweeps, cold ad-hoc grids posted twice, and
    ``/metrics`` scrapes at fixed request counts.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the first half of the time untraced and the second
half with the layer ledger (``ledger.py``) and prints the per-layer
metrics.  Every op's output goes through the oracle (``oracle.py``).
The last line of standard output is the JSON result.  ``--self-test``
shows the oracle catching perturbed records instead.
"""

from __future__ import annotations

import argparse
import contextlib
import http.client
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
CHECKOUT = Path.cwd()
SRC = CHECKOUT / "src"

#: one pass of cold-sweep: the quick figure/table presets, full-size
#: sec6 (simulation-heavy), and the golden-pinned full tables.
COLD_OPS: Tuple[Tuple[str, bool], ...] = (
    ("fig2", True), ("fig5", True), ("nvm-matmul", True),
    ("prop62", True), ("krylov", True), ("distributed", True),
    ("table1", True), ("table2", True), ("cost-map", True),
    ("sec6", False), ("table1", False), ("table2", False),
    ("sec7-nvm", False), ("lu-tradeoff", False),
)

#: the discarded warm-up: one op of every cold-sweep kind (full sec6 as
#: quick sec6, the same code), so lazy imports and first-call set-up
#: inside kernels land in set-up, not in the first timed pass.
WARMUP_OPS = tuple((p, quick or p == "sec6") for p, quick in COLD_OPS)

#: the presets every warm op reads (quick unless noted).
WARM_PRESETS = ("fig2", "fig5", "sec6", "nvm-matmul", "prop62", "krylov",
                "distributed", "table1", "table2", "cost-map")
GOLDEN_FULL = ("table1", "table2", "sec7-nvm", "lu-tradeoff")

#: one pass of warm-cli: ``run --quick`` per warm preset plus ``report``
#: of the golden-pinned full tables.
CLI_OPS: Tuple[Tuple[str, str, bool], ...] = tuple(
    [("run", p, True) for p in WARM_PRESETS]
    + [("report", p, False) for p in GOLDEN_FULL])

#: serve-mixed request stream, per daemon lifetime: per-request cost
#: grows with uptime, so the counts are part of the workload.
SERVE_WARM_PER_PRESET = 100
SERVE_SCRAPE_EVERY = 200
SERVE_WARM_BETWEEN_COLD = 15

#: cold matmul-cache grids: (n, middle).  The seed draws the energy
#: axis values, which change every cache key but not the work.
COLD_MATMUL = ((40, 32), (56, 32), (40, 64), (56, 64))
COLD_COST = ("cost-2d-mm", "cost-25d-mm-l2", "cost-25d-mm-l3")

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 90.0
#: BLAS/OpenMP thread settings: left as the user has them, and recorded.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


# --------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------- #
def log(msg: str) -> None:
    print(msg, flush=True)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def pct(values: Sequence[float], q: int) -> float:
    """The q-th percentile (inclusive method) of *values*."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def child_env(tmp: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["REPRO_LAB_CACHE"] = str(tmp / "default-cache")
    env["PYTHONUNBUFFERED"] = "1"
    # Every child names its --cache-dir, which then scopes the trace
    # store too; an inherited $REPRO_LAB_TRACES would share one store
    # across set-ups and passes.
    env.pop("REPRO_LAB_TRACES", None)
    env.pop("REPRO_LAB_FAULTS", None)
    return env


class Child:
    """One child process whose wall time, CPU and peak RSS are taken
    from ``wait4`` (a watchdog kills it after ``CHILD_TIMEOUT_S``)."""

    def __init__(self, argv: List[str], env: Dict[str, str], out: Path):
        self.out, self.err = out.with_suffix(".out"), out.with_suffix(".err")
        with open(self.out, "wb") as fo, open(self.err, "wb") as fe:
            self.t0 = time.perf_counter()
            self.proc = subprocess.Popen(argv, stdout=fo, stderr=fe,
                                         env=env, cwd=CHECKOUT)

    def wait(self) -> "Child":
        timer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        self.wall = time.perf_counter() - self.t0
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.cpu = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0
        self.stdout = self.out.read_text(errors="replace")
        self.stderr = self.err.read_text(errors="replace")
        return self

    @property
    def ok(self) -> bool:
        return self.proc.returncode == 0


def run_child(argv: List[str], env: Dict[str, str], out: Path) -> Child:
    return Child(argv, env, out).wait()


def probe_argv(*args: str, importtime: bool = False) -> List[str]:
    return ([sys.executable] + (["-X", "importtime"] if importtime else [])
            + [str(HERE / "probe.py"), *args])


def import_breakdown(stderr: str) -> Dict[str, float]:
    """Seconds each of numpy/scipy/networkx cost, from ``-X
    importtime`` lines (outermost import of each package)."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(cum)))
    totals: Dict[str, float] = defaultdict(float)
    stack: List[Tuple[int, str]] = []
    for depth, name, cum in reversed(entries):  # parents first
        while stack and stack[-1][0] >= depth:
            stack.pop()
        pkg = name.split(".")[0]
        parent = stack[-1][1].split(".")[0] if stack else None
        if pkg in ("numpy", "scipy", "networkx") and parent != pkg:
            totals[pkg] += cum / 1e6
        stack.append((depth, name))
    return totals


class Run:
    """Per-run state: settings, op verdicts, the scratch root."""

    def __init__(self, args: argparse.Namespace, tmp: Path) -> None:
        from oracle import Oracle

        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.tmp = tmp
        self.env = child_env(tmp)
        self.oracle = Oracle(CHECKOUT)
        self.attempted = 0
        self.failed = 0
        self._dirs = 0

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        path = self.tmp / f"{label}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def verdict(self, what: str, problems: Sequence[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            log(f"FAILED {what}: {'; '.join(problems[:3])}")
        return not problems

    def fail_later(self, what: str, problems: Sequence[str]) -> None:
        """An op already counted as attempted fails a post-window
        check."""
        if problems:
            self.failed += 1
            log(f"FAILED {what}: {'; '.join(problems[:3])}")

    def halves(self) -> Tuple[float, float]:
        """(untraced, traced) seconds of the measuring window."""
        if not self.trace:
            return self.seconds, 0.0
        return self.seconds / 2, self.seconds / 2


def passes_until(deadline: float, run_pass: Callable[[int], None],
                 first: int = 0) -> int:
    """Run whole passes until *deadline* (at least one); a pass is
    skipped when less than half its predecessor's time remains."""
    n, last = 0, 0.0
    while n == 0 or time.perf_counter() + last / 2 < deadline:
        t0 = time.perf_counter()
        run_pass(first + n)
        last = time.perf_counter() - t0
        n += 1
    return n


def setup_child(run: Run, label: str, args: Sequence[str]) -> Tuple[float,
                                                                    Path]:
    root = run.fresh_dir(label)
    child = run_child(probe_argv(*args[:1], str(root), *args[1:]), run.env,
                      root / "setup")
    if not child.ok:
        raise SystemExit(f"set-up failed: {child.stderr[-2000:]}")
    return child.wall, root


# --------------------------------------------------------------------- #
# layer metrics shared by the traced runs
# --------------------------------------------------------------------- #
KNOWN_PHASES = ("distance_pass", "radix_partition", "capacity_fold",
                "supersymbol_fold", "opt_replay", "next_use")

#: the ledger's self-time rows; with ``unattributed_s`` they sum to op
#: time (``cli.import_s`` joins them where the import is part of an op).
#: The ledger's wait rows (an SSE stream idling on a job) are not op
#: time and not among them.
TIME_ROWS = ("scenarios.points_s", "scenarios.render_s", "cache.get_s",
             "cache.put_s", "executor.self_s", "tracestore.get_or_build_s",
             "traces.build_s", "cachesim.replay_s", "modelkernels.s",
             "results.export_s", "serve.submit_s", "telemetry.from_events_s",
             "fastsim.other_s") + tuple(f"fastsim.{p}_s"
                                        for p in KNOWN_PHASES)


def layer_metrics(rows: Dict[str, float], counts: Dict[str, float],
                  passes: int, op_s: float) -> Dict[str, float]:
    """Per-pass layer rows + ratios from ledger totals over *passes*;
    ``unattributed_s`` is whatever of *op_s* no time row covers."""
    from ledger import WAIT_ROWS

    per = 1.0 / max(passes, 1)
    m: Dict[str, float] = {}
    named = dict(rows)
    named.pop("unattributed_s", None)
    other = 0.0
    for key in list(named):
        if key.startswith("fastsim.") and \
                key[len("fastsim."):-2] not in KNOWN_PHASES:
            other += named.pop(key)
    named["fastsim.other_s"] = other
    for key in TIME_ROWS + tuple(WAIT_ROWS):
        m[key] = named.get(key, 0.0) * per
    for key in ("cache.get_calls", "cache.put_calls",
                "executor.execute_calls", "executor.points_computed",
                "traces.build_calls", "traces.events", "cachesim.accesses",
                "modelkernels.points", "serve.cache_hit", "serve.dedup"):
        m[key] = counts.get(key, 0.0) * per
    m["cache.hit_ratio"] = ratio(counts.get("cache.get_hits", 0.0),
                                 counts.get("cache.get_calls", 0.0))
    m["executor.batch_coverage"] = ratio(
        counts.get("executor.batched_points", 0.0),
        counts.get("executor.points_computed", 0.0))
    hits = counts.get("tracestore.hit", 0.0)
    m["tracestore.reuse_ratio"] = ratio(
        hits, hits + counts.get("tracestore.miss", 0.0))
    m["traces.events_per_s"] = ratio(counts.get("traces.events", 0.0),
                                     named.get("traces.build_s", 0.0))
    m["cachesim.accesses_per_s"] = ratio(
        counts.get("cachesim.accesses", 0.0),
        named.get("cachesim.replay_s", 0.0))
    m["fastsim.events_per_symbol"] = ratio(counts.get("trace.events", 0.0),
                                           counts.get("trace.symbols", 0.0))
    m["ledger.op_s"] = op_s * per
    m["unattributed_s"] = m["ledger.op_s"] - sum(m[k] for k in TIME_ROWS)
    return m


def print_ledger(m: Dict[str, float], with_import: bool = False) -> None:
    """The ledger table; *with_import* when the import chain is part of
    op time (a CLI child, not a daemon's requests)."""
    names = TIME_ROWS + ("unattributed_s",) + (
        ("cli.import_s",) if with_import else ())
    rows = sorted((k, m[k]) for k in names)
    total = sum(v for _, v in rows)
    log(f"ledger (seconds per pass): op {m['ledger.op_s']:.4f} = layers "
        f"{total - m['unattributed_s']:.4f} + unattributed "
        f"{m['unattributed_s']:.4f}")
    for k, v in rows:
        if v:
            log(f"  {k:<30} {v:10.4f}")


# --------------------------------------------------------------------- #
# cold-sweep
# --------------------------------------------------------------------- #
def cold_sweep(run: Run) -> Dict[str, float]:
    import repro.lab as lab
    from repro.lab.tracestore import TraceStore, set_active_store

    setups = [setup_child(run, "setup", ["warmup"])[0]
              for _ in range(SETUP_REPEATS)]

    led = None

    def op(preset: str, quick: bool) -> Tuple[float, float, List[str]]:
        root = run.fresh_dir("op")
        cache = lab.ResultCache(root / "cache")
        set_active_store(TraceStore(root / "cache" / "traces"))
        # Module lookups at call time, so the ledger's wrappers apply;
        # a traced op records into a RunTrace for the ledger to read.
        c0, w0 = time.process_time(), time.perf_counter()
        with led.span(None) if led else contextlib.nullcontext():
            scenario = lab.get_scenario(preset, quick=quick)
            points = scenario.points()
            report = lab.execute(points, jobs=1, cache=cache,
                                 trace=lab.RunTrace() if led else None)
            text = scenario.render(report.results)
        cpu, wall = time.process_time() - c0, time.perf_counter() - w0
        problems = run.oracle.check_sweep(preset, quick, points,
                                          report.records(), text)
        shutil.rmtree(root)
        return cpu, wall, problems

    for preset, quick in WARMUP_OPS:  # discarded
        op(preset, quick)

    pass_cpu: List[float] = []
    pass_wall: List[float] = []

    def one_pass(index: int) -> None:
        ops = list(COLD_OPS)
        random.Random(f"{run.seed}:{index}").shuffle(ops)
        cpu_total = wall_total = 0.0
        for preset, quick in ops:
            cpu, wall, problems = op(preset, quick)
            run.verdict(f"{preset}{' --quick' if quick else ''}", problems)
            cpu_total += cpu
            wall_total += wall
        pass_cpu.append(cpu_total)
        pass_wall.append(wall_total)

    plain_s, traced_s = run.halves()
    n = passes_until(time.perf_counter() + plain_s, one_pass)
    result = {"setup_s": median(setups),
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "sweep_cpu_s": median(pass_cpu),
              "sweep_wall_s": median(pass_wall)}
    log(f"cold-sweep: {n} untraced pass(es) of {len(COLD_OPS)} presets; "
        f"CPU per pass {[round(c, 3) for c in pass_cpu]}")
    if not run.trace:
        return result

    import ledger as ledger_mod

    led = ledger_mod.Ledger()
    ledger_mod.install(led)
    plain_cpu = median(pass_cpu)
    pass_cpu.clear()
    traced = passes_until(time.perf_counter() + traced_s, one_pass, n)
    snap = led.snapshot()
    m = layer_metrics(snap["rows"], snap["counts"], traced, snap["op_s"])
    m["trace_overhead_ratio"] = ratio(median(pass_cpu), plain_cpu)
    log(f"cold-sweep: {traced} traced pass(es)")
    print_ledger(m)
    return m


# --------------------------------------------------------------------- #
# warm-cli
# --------------------------------------------------------------------- #
def cli_argv(cmd: str, preset: str, quick: bool, cache: Path) -> List[str]:
    return [cmd, preset] + (["--quick"] if quick else []) + [
        "--cache-dir", str(cache)]


def prime_specs() -> List[str]:
    return list(WARM_PRESETS) + [f"{p}:full" for p in GOLDEN_FULL]


def warm_cli(run: Run) -> Dict[str, float]:
    setups, cache = [], None
    for _ in range(SETUP_REPEATS):
        wall, cache = setup_child(run, "prime", ["prime", *prime_specs()])
        warm = run_child([sys.executable, "-m", "repro.lab",
                          *cli_argv("run", "fig2", True, cache)],
                         run.env, cache / "warmup")  # discarded op
        setups.append(wall + warm.wall)
    assert cache is not None
    out = run.fresh_dir("out")

    walls: List[float] = []
    pass_cpu: List[float] = []
    pass_wall: List[float] = []
    rss: List[float] = []
    traced_state: Dict[str, Any] = {}

    def one_pass(index: int) -> None:
        ops = list(CLI_OPS)
        random.Random(f"{run.seed}:{index}").shuffle(ops)
        cpu_total = wall_total = 0.0
        for cmd, preset, quick in ops:
            args = cli_argv(cmd, preset, quick, cache)
            name = " ".join(args[:3 if quick else 2])
            if traced_state:
                ledger_out = out / f"ledger-{index}-{preset}.json"
                argv = probe_argv("ledger", str(ledger_out), "--", *args,
                                  importtime=True)
            else:
                argv = [sys.executable, "-m", "repro.lab", *args]
            child = run_child(argv, run.env, out / f"op-{index}")
            problems = ([] if child.ok else
                        [f"exit {child.proc.returncode}: "
                         f"{child.stderr[-300:]}"])
            problems += run.oracle.check_cli(preset, quick, child.stdout)
            if run.verdict(name, problems):
                walls.append(child.wall)
            cpu_total += child.cpu
            wall_total += child.wall
            rss.append(child.rss_mb)
            if traced_state and child.ok:
                traced_state["walls"] += child.wall
                doc = json.loads(ledger_out.read_text())
                for k, v in doc["rows"].items():
                    traced_state["rows"][k] += v
                for k, v in doc["counts"].items():
                    traced_state["counts"][k] += v
                traced_state["import_s"] += doc["import_s"]
                for k, v in import_breakdown(child.stderr).items():
                    traced_state[f"import.{k}"] += v
        pass_cpu.append(cpu_total)
        pass_wall.append(wall_total)

    plain_s, traced_s = run.halves()
    n = passes_until(time.perf_counter() + plain_s, one_pass)
    result = {"setup_s": median(setups), "peak_rss_mb": max(rss),
              "sweep_cpu_s": median(pass_cpu),
              "sweep_wall_s": median(pass_wall)}
    extras = {"cli.ms_p50": pct(walls, 50) * 1e3,
              "cli.ms_p90": pct(walls, 90) * 1e3}
    log(f"warm-cli: {n} untraced pass(es) of {len(CLI_OPS)} invocations; "
        f"child CPU per pass {[round(c, 3) for c in pass_cpu]}")
    for k, v in extras.items():
        log(f"  {k:<28} {v:.4f}")
    if not run.trace:
        return result

    plain_cpu = median(pass_cpu)
    pass_cpu.clear()
    traced_state.update(walls=0.0, import_s=0.0, rows=defaultdict(float),
                        counts=defaultdict(float))
    for pkg in ("numpy", "scipy", "networkx"):
        traced_state[f"import.{pkg}"] = 0.0
    traced = passes_until(time.perf_counter() + traced_s, one_pass, n)
    rows = dict(traced_state["rows"])
    rows.pop("unattributed_s", None)
    # op time = child wall, spawn to exit; the import is its own row.
    m = layer_metrics(rows, traced_state["counts"], traced,
                      traced_state["walls"] - traced_state["import_s"])
    m["ledger.op_s"] = traced_state["walls"] / traced
    m["cli.import_s"] = traced_state["import_s"] / traced
    for pkg in ("numpy", "scipy", "networkx"):
        m[f"cli.import.{pkg}_s"] = traced_state[f"import.{pkg}"] / traced
    m.update(extras)
    m["trace_overhead_ratio"] = ratio(median(pass_cpu), plain_cpu)
    log(f"warm-cli: {traced} traced pass(es) under the probe "
        f"(-X importtime)")
    print_ledger(m, with_import=True)
    return m


# --------------------------------------------------------------------- #
# serve-mixed
# --------------------------------------------------------------------- #
def proc_stat(pid: int) -> Tuple[float, float, float]:
    """(CPU seconds, VmRSS MB, VmHWM MB) of a live process."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    cpu = (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    status = dict(line.split(":", 1) for line in
                  Path(f"/proc/{pid}/status").read_text().splitlines()
                  if ":" in line)
    kb = lambda key: float(status[key].split()[0]) / 1024.0  # noqa: E731
    return cpu, kb("VmRSS"), kb("VmHWM")


def cold_bundles(seed: int) -> List[List[Dict[str, Any]]]:
    """The seeded cold ad-hoc grids, in bundles posted back to back: a
    matmul-cache grid, then (but for the last) a cost grid that queues
    behind it, so the second POST of the cost grid finds it in flight
    (see ``resubmit_problems``).  The seed draws the energy and hardware
    values (new cache keys, the same work) and the bundle order."""
    rng = random.Random(f"{seed}:grids")
    matmul: List[Dict[str, Any]] = []
    cost: List[Dict[str, Any]] = []
    for n, middle in COLD_MATMUL:
        matmul.append({"kernel": "matmul-cache", "machine": "sim-l3",
                      "set": {"n": n, "middle": middle, "b3": 8, "b2": 4,
                              "base": 4},
                      "grid": {"scheme": ["co", "wa2"],
                               "machine.write_slow": [
                                   round(rng.uniform(2, 40), 3)
                                   for _ in range(2)]}})
    for kernel in COLD_COST:
        cost.append({"kernel": kernel, "machine": "hw-2015",
                      "hw": {"beta_23": round(rng.uniform(5, 50), 3)},
                      "set": {"n": 1 << 14},
                      "grid": {"P": [64, 256, 1024, 4096],
                               "c3": [1, 2, 4]} if kernel.endswith("l3")
                      else {"P": [64, 256, 1024, 4096]}})
    bundles = [[m] + cost[i:i + 1] for i, m in enumerate(matmul)]
    rng.shuffle(bundles)
    return bundles


def request_plan(seed: int) -> List[Tuple[str, Any]]:
    """The fixed request stream of one daemon lifetime."""
    rng = random.Random(f"{seed}:stream")
    warm: List[str] = []
    for _ in range(SERVE_WARM_PER_PRESET):
        # Each preset once per block: every stretch of the stream (the
        # one a cold job overlaps, the one before a scrape) has the same
        # mix whatever the seed.
        block = list(WARM_PRESETS)
        rng.shuffle(block)
        warm += block
    bundles = cold_bundles(seed)
    every = len(warm) // (len(bundles) + 1)
    plan: List[Tuple[str, Any]] = []
    for i, preset in enumerate(warm):
        if i and i % every == 0 and i // every <= len(bundles):
            plan.append(("cold", bundles[i // every - 1]))
        plan.append(("warm", preset))
    return plan


class Client:
    """One closed-loop HTTP client (the daemon speaks HTTP/1.0, so each
    request reconnects)."""

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=60)
        self.requests = 0

    def call(self, method: str, path: str,
             body: Optional[Dict[str, Any]] = None) -> Tuple[int, bytes]:
        self.requests += 1
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        self.conn.request(method, path, body=data, headers=headers)
        resp = self.conn.getresponse()
        payload = resp.read()
        self.conn.close()
        return resp.status, payload


def sse_summary(raw: bytes) -> Optional[Dict[str, Any]]:
    for block in raw.decode().split("\n\n"):
        if block.startswith("event: summary"):
            return json.loads(block.split("data: ", 1)[1])
    return None


def resubmit_problems(client: Client, s1: int, d1: Dict[str, Any], s2: int,
                      d2: Dict[str, Any]) -> List[str]:
    """Two back-to-back POSTs of one cold grid: the first queues a job;
    the second joins it (``dedup``) or, once that job is done, is
    answered from the cache (``cached``).  It never runs the grid
    again."""
    if s1 != 202 or d1.get("source") != "queued":
        return [f"first submit {s1}: {d1}"]
    if s2 == 200 and d2.get("source") == "dedup" and \
            d2.get("job") == d1["job"]:
        return []
    if s2 == 200 and d2.get("source") == "cached" and \
            d2.get("status") == "done" and d2.get("points") == d1["points"]:
        status, raw = client.call("GET", f"/jobs/{d1['job']}")
        first = json.loads(raw) if status == 200 else {}
        if first.get("status") == "done":
            return []
        return [f"second submit cached while the first job is {first}"]
    return [f"second submit {s2}: {d2}"]


def strip_cached(rows: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [{k: v for k, v in row.items() if k != "cached"} for row in rows]


def serve_mixed(run: Run) -> Dict[str, float]:
    from repro.lab import ResultCache, ResultSet, execute, get_scenario
    from repro.lab.serve import points_from_request

    plan = request_plan(run.seed)
    n_points = {p: len(get_scenario(p, quick=True).points())
                for p in WARM_PRESETS}
    setups: List[float] = []
    pass_cpu: List[float] = []
    pass_wall: List[float] = []
    warm_ms: List[float] = []
    cold_ms: List[float] = []
    scrape_ms: List[float] = []
    hwm: List[float] = []
    per_req: List[float] = []
    scrape_log: List[Dict[str, Any]] = []
    rss_slopes: List[float] = []
    warm_rows: List[Tuple[str, list]] = []
    cold_rows: List[Tuple[Dict[str, Any], list]] = []
    ledger_docs: List[Dict[str, Any]] = []

    def one_pass(index: int, traced: bool = False) -> None:
        t0 = time.perf_counter()
        root = setup_child(run, "prime", ["prime", *WARM_PRESETS])[1]
        args = ["serve", "--jobs", "1", "--port", "0", "--cache-dir",
                str(root)]
        ledger_out = root / "ledger.json"
        argv = (probe_argv("ledger", str(ledger_out), "--", *args,
                           importtime=True) if traced
                else [sys.executable, "-m", "repro.lab", *args])
        err = open(root / "daemon.err", "wb")
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=run.env, cwd=CHECKOUT)
        boot = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        boot.start()
        try:
            line = proc.stdout.readline().decode()
            boot.cancel()
            if "serving on http://" not in line:
                raise SystemExit(f"daemon did not start: {line!r}")
            host, port = line.split("http://", 1)[1].split()[0].split(":")
            client = Client(host, int(port))
            client.call("GET", "/healthz")
            client.call("POST", "/sweep", {"scenario": "fig2",
                                           "quick": True})  # warm-up
            setups.append(time.perf_counter() - t0)
            cpu0, wall0 = proc_stat(proc.pid)[0], time.perf_counter()
            client.requests = 0
            first_job: Dict[str, str] = {}
            pending: List[Tuple[Dict[str, Any], str, int]] = []
            scrapes: List[Tuple[int, float]] = []
            next_scrape = SERVE_SCRAPE_EVERY

            def maybe_scrape() -> None:
                nonlocal next_scrape
                if client.requests < next_scrape:
                    return
                next_scrape += SERVE_SCRAPE_EVERY
                at = client.requests
                s0 = time.perf_counter()
                status, raw = client.call("GET", "/metrics")
                ms = (time.perf_counter() - s0) * 1e3
                doc = json.loads(raw)
                rss = proc_stat(proc.pid)[1]
                scrape_ms.append(ms)
                scrapes.append((at, rss))
                scrape_log.append({"pass": index, "at": at, "ms": ms,
                                   "rss_mb": rss,
                                   "jobs": sum(doc["jobs"].values())})
                run.verdict("GET /metrics",
                            [] if status == 200 else [f"HTTP {status}"])

            def await_cold(body: Dict[str, Any], job_id: str) -> None:
                status, raw = client.call("GET", f"/jobs/{job_id}?sse=1")
                summary = sse_summary(raw)
                r_status, r_raw = client.call("GET", f"/results/{job_id}")
                problems = []
                if summary is None or summary["tags"].get("status") != \
                        "done":
                    problems.append(f"job not done: {summary}")
                if r_status != 200:
                    problems.append(f"/results HTTP {r_status}")
                if run.verdict(f"cold {body['kernel']}", problems):
                    cold_ms.append(summary["t"] * 1e3)
                    cold_rows.append((body, json.loads(r_raw)))

            for kind, item in plan:
                if kind == "warm":
                    w0 = time.perf_counter()
                    status, raw = client.call(
                        "POST", "/sweep", {"scenario": item, "quick": True})
                    rtt = time.perf_counter() - w0
                    doc = json.loads(raw)
                    problems = []
                    if status != 200 or doc.get("source") != "cached" or \
                            doc.get("status") != "done" or \
                            doc.get("points") != n_points[item]:
                        problems.append(f"HTTP {status}: {doc}")
                    if run.verdict(f"warm {item}", problems):
                        warm_ms.append(rtt * 1e3)
                        first_job.setdefault(item, doc["job"])
                    if pending and client.requests >= pending[0][2]:
                        await_cold(*pending.pop(0)[:2])
                else:
                    for grid in item:
                        s1, raw1 = client.call("POST", "/sweep", grid)
                        s2, raw2 = client.call("POST", "/sweep", grid)
                        d1 = json.loads(raw1)
                        problems = resubmit_problems(client, s1, d1, s2,
                                                     json.loads(raw2))
                        if problems:
                            run.verdict(f"cold {grid['kernel']}", problems)
                        else:
                            pending.append((grid, d1["job"],
                                            client.requests
                                            + SERVE_WARM_BETWEEN_COLD))
                maybe_scrape()
            for item in pending:
                await_cold(*item[:2])
                maybe_scrape()
            cpu1, _, peak = proc_stat(proc.pid)
            pass_wall.append(time.perf_counter() - wall0)
            served = client.requests
            pass_cpu.append(cpu1 - cpu0)
            per_req.append((cpu1 - cpu0) / served * 1e3)
            hwm.append(peak)
            if len(scrapes) > 1:
                (a0, r0), (a1, r1) = scrapes[0], scrapes[-1]
                rss_slopes.append((r1 - r0) / (a1 - a0) * 1e3)
            for preset, job in first_job.items():  # untimed: oracle input
                status, raw = client.call("GET", f"/results/{job}")
                warm_rows.append((preset, json.loads(raw)
                                  if status == 200 else []))
        finally:
            boot.cancel()
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            err.close()
        if traced:
            doc = json.loads(ledger_out.read_text())
            doc["stderr"] = (root / "daemon.err").read_text(errors="replace")
            ledger_docs.append(doc)
        shutil.rmtree(root, ignore_errors=True)

    def check_outputs() -> None:
        # Post-window oracle: warm records and seeded cold grids against
        # in-process execute (whose records the pinned digests check).
        scratch = run.fresh_dir("reference")
        cache = ResultCache(scratch)
        reference: Dict[str, list] = {}
        for preset in WARM_PRESETS:
            scenario = get_scenario(preset, quick=True)
            points = scenario.points()
            report = execute(points, jobs=1, cache=cache)
            problems = run.oracle.check_sweep(preset, True, points,
                                              report.records(),
                                              scenario.render(report.results))
            run.verdict(f"reference {preset}", problems)
            rows = ResultSet.from_report(report).rows
            reference[preset] = strip_cached(rows)
        for preset, rows in warm_rows:
            run.fail_later(f"warm {preset} /results",
                           [] if strip_cached(rows) == reference[preset]
                           else ["records differ from in-process execute"])
        from oracle import invariants

        for body, rows in cold_rows:
            _, points = points_from_request(body)
            local = ResultSet.from_report(execute(points, jobs=1)).rows
            problems = ([] if strip_cached(rows) == strip_cached(local)
                        else ["records differ from in-process execute"])
            run.fail_later(f"cold {body['kernel']} /results",
                           problems + invariants(points, rows))

    plain_s, traced_s = run.halves()
    n = passes_until(time.perf_counter() + plain_s, one_pass)
    result = {"setup_s": median(setups), "peak_rss_mb": median(hwm),
              "sweep_cpu_s": median(pass_cpu),
              "sweep_wall_s": median(pass_wall)}
    extras = {"serve.warm_ms_p50": pct(warm_ms, 50),
              "serve.warm_ms_p99": pct(warm_ms, 99),
              "serve.cold_job_ms_p50": median(cold_ms),
              "serve.scrape_ms_p50": median(scrape_ms),
              "serve.cpu_ms_per_req": median(per_req),
              "serve.rss_mb_per_1k_req": median(rss_slopes)}
    log(f"serve-mixed: {n} daemon lifetime(s) of {len(plan)} planned "
        f"requests; daemon CPU per pass {[round(c, 3) for c in pass_cpu]}")
    for k, v in extras.items():
        log(f"  {k:<28} {v:.4f}")
    log("  scrape points (pass, requests, ms, daemon RSS MB, jobs "
        "retained):")
    for s in scrape_log:
        log(f"    {s['pass']} {s['at']:>5} {s['ms']:8.2f} "
            f"{s['rss_mb']:8.1f} {s['jobs']:>6}")
    jobs_retained = scrape_log[-1]["jobs"] if scrape_log else 0

    if not run.trace:
        check_outputs()
        return result

    plain_cpu = median(pass_cpu)
    pass_cpu.clear()
    traced = passes_until(time.perf_counter() + traced_s,
                          lambda i: one_pass(i, traced=True), n)
    rows: Dict[str, float] = defaultdict(float)
    counts: Dict[str, float] = defaultdict(float)
    ops: Dict[str, float] = defaultdict(float)
    import_s = 0.0
    imports: Dict[str, float] = defaultdict(float)
    for doc in ledger_docs:
        for k, v in doc["rows"].items():
            rows[k] += v
        for k, v in doc["counts"].items():
            counts[k] += v
        for k, v in doc["ops"].items():
            ops[k] += v
        import_s += doc["import_s"]
        for k, v in import_breakdown(doc["stderr"]).items():
            imports[k] += v
    rows.pop("unattributed_s", None)
    m = layer_metrics(rows, counts, traced, sum(ops.values()))
    # Handler and runner threads overlap (a warm request can run while
    # a cold job holds the runner), so both totals are shown.
    for k in ("ledger.handler_op_s", "ledger.runner_op_s"):
        m[k] = ops[k] / traced
    m["cli.import_s"] = import_s / traced
    for pkg in ("numpy", "scipy", "networkx"):
        m[f"cli.import.{pkg}_s"] = imports[pkg] / traced
    last = ledger_docs[-1]["scrape_events"]
    m["telemetry.scrape_events"] = float(last[-1]) if last else 0.0
    m["serve.jobs_retained"] = float(jobs_retained)
    m.update(extras)
    m["trace_overhead_ratio"] = ratio(median(pass_cpu), plain_cpu)
    log(f"serve-mixed: {traced} traced daemon lifetime(s); "
        f"/metrics aggregated events at each scrape: "
        f"{ledger_docs[-1]['scrape_events']}")
    print_ledger(m)
    log(f"  op time by thread: handler {m['ledger.handler_op_s']:.4f} + "
        f"runner {m['ledger.runner_op_s']:.4f}; SSE waits, not op time: "
        f"{m['serve.sse_wait_s']:.4f}")
    check_outputs()
    return m


WORKLOADS: Dict[str, Callable[[Run], Dict[str, float]]] = {
    "cold-sweep": cold_sweep,
    "warm-cli": warm_cli,
    "serve-mixed": serve_mixed,
}


# --------------------------------------------------------------------- #
# self-test: the oracle must catch a perturbed record
# --------------------------------------------------------------------- #
def self_test(run: Run) -> int:
    """Run a few cold ops as they are, then again with one record
    perturbed each time; every perturbed op must fail the oracle (the
    invariants alone catch each of these) and so lower
    ``success_rate``, while the unperturbed ones pass."""
    from oracle import invariants
    from repro.lab import ResultCache, execute, get_scenario

    def corrupt_misses(recs):
        recs[0]["misses"] += 1

    def corrupt_correct(recs):
        recs[0]["correct"] = False

    def corrupt_opt(recs):
        for rec in recs:
            rec["misses"] += 10**6 if rec is recs[3] else 0

    cases = [("fig2", True, None), ("distributed", True, None),
             ("sec6", True, None), ("table1", False, None),
             ("fig2", True, corrupt_misses),
             ("distributed", True, corrupt_correct),
             ("sec6", True, corrupt_opt)]
    clean = caught = 0
    for preset, quick, corrupt in cases:
        scenario = get_scenario(preset, quick=quick)
        points = scenario.points()
        report = execute(points, jobs=1, cache=ResultCache(
            run.fresh_dir("selftest")))
        records = [dict(r) for r in report.records()]
        if corrupt is not None:
            corrupt(records)
        problems = run.oracle.check_sweep(preset, quick, points, records,
                                          scenario.render(report.results))
        label = corrupt.__name__ if corrupt else "unperturbed"
        passed = run.verdict(f"{preset} ({label})", problems)
        log(f"self-test {preset:<12} {label:<16} oracle problems "
            f"{len(problems)}, invariant violations "
            f"{len(invariants(points, records))}")
        if corrupt is None:
            clean += passed
        else:
            caught += not passed and bool(invariants(points, records))
    perturbed = sum(1 for case in cases if case[2] is not None)
    log(f"self-test: success_rate {1 - run.failed / run.attempted:.3f} "
        f"over {run.attempted} ops; {caught} of {perturbed} perturbed ops "
        f"caught")
    return 0 if clean == len(cases) - perturbed and caught == perturbed \
        else 1


# --------------------------------------------------------------------- #
def settings() -> Dict[str, Any]:
    return {"python": sys.version.split()[0],
            "executable": sys.executable,
            "PYTHONDONTWRITEBYTECODE":
                os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "cpus": os.cpu_count(),
            **{var: os.environ.get(var) for var in THREAD_VARS}}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show the oracle catching perturbed records")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "repro" / "lab").is_dir():
        print(f"perfbench: no repro sources under {SRC}; run from the "
              f"root of a repro checkout", file=sys.stderr)
        return 2
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    sys.path.insert(0, str(SRC))
    tmp = CHECKOUT / ".perfbench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    # SIGTERM unwinds like an error: daemons are stopped, tmp removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.environ.update(child_env(tmp))
    for var in ("REPRO_LAB_TRACES", "REPRO_LAB_FAULTS"):
        os.environ.pop(var, None)
    try:
        run = Run(args, tmp)
        log(f"settings: {json.dumps(settings())}")
        if args.self_test:
            return self_test(run)
        t0 = time.perf_counter()
        measured = WORKLOADS[args.workload](run)
        log(f"{args.workload}: {run.attempted} ops, {run.failed} failed, "
            f"{time.perf_counter() - t0:.1f}s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    measured["success_rate"] = 1.0 - ratio(run.failed, run.attempted)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if args.trace:  # a layer this workload never enters reads 0
        for m in wanted:
            measured.setdefault(m["name"], 0.0)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"perfbench: metrics not measured: {missing}",
              file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": run.failed == 0,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
