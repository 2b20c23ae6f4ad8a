"""Per-layer time ledger for the traced benchmark runs.

The ledger times calls into each module's public functions from the
benchmark's side: it wraps those functions (module attributes, class
methods and the registry tables that hold them) and keeps one span
stack per thread.  A layer's *self* time is its span's duration minus
the spans and fastsim phases nested inside it, so the rows plus the
residue the harness reports as ``unattributed_s`` add up to op time.
Op time is the time of the op roots (one timed op of the workload; in
a daemon, a request on its handler thread or a job on the runner
thread) less the spans in which an op only waits for another thread:
an SSE stream idles while the runner computes the job it relays, and
counting both would count the job twice.

It also listens to the :class:`~repro.lab.telemetry.RunTrace` events
the program already emits: fastsim ``phase`` samples become the
``fastsim.*_s`` rows, and ``tracestore.*``/``trace.*`` counters feed
the reuse and compression ratios.  Every clock here is
``time.perf_counter`` (wall time on the calling thread), the same clock
the fastsim phases are measured with.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: a phase nested in another may be stamped this much before its parent
#: (listener latency); containment tests allow for it.
_PHASE_SLACK_S = 50e-6

#: the program's own ``trace_build`` phase wraps the builders the
#: ``traces`` row already times; crediting it again would count twice.
_SKIP_PHASES = frozenset({"trace_build"})

#: op roots besides ``None`` (one op of the workload): the daemon's
#: request handler and job runner threads, kept apart so their overlap
#: shows.
OP_ROWS = frozenset({"ledger.handler_op_s", "ledger.runner_op_s"})

#: spans in which an op waits for another thread: a row of their own,
#: left out of op time.
WAIT_ROWS = frozenset({"serve.sse_wait_s"})

Hook = Callable[["Ledger", Tuple[Any, ...], Dict[str, Any], Any, bool],
                None]


class _Frame:
    __slots__ = ("row", "child", "waited", "phases")

    def __init__(self, row: Optional[str]) -> None:
        self.row = row
        self.child = 0.0
        self.waited = 0.0
        self.phases: List[Tuple[float, float, float]] = []


class Ledger:
    """Self-time rows and counters, filled by wrapped calls."""

    def __init__(self) -> None:
        self.rows: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.ops: Dict[str, float] = defaultdict(float)
        self.scrape_events: List[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def _close(self, frame: _Frame, dur: float, stack: List[_Frame]) -> None:
        with self._lock:
            if frame.row is None or frame.row in OP_ROWS:
                self.ops[frame.row or "ledger.op_s"] += dur - frame.waited
                self.rows["unattributed_s"] += dur - frame.child
            else:
                self.rows[frame.row] += dur - frame.child
        if stack:
            parent = stack[-1]
            parent.child += dur
            parent.waited += frame.waited + (
                dur if frame.row in WAIT_ROWS else 0.0)

    @contextmanager
    def span(self, row: Optional[str]) -> Iterator[None]:
        """A span of *row*; ``None`` or a row of ``OP_ROWS`` marks an op
        root, whose self time is unattributed."""
        stack = self._stack()
        frame = _Frame(row)
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            stack.pop()
            self._close(frame, dur, stack)

    def call(self, row: Optional[str], fn: Callable[..., Any],
             args: Tuple[Any, ...], kwargs: Dict[str, Any],
             hook: Optional[Hook] = None) -> Any:
        """Run ``fn(*args, **kwargs)`` as a span of *row*, then let
        *hook* count from its arguments and result."""
        nested = any(f.row == row for f in self._stack())
        with self.span(row):
            result = fn(*args, **kwargs)
        if hook is not None:
            hook(self, args, kwargs, result, nested)
        return result

    def on_event(self, event: Dict[str, Any]) -> None:
        """RunTrace listener: phases become fastsim rows, counters are
        summed."""
        kind = event.get("type")
        if kind == "counter":
            self.count(str(event["name"]), float(event.get("value", 1)))
            return
        if kind != "phase" or event["name"] in _SKIP_PHASES:
            return
        dur = float(event["dur"])
        end = time.perf_counter()
        start = end - dur
        stack = self._stack()
        own = dur
        if stack:
            frame = stack[-1]
            inner = [p for p in frame.phases
                     if p[0] >= start - _PHASE_SLACK_S]
            own = dur - sum(p[2] for p in inner)
            frame.phases = [p for p in frame.phases
                            if p[0] < start - _PHASE_SLACK_S]
            frame.phases.append((start, end, dur))
            frame.child += own
        with self._lock:
            self.rows[f"fastsim.{event['name']}_s"] += own

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {"rows": dict(self.rows), "counts": dict(self.counts),
                    "op_s": sum(self.ops.values()),
                    "ops": dict(self.ops),
                    "scrape_events": list(self.scrape_events)}


# --------------------------------------------------------------------- #
# hooks: counts taken from a wrapped call's arguments or result
# --------------------------------------------------------------------- #
def _cache_get(led: Ledger, args, kwargs, result, nested) -> None:
    led.count("cache.get_calls")
    if result is not None:
        led.count("cache.get_hits")


def _cache_put(led: Ledger, args, kwargs, result, nested) -> None:
    led.count("cache.put_calls")


def _execute(led: Ledger, args, kwargs, result, nested) -> None:
    led.count("executor.execute_calls")
    led.count("executor.points_computed", result.misses)
    led.count("executor.batched_points", result.batched_points)


def _trace_built(led: Ledger, args, kwargs, result, nested) -> None:
    led.count("traces.build_calls")
    led.count("traces.events", len(result))


def _replay(led: Ledger, args, kwargs, result, nested) -> None:
    if nested:  # run_trace falling back to run_lines: counted once
        return
    arg = args[1]
    led.count("cachesim.accesses",
              arg.n_events if hasattr(arg, "n_events") else len(arg))


def _model_point(led: Ledger, args, kwargs, result, nested) -> None:
    led.count("modelkernels.points")


def _model_batch(led: Ledger, args, kwargs, result, nested) -> None:
    led.count("modelkernels.points", len(args[1]))


def _submit(led: Ledger, args, kwargs, result, nested) -> None:
    how = result[1]
    if how in ("cached", "dedup"):
        led.count(f"serve.{'cache_hit' if how == 'cached' else how}")


def _from_events(led: Ledger, args, kwargs, result, nested) -> None:
    if getattr(led._local, "scraping", False):
        with led._lock:
            led.scrape_events.append(len(args[1]))


#: (module, attribute path, ledger row, hook).
LAYERS: Tuple[Tuple[str, str, Optional[str], Optional[Hook]], ...] = (
    ("repro.lab.scenarios", "get_scenario", "scenarios.points_s", None),
    ("repro.lab.scenarios", "Scenario.points", "scenarios.points_s", None),
    ("repro.lab.scenarios", "Scenario.render", "scenarios.render_s", None),
    ("repro.lab.cache", "ResultCache.get", "cache.get_s", _cache_get),
    ("repro.lab.cache", "ResultCache.put", "cache.put_s", _cache_put),
    ("repro.lab.executor", "execute", "executor.self_s", _execute),
    ("repro.lab.tracestore", "TraceStore.get_or_build",
     "tracestore.get_or_build_s", None),
    ("repro.lab.tracestore", "TraceStore.get_or_build_trace",
     "tracestore.get_or_build_s", None),
    ("repro.core.traces", "matmul_trace", "traces.build_s", _trace_built),
    ("repro.core.traces", "trsm_trace", "traces.build_s", _trace_built),
    ("repro.core.traces", "cholesky_trace", "traces.build_s",
     _trace_built),
    ("repro.core.traces", "nbody_trace", "traces.build_s", _trace_built),
    ("repro.machine.cache", "CacheSim.run_lines", "cachesim.replay_s",
     _replay),
    ("repro.machine.cache", "CacheSim.run_trace", "cachesim.replay_s",
     _replay),
    ("repro.lab.modelkernels", "run_cost_batch", "modelkernels.s",
     _model_batch),
    ("repro.lab.results", "ResultSet.from_report", "results.export_s",
     None),
    ("repro.lab.results", "ResultSet.to_json", "results.export_s", None),
    ("repro.lab.results", "ResultSet.to_csv", "results.export_s", None),
    ("repro.lab.telemetry", "MetricsRegistry.from_events",
     "telemetry.from_events_s", _from_events),
)

#: the daemon's layers, installed only where a serve daemon runs.
SERVE_LAYERS: Tuple[Tuple[str, str, Optional[str], Optional[Hook]], ...] = (
    ("repro.lab.serve", "JobManager.submit", "serve.submit_s", _submit),
    ("repro.lab.serve", "_Handler.handle", "ledger.handler_op_s", None),
    ("repro.lab.serve", "JobManager._run_job", "ledger.runner_op_s", None),
    ("repro.lab.serve", "_Handler._stream_events", "serve.sse_wait_s",
     None),
)


def _replace_everywhere(orig: Any, new: Any) -> None:
    """Point every ``repro.*`` module attribute and registry-table entry
    that holds *orig* at *new* (``from x import f`` copies included)."""
    for name, mod in list(sys.modules.items()):
        if not name.startswith("repro") or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if entry is orig:
                        value[key] = new


def _wrapper(led: Ledger, row: Optional[str], fn: Callable[..., Any],
             hook: Optional[Hook]) -> Callable[..., Any]:
    def wrapped(*args: Any, **kwargs: Any) -> Any:
        return led.call(row, fn, args, kwargs, hook)
    wrapped.__wrapped__ = fn  # type: ignore[attr-defined]
    wrapped.__name__ = getattr(fn, "__name__", "wrapped")
    return wrapped


def install(led: Ledger, layers=LAYERS) -> None:
    """Wrap every layer entry point in *layers*, plus each module-level
    ``kernel_*`` function of :mod:`repro.lab.modelkernels`, and route
    the RunTraces that :func:`~repro.lab.executor.execute` records into
    the ledger's listener."""
    specs = list(layers)
    mk = importlib.import_module("repro.lab.modelkernels")
    specs += [("repro.lab.modelkernels", name, "modelkernels.s",
               _model_point)
              for name in sorted(vars(mk)) if name.startswith("kernel_")
              and callable(getattr(mk, name))]
    for mod_name, path, row, hook in specs:
        mod = importlib.import_module(mod_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name)
            raw = owner.__dict__.get(attr, getattr(owner, attr))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(
                    _wrapper(led, row, raw.__func__, hook)))
            else:
                setattr(owner, attr, _wrapper(led, row, raw, hook))
        else:
            orig = getattr(mod, attr)
            _replace_everywhere(orig, _wrapper(led, row, orig, hook))
    _listen_in_execute(led)
    if any(spec[0] == "repro.lab.serve" for spec in specs):
        _mark_scrapes(led)


def _listen_in_execute(led: Ledger) -> None:
    """Attach the ledger to the RunTrace each ``execute`` call records
    into (its ``trace=`` argument, else the active trace)."""
    executor = importlib.import_module("repro.lab.executor")
    telemetry = importlib.import_module("repro.lab.telemetry")
    wrapped = executor.execute

    def execute(*args: Any, **kwargs: Any) -> Any:
        trace = kwargs.get("trace") or telemetry.active_trace()
        if trace is None:
            return wrapped(*args, **kwargs)
        trace.add_listener(led.on_event)
        try:
            return wrapped(*args, **kwargs)
        finally:
            trace.remove_listener(led.on_event)
    _replace_everywhere(wrapped, execute)


def _mark_scrapes(led: Ledger) -> None:
    """Flag ``/metrics`` aggregation so its event counts are recorded
    (``telemetry.scrape_events``) apart from job-trace summaries."""
    serve = importlib.import_module("repro.lab.serve")
    orig = serve.ServeDaemon.metrics_payload

    def metrics_payload(self: Any) -> Any:
        led._local.scraping = True
        try:
            return orig(self)
        finally:
            led._local.scraping = False
    serve.ServeDaemon.metrics_payload = metrics_payload
