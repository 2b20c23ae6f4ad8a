"""Output oracle for the benchmark's ops.

Every op's output is checked two ways:

* against digests of its records and rendered report, pinned from the
  commit that introduced the benchmark (``digests.json``).  A report
  rendered from cache-served records is pinned on its own
  (``report_warm``) where it differs from the freshly computed one: at
  that commit ``cost-map``'s default report orders its columns by
  record key order, which the result cache sorts.  The full
  ``table1``/``table2``/``sec7-nvm``/``lu-tradeoff`` reports are also
  compared byte for byte with ``tests/golden/``.  The CLI's
  ``[repro.lab] ...`` accounting lines (timings, cache paths) are
  ignored;
* against the paper's invariants on every record: write-backs at least
  the write lower bound, hits + misses = accesses, fills = misses, OPT
  misses at most LRU misses on the same trace with both non-increasing
  in capacity, and executed distributed/Krylov runs correct/converged.

``python3 perfbench/oracle.py --pin`` recomputes ``digests.json``; do it
only when a change is meant to alter records or reports.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Tuple

DIGESTS = Path(__file__).with_name("digests.json")

#: full-size presets whose rendered report is pinned in tests/golden/.
GOLDEN = {"table1": "table1", "table2": "table2", "sec7-nvm": "sec7",
          "lu-tradeoff": "lu"}

_ACCOUNTING = "[repro.lab]"


def op_name(preset: str, quick: bool) -> str:
    return f"{preset}{' --quick' if quick else ''}"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical(records: Sequence[Mapping[str, Any]]) -> str:
    """Records as the result cache stores them: JSON, keys sorted."""
    return json.dumps(json.loads(json.dumps(list(records), default=float)),
                      sort_keys=True)


def strip_accounting(text: str) -> str:
    """A report without the CLI's accounting lines, newline-terminated."""
    lines = [ln for ln in text.splitlines()
             if not ln.startswith(_ACCOUNTING)]
    return "\n".join(lines).rstrip("\n") + "\n"


def invariants(points: Sequence[Any],
               records: Sequence[Mapping[str, Any]]) -> List[str]:
    """The paper's invariants over one sweep's ``(point, record)``
    pairs; returns one message per violation."""
    from repro.lab.registry import TRACE_KERNELS

    bad: List[str] = []
    stacks: Dict[Tuple[str, str], Dict[str, Dict[int, int]]] = \
        defaultdict(lambda: defaultdict(dict))
    for i, (pt, rec) in enumerate(zip(points, records)):
        where = f"point {i} ({pt.kernel})"
        if "writebacks" in rec and "write_lb" in rec \
                and rec["writebacks"] < rec["write_lb"]:
            bad.append(f"{where}: writebacks {rec['writebacks']} < "
                       f"write_lb {rec['write_lb']}")
        if {"hits", "misses", "accesses"} <= set(rec) \
                and rec["hits"] + rec["misses"] != rec["accesses"]:
            bad.append(f"{where}: hits + misses != accesses")
        if "fills" in rec and "misses" in rec \
                and rec["fills"] != rec["misses"]:
            bad.append(f"{where}: fills {rec['fills']} != misses "
                       f"{rec['misses']}")
        for flag in ("correct", "converged"):
            if flag in rec and rec[flag] is not True:
                bad.append(f"{where}: {flag} is {rec[flag]!r}")
        tk = TRACE_KERNELS.get(pt.kernel)
        m = pt.machine
        if (tk is not None and "misses" in rec
                and m.policy in ("lru", "belady")
                and m.levels is None and m.associativity is None):
            trace_id = json.dumps(tk.payload(m, pt.params), sort_keys=True,
                                  default=str)
            cap = int(tk.capacity_words(m, pt.params))
            stacks[(pt.kernel, trace_id)][m.policy][cap] = rec["misses"]
    for (kernel, _), by_policy in stacks.items():
        for policy, by_cap in by_policy.items():
            misses = [by_cap[c] for c in sorted(by_cap)]
            if any(b > a for a, b in zip(misses, misses[1:])):
                bad.append(f"{kernel}/{policy}: misses grow with capacity")
        lru, opt = by_policy.get("lru", {}), by_policy.get("belady", {})
        for cap in set(lru) & set(opt):
            if opt[cap] > lru[cap]:
                bad.append(f"{kernel}: OPT misses {opt[cap]} > LRU "
                           f"{lru[cap]} at {cap} words")
    return bad


class Oracle:
    """Checks op outputs against the pinned digests, the goldens and
    the invariants."""

    def __init__(self, checkout: Path) -> None:
        self.golden_dir = checkout / "tests" / "golden"
        self.digests = json.loads(DIGESTS.read_text())

    def _report_problems(self, preset: str, quick: bool, report: str,
                         warm: bool) -> List[str]:
        bad = []
        pin = self.digests.get(op_name(preset, quick))
        if pin is None:
            bad.append(f"{op_name(preset, quick)}: no pinned digest")
        elif _sha(report) != pin["report_warm" if warm and "report_warm"
                                 in pin else "report"]:
            bad.append(f"{op_name(preset, quick)}: report digest differs")
        if not quick and preset in GOLDEN:
            gold = (self.golden_dir / f"{GOLDEN[preset]}.txt").read_text()
            if report != gold:
                bad.append(f"{preset}: report differs from "
                           f"tests/golden/{GOLDEN[preset]}.txt")
        return bad

    def check_sweep(self, preset: str, quick: bool, points: Sequence[Any],
                    records: Sequence[Mapping[str, Any]],
                    rendered: str, warm: bool = False) -> List[str]:
        """An in-process op: records, rendered report and invariants."""
        bad = self._report_problems(preset, quick, rendered + "\n", warm)
        pin = self.digests.get(op_name(preset, quick))
        if pin is not None and _sha(canonical(records)) != pin["records"]:
            bad.append(f"{op_name(preset, quick)}: records digest differs")
        return bad + invariants(points, records)

    def check_cli(self, preset: str, quick: bool, stdout: str) -> List[str]:
        """A warm CLI op: its printed report, accounting lines ignored."""
        return self._report_problems(preset, quick, strip_accounting(stdout),
                                     warm=True)


def pin(scratch: Path) -> Dict[str, Dict[str, str]]:
    """Compute the digests of every pinned op, fresh and cache-served,
    with a result cache under *scratch*."""
    from repro.lab import ResultCache, execute, get_scenario
    from run import CLI_OPS, COLD_OPS, WARMUP_OPS

    # Every (preset, quick) an op of any workload computes or renders
    # (serve-mixed's warm presets are CLI_OPS' quick ones).
    pinned = (set(COLD_OPS) | set(WARMUP_OPS)
              | {(p, q) for _, p, q in CLI_OPS})
    cache = ResultCache(scratch)
    out: Dict[str, Dict[str, str]] = {}
    for preset, quick in sorted(pinned):
        scenario = get_scenario(preset, quick=quick)
        cold = execute(scenario.points(), jobs=1, cache=cache)
        warm = execute(scenario.points(), cache=cache, require_cached=True)
        pins = {"records": _sha(canonical(cold.records())),
                "report": _sha(scenario.render(cold.results) + "\n")}
        warm_report = _sha(scenario.render(warm.results) + "\n")
        if warm_report != pins["report"]:
            pins["report_warm"] = warm_report
        out[op_name(preset, quick)] = pins
    return out


if __name__ == "__main__":
    if sys.argv[1:] != ["--pin"]:
        sys.exit("usage: python3 perfbench/oracle.py --pin")
    sys.path.insert(0, str(Path.cwd() / "src"))
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        digests = pin(Path(tmp))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
