#!/usr/bin/env python3
"""Steadiness report: is the benchmark steady enough for its bounds?

Runs ``run.py`` in two sets of five runs of the same code, each run
with its own seed and ``run_seconds`` of ``BENCHMARK.json``, and prints
per workload and end-to-end metric each set's median and quartiles,
the spread (q3 - q1) / median, and the change of the second set's
median against the first, both next to the metric's bound in
``BENCHMARK.json``.  A spread should stay below a third of its bound
(``setup_s`` is exempt from the spread rule) and no set's median may be
worse than the first set's by more than the bound.  Run from the root
of a checkout::

    python3 perfbench/steadiness.py --workload warm-cli
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

RUN = Path(__file__).resolve().parent / "run.py"
SETS = 2
RUNS = 5


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def worse_by(base: float, other: float, better: str) -> float:
    """How much worse *other* is than *base*, as a share of *base*."""
    if not base:
        return 0.0
    change = (other - base) / base
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--first-seed", type=int, default=101,
                        help="seed of the first run; later runs count up")
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    ok = True
    for workload in args.workload:
        sets = []
        for s in range(SETS):
            runs = []
            for r in range(RUNS):
                seed = args.first_seed + s * RUNS + r
                result = run_once(workload, seed, seconds)
                ok &= result["correct"] and result["failed"] == 0
                runs.append(result)
                print(f"# {workload} set {s + 1} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in
                                 result["metrics"].items()), flush=True)
            sets.append(runs)
        print(f"\n{workload}: {SETS} sets x {RUNS} runs, "
              f"{seconds}s each")
        print(f"{'metric':<14} {'bound':>6} {'set':>3} {'median':>11} "
              f"{'q1':>11} {'q3':>11} {'spread':>7} {'vs set 1':>8}")
        pooled_ok = True
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = None
            for s, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else 0.0
                first = med if first is None else first
                drift = worse_by(first, med, metric["better"])
                flag = ""
                if name != "setup_s" and spread > bound / 3:
                    flag += " spread>bound/3"
                    pooled_ok = False
                if drift > bound:
                    flag += " drift>bound"
                    pooled_ok = False
                print(f"{name:<14} {bound:>6.3f} {s + 1:>3} {med:>11.5g} "
                      f"{q1:>11.5g} {q3:>11.5g} {spread:>7.4f} "
                      f"{drift:>+8.4f}{flag}")
            values = [r["metrics"][name]["value"]
                      for runs in sets for r in runs]
            q1, med, q3 = quartiles(values)
            print(f"{name:<14} {bound:>6.3f} {'all':>3} {med:>11.5g} "
                  f"{q1:>11.5g} {q3:>11.5g} "
                  f"{(q3 - q1) / med if med else 0.0:>7.4f}")
        ok &= pooled_ok
    print(f"\nsteady: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
