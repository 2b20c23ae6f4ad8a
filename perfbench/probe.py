"""Child-process side of the benchmark (started by ``run.py``).

``probe.py prime DIR PRESET[:full] ...``
    Fill a result cache under DIR (trace store in DIR/traces) with
    the named presets, quick unless suffixed ``:full``.  This is the
    set-up of the ``warm-cli`` and ``serve-mixed`` workloads.
``probe.py warmup DIR``
    Import the engine and compute the warm-up ops of ``cold-sweep``
    (one of each kind) cold, each under its own directory in DIR: the
    set-up of that workload.
``probe.py ledger OUT -- ARGS...``
    Run ``repro-lab ARGS`` in this process with the layer ledger
    installed and write the ledger, plus the time ``import
    repro.lab.cli`` took, to OUT as JSON when the command returns.
    The traced ``warm-cli`` ops and the traced ``serve`` daemon use
    this; run it under ``python -X importtime`` for the import
    breakdown.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def _prime(root: Path, specs) -> None:
    from repro.lab import ResultCache, execute, get_scenario
    from repro.lab.tracestore import TraceStore, set_active_store

    set_active_store(TraceStore(root / "traces"))
    cache = ResultCache(root)
    for spec in specs:
        name, _, size = spec.partition(":")
        scenario = get_scenario(name, quick=size != "full")
        execute(scenario.points(), jobs=1, cache=cache)


def _ledger(out: Path, argv) -> int:
    t0 = time.perf_counter()
    import repro.lab.cli as cli
    import_s = time.perf_counter() - t0

    import ledger

    led = ledger.Ledger()
    layers = ledger.LAYERS
    if argv[:1] == ["serve"]:
        layers = layers + ledger.SERVE_LAYERS
    ledger.install(led, layers)
    try:
        return cli.main(list(argv))
    finally:
        out.write_text(json.dumps({"import_s": import_s,
                                   **led.snapshot()}))


def main(argv) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "prime":
        _prime(Path(rest[0]), rest[1:])
        return 0
    if mode == "warmup":
        from run import WARMUP_OPS

        for i, (name, quick) in enumerate(WARMUP_OPS):
            _prime(Path(rest[0]) / str(i),
                   [name if quick else f"{name}:full"])
        return 0
    if mode == "ledger" and rest[1:2] == ["--"]:
        return _ledger(Path(rest[0]), rest[2:])
    sys.exit(f"usage: see {__file__}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
