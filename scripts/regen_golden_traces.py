#!/usr/bin/env python
"""Regenerate the golden execution-digest file.

Runs every litmus program of ``ALL_LITMUS`` under every scheduler each
memory model supports, plus the nine Table-1 benchmarks under PCTWM, on
both backends with seeds 0-4, and records one sha256 per cell over the
runs' :func:`repro.fuzz.driver.run_fingerprint` (every event, rf edge,
mo/SC position and verdict) in ``tests/golden/execution_digests.json``.

The fast-vs-reference differential cannot see a change to the handlers
both engines share; these digests can.  The regression test
(``tests/test_golden_traces.py``) recomputes every cell and demands
exact agreement.  Regenerate (and say why in the change) only when a
change is *supposed* to alter executions:

    PYTHONPATH=src python scripts/regen_golden_traces.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.factory import SCHEDULER_REGISTRY, make_scheduler  # noqa: E402
from repro.fuzz.driver import run_fingerprint  # noqa: E402
from repro.litmus import ALL_LITMUS  # noqa: E402
from repro.memory import available_models, resolve_model  # noqa: E402
from repro.workloads.registry import BENCHMARKS  # noqa: E402

GOLDEN_PATH = REPO_ROOT / "tests" / "golden" / "execution_digests.json"

SEEDS = range(5)
MAX_STEPS = 20000

#: Constructor parameters per registry scheduler (small fixed values so
#: priority change points land inside the litmus programs).
LITMUS_PARAMS = {
    "pctwm": {"depth": 2, "k_com": 6, "history": 2},
    "pct": {"depth": 2, "k_events": 8},
    "c11tester": {},
    "naive": {},
    "pos": {},
    "ppct": {"depth": 2, "k_events": 8},
    "pctwm-nodelay": {"depth": 2, "k_com": 6, "history": 2},
    "pctwm-fullbag": {"depth": 2, "k_com": 6, "history": 2},
    "pctwm-eager": {"depth": 2, "k_com": 6, "history": 2},
    "pctwm-nohistory": {"depth": 2, "k_com": 6},
}


def cell_digest(backend, program_factory, scheduler_name, params) -> str:
    """sha256 over the fingerprints of one cell's runs, seeds 0-4."""
    digest = hashlib.sha256()
    for seed in SEEDS:
        result = backend.run_once(
            program_factory(), make_scheduler(scheduler_name, params, seed),
            max_steps=MAX_STEPS)
        digest.update(repr(run_fingerprint(result)).encode())
    return digest.hexdigest()


def cells():
    """Yield ``(key, backend, program factory, scheduler, params)``."""
    missing = set(SCHEDULER_REGISTRY) - set(LITMUS_PARAMS)
    if missing:
        raise SystemExit(f"no golden parameters for {sorted(missing)}")
    for model_name in available_models():
        backend = resolve_model(model_name)
        for sched_name, params in LITMUS_PARAMS.items():
            if not backend.supports_scheduler(sched_name):
                continue
            for name, factory in ALL_LITMUS.items():
                yield (f"{model_name}/{sched_name}/{name}", backend,
                       factory, sched_name, params)
        for info in BENCHMARKS.values():
            params = {"depth": info.measured_depth,
                      "k_com": info.paper_k_com,
                      "history": info.best_history}
            yield (f"{model_name}/pctwm/{info.name}", backend, info.build,
                   "pctwm", params)


def compute_golden() -> dict:
    return {
        "meta": {"seeds": f"range({len(SEEDS)})", "max_steps": MAX_STEPS,
                 "engine": "fast"},
        "digests": {key: cell_digest(backend, factory, sched, params)
                    for key, backend, factory, sched, params in cells()},
    }


def main() -> None:
    golden = compute_golden()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True)
                           + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden['digests'])} cells)")


if __name__ == "__main__":
    main()
