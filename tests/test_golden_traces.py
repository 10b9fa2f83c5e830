"""Golden regression: executions are pinned graph-exactly.

``scripts/regen_golden_traces.py`` records one sha256 per (model,
scheduler, program) cell over the :func:`repro.fuzz.driver
.run_fingerprint` of seeds 0-4: every event, rf edge, mo and SC
position, race and verdict.  The fast and reference engines share the
executor's commit handlers, so the fast-vs-reference differential
cannot see a drift there; this test can.  Intended changes regenerate
the golden file and say why.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = REPO_ROOT / "tests" / "golden" / "execution_digests.json"


def load_regen_module():
    spec = importlib.util.spec_from_file_location(
        "regen_golden_traces",
        REPO_ROOT / "scripts" / "regen_golden_traces.py",
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def recomputed():
    return load_regen_module().compute_golden()


def test_golden_file_covers_both_models(golden):
    keys = golden["digests"]
    for model in ("c11", "tso"):
        assert f"{model}/pctwm/SB" in keys
        assert f"{model}/pctwm/dekker" in keys
    assert "c11/c11tester/MP" in keys
    assert "tso/c11tester/MP" not in keys  # not a TSO scheduler


def test_execution_digests_reproduce_exactly(golden, recomputed):
    assert recomputed["meta"] == golden["meta"], (
        "grid parameters changed: regenerate "
        "tests/golden/execution_digests.json"
    )
    assert set(recomputed["digests"]) == set(golden["digests"])
    drifted = sorted(key for key, digest in golden["digests"].items()
                     if recomputed["digests"][key] != digest)
    assert not drifted, (
        f"executions drifted in {drifted}; if the change is intentional "
        "run scripts/regen_golden_traces.py and review the diff"
    )
