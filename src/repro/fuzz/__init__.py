"""Seeded program fuzzer: generate → campaign → shrink → corpus.

The generator emits small weak-memory programs over the operation DSL as
pure-data *plans* (JSON-safe nested lists), keyed deterministically by a
64-bit seed.  Plans build into :class:`repro.runtime.program.Program`
instances through the ``"fuzz"`` registry kind, so generated programs are
picklable, replayable, and campaign-compatible exactly like the
hand-written workloads.  The driver steers campaigns by behavioural
coverage (distinct signatures, rf/mo shapes, weak reads) and funnels
findings through the ddmin minimizers into a regression corpus.

Each name loads its submodule on first use: the CLI's flags need
:mod:`~repro.fuzz.generator`, not the driver, corpus and shrinker.
"""

import importlib

#: Public name -> the submodule defining it.
_EXPORTS = {name: module for module, names in {
    "corpus": ("CORPUS_VERSION", "corpus_files", "load_entry",
               "replay_entry", "save_entry"),
    "driver": ("FuzzProgramReport", "FuzzReport", "engine_divergences",
               "model_divergences", "run_fuzz", "write_divergence"),
    "generator": ("FuzzConfig", "build_plan_program",
                  "expected_final_memory", "fuzz_program", "generate_spec",
                  "plan_is_determinate", "plan_program", "plan_spec",
                  "plan_stats", "plan_step_bound"),
    "shrink": ("ShrunkFinding", "shrink_plan"),
}.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__),
                   name)
