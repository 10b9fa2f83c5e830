"""Registry of the paper's nine data-structure benchmarks (Table 1).

Each entry records the factory plus the paper's reported characteristics
(LOC, estimated k, estimated k_com, bug depth d) so the harness can
reproduce Table 1 side by side with our measured values, and Tables 2-3 /
Figures 5-6 know which parameters to sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from ..runtime.program import Program
from .barrier import barrier
from .cldeque import cldeque
from .dekker import dekker
from .linuxrwlocks import linuxrwlocks
from .mcslock import mcslock
from .mpmcqueue import mpmcqueue
from .msqueue import msqueue
from .rwlock import rwlock
from .seqlock import seqlock

Factory = Callable[..., Program]


@dataclass(frozen=True)
class BenchmarkInfo:
    """One Table 1 row: the paper's reported benchmark characteristics.

    ``measured_depth`` is the empirical bug depth of *our* re-implementation
    (PCTWM's smallest hitting ``d``); it differs from ``paper_depth`` on a
    few benchmarks because this substrate forces atomic updates to observe
    the mo-maximal write, which makes some communications free (see
    DESIGN.md).  ``best_history`` is the history depth the sweep found most
    effective at ``measured_depth``.
    """

    name: str
    factory: Factory
    paper_loc: int
    paper_k: int
    paper_k_com: int
    paper_depth: int
    measured_depth: int = 0
    best_history: int = 1
    #: Benchmarks the paper uses for the Figure 6 inserted-writes sweep.
    in_figure6: bool = False

    def build(self, inserted_writes: int = 0) -> Program:
        return self.factory(inserted_writes=inserted_writes)


BENCHMARKS: Dict[str, BenchmarkInfo] = {
    info.name: info
    for info in (
        BenchmarkInfo("dekker", dekker, 50, 20, 14, 0,
                      measured_depth=0, best_history=1, in_figure6=True),
        BenchmarkInfo("msqueue", msqueue, 232, 49, 31, 0,
                      measured_depth=0, best_history=1),
        BenchmarkInfo("barrier", barrier, 38, 15, 10, 1,
                      measured_depth=1, best_history=1),
        BenchmarkInfo("cldeque", cldeque, 122, 86, 56, 1,
                      measured_depth=1, best_history=1, in_figure6=True),
        BenchmarkInfo("mcslock", mcslock, 75, 26, 16, 1,
                      measured_depth=2, best_history=1),
        BenchmarkInfo("mpmcqueue", mpmcqueue, 108, 19, 17, 2,
                      measured_depth=1, best_history=1, in_figure6=True),
        BenchmarkInfo("linuxrwlocks", linuxrwlocks, 90, 20, 19, 2,
                      measured_depth=1, best_history=1),
        BenchmarkInfo("rwlock", rwlock, 98, 84, 74, 2,
                      measured_depth=3, best_history=1, in_figure6=True),
        BenchmarkInfo("seqlock", seqlock, 50, 20, 18, 3,
                      measured_depth=3, best_history=2),
    )
}

#: Table order used throughout the paper's evaluation section.
BENCHMARK_ORDER = list(BENCHMARKS)


def benchmark_info(name: str) -> BenchmarkInfo:
    """The registered benchmark ``name``; a ``ValueError`` naming the
    known ones if there is none."""
    if name not in BENCHMARKS:
        known = ", ".join(BENCHMARKS)
        raise ValueError(f"unknown benchmark {name!r}; known: {known}")
    return BENCHMARKS[name]


def select_benchmarks(names: Optional[Sequence[str]]) -> List[BenchmarkInfo]:
    """The benchmarks ``names`` selects, every one when ``None``; an
    empty or unknown selection is a ``ValueError``."""
    if names is None:
        return list(BENCHMARKS.values())
    if not names:
        known = ", ".join(BENCHMARKS)
        raise ValueError(f"no benchmark selected; known: {known}")
    return [benchmark_info(name) for name in names]


def resolve_program_factory(kind: str, name: str) -> Factory:
    """Look up a program factory by registry kind and name.

    ``kind`` is ``"benchmark"`` (Table 1 data structures), ``"litmus"``
    (the classic shapes, including the extended gallery), ``"app"``
    (the Table 4 application models) or ``"fuzz"`` (seed-keyed generated
    programs; the name is display-only — the factory parameters carry
    the generation seed or an explicit plan).  Lazy imports keep this
    module free of cycles with the litmus/app/fuzz packages.
    """
    if kind == "benchmark":
        return benchmark_info(name).factory
    if kind == "litmus":
        from ..litmus import ALL_LITMUS, EXTENDED_LITMUS

        gallery = {**ALL_LITMUS, **EXTENDED_LITMUS}
        if name not in gallery:
            known = ", ".join(gallery)
            raise ValueError(f"unknown litmus {name!r}; known: {known}")
        return gallery[name]
    if kind == "app":
        from .apps import APPLICATIONS, EXTENSION_APPLICATIONS

        apps = {**APPLICATIONS, **EXTENSION_APPLICATIONS}
        if name not in apps:
            known = ", ".join(apps)
            raise ValueError(f"unknown application {name!r}; known: {known}")
        return apps[name]
    if kind == "fuzz":
        from ..fuzz.generator import fuzz_program

        return fuzz_program
    raise ValueError(
        f"unknown program kind {kind!r}; "
        "expected 'benchmark', 'litmus', 'app' or 'fuzz'"
    )


@dataclass(frozen=True)
class ProgramSpec:
    """A picklable zero-argument program factory.

    The parallel campaign engine ships work units across process
    boundaries, so program factories must pickle; closures over
    :class:`BenchmarkInfo` objects do not.  A spec names the program in a
    registry (``kind`` + ``name``) and carries the factory keyword
    arguments (e.g. ``{"inserted_writes": 4}`` for the Figure 6 sweep),
    which is all a worker needs to rebuild the program.
    """

    name: str
    kind: str = "benchmark"
    params: Mapping[str, Any] = field(default_factory=dict)

    #: Registry programs keep all per-run state inside their generator
    #: thread bodies, so one built :class:`Program` may be instantiated
    #: run after run.  The campaign fast path uses this to build the
    #: program once per worker instead of once per trial; arbitrary
    #: factory closures make no such promise and are rebuilt every time.
    #: The same promise makes a run a function of its live draws and of
    #: the change points it reached (no hidden state, clock or global
    #: counter steers it), which lets a campaign replay a trial that
    #: repeats an earlier one (:mod:`repro.runtime.draws`).
    supports_reuse = True

    def __post_init__(self) -> None:
        resolve_program_factory(self.kind, self.name)  # fail fast
        object.__setattr__(self, "params", dict(self.params))

    def build(self) -> Program:
        factory = resolve_program_factory(self.kind, self.name)
        return factory(**self.params)

    def __call__(self) -> Program:
        return self.build()
