"""Picklable scheduler construction: registry names + parameter dicts.

The parallel campaign engine (:mod:`repro.harness.parallel`) ships work
units to ``multiprocessing`` workers, so scheduler factories must survive
pickling.  Closures (``lambda seed: PCTWMScheduler(...)``) do not; a
:class:`SchedulerSpec` — a registry name plus a parameter mapping — does,
and it is itself a ``seed -> Scheduler`` factory, so every serial code
path accepts it unchanged.

    spec = SchedulerSpec("pctwm", {"depth": 2, "k_com": 14, "history": 1})
    scheduler = spec(seed=7)          # PCTWMScheduler(2, 14, 1, seed=7)
    spec.scheduler_name              # "pctwm", no probe instance needed
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Type

from ..runtime.scheduler import Scheduler
from .ablations import (
    PCTWMEagerViews,
    PCTWMFullBagJoin,
    PCTWMNoDelay,
    PCTWMUnboundedHistory,
)
from .c11tester import C11TesterScheduler
from .naive import NaiveRandomScheduler
from .pct import PCTScheduler
from .pctwm import PCTWMScheduler
from .pos import POSScheduler
from .ppct import PPCTScheduler

#: Every scheduler constructible by name.  Keys are the schedulers'
#: ``name`` attributes, so ``SCHEDULER_REGISTRY[s].name == s``.
SCHEDULER_REGISTRY: Dict[str, Type[Scheduler]] = {
    cls.name: cls
    for cls in (
        PCTWMScheduler,
        PCTScheduler,
        C11TesterScheduler,
        NaiveRandomScheduler,
        POSScheduler,
        PPCTScheduler,
        PCTWMNoDelay,
        PCTWMFullBagJoin,
        PCTWMEagerViews,
        PCTWMUnboundedHistory,
    )
}


def make_scheduler(name: str, params: Optional[Mapping[str, Any]] = None,
                   seed: Optional[int] = None) -> Scheduler:
    """Instantiate a registered scheduler from its name and parameters."""
    try:
        cls = SCHEDULER_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(SCHEDULER_REGISTRY))
        raise ValueError(
            f"unknown scheduler {name!r}; known: {known}"
        ) from None
    return cls(**dict(params or {}), seed=seed)


@dataclass(frozen=True)
class SchedulerSpec:
    """A picklable ``seed -> Scheduler`` factory.

    Drop-in replacement for the closure factories in
    :mod:`repro.harness.campaign`; unlike them it crosses process
    boundaries, which is what lets ``run_campaign_parallel`` shard trials
    over a worker pool.
    """

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)

    #: Registry schedulers rebuild all per-run state in ``on_run_start``
    #: and inherit ``Scheduler.reseed``, so one instance may be reseeded
    #: and reused across trials with seed-for-seed identical results.
    #: They also take every random decision from ``self.rng``, so a run
    #: is a function of its live draws and of the change points it
    #: reached (a priority scheduler's whole plan need not fire), and a
    #: campaign may swap in a :class:`~repro.runtime.draws.DrawRandom`
    #: to replay trials that repeat.  Arbitrary user factories (closures) make no
    #: such promise, so the campaign fast path only reuses instances
    #: built from a spec.
    supports_reuse = True

    def __post_init__(self) -> None:
        if self.name not in SCHEDULER_REGISTRY:
            known = ", ".join(sorted(SCHEDULER_REGISTRY))
            raise ValueError(
                f"unknown scheduler {self.name!r}; known: {known}"
            )
        # Freeze the mapping so specs are safely shareable across shards.
        object.__setattr__(self, "params", dict(self.params))

    @property
    def scheduler_name(self) -> str:
        """The scheduler's display name, without building an instance."""
        return SCHEDULER_REGISTRY[self.name].name

    def __call__(self, seed: Optional[int] = None) -> Scheduler:
        return make_scheduler(self.name, self.params, seed)
