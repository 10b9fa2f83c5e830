"""Deterministic, seed-keyed program generator over the operation DSL.

A generated program is first materialized as a *plan*: a nested structure
of JSON-safe lists and scalars describing locations and per-thread
instruction sequences.  Plans are the unit of everything downstream —
they pickle, they JSON round-trip, they shrink by instruction deletion,
and they rebuild into :class:`~repro.runtime.program.Program` instances
via :func:`build_plan_program`.  The ``"fuzz"`` registry kind
(:func:`fuzz_program`) accepts either a generation seed (plus config
knobs) or an explicit plan, so campaign artifacts and corpus entries
replay through the same :class:`~repro.workloads.registry.ProgramSpec`
machinery as every hand-written workload.

Tractability follows *Variable and Thread Bounding for Systematic
Testing*: thread/op/location counts are hard-capped by config knobs, and
accesses are biased toward a small "hot" subset of locations so the
conflicting-access pairs that drive weak behaviours concentrate on a few
variables instead of diffusing across the whole footprint.

Two profiles:

``mixed``
    Anything goes — mixed memory orders, RMW/CAS loops, fences, bounded
    spin loops, an optional embedded message-passing assertion oracle
    (sound: it can only fire when a genuinely weak behaviour was
    observed), and optionally non-atomic (racy) accesses.

``determinate``
    Race-free programs whose *final memory state* is the same under
    every interleaving and every memory model: each location is either
    store-owned by exactly one thread or a pure fetch-add counter.
    :func:`expected_final_memory` computes the unique final state, which
    powers the TSO-vs-C11 differential mode.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..harness.options import (
    NONNEGATIVE_INT,
    POSITIVE_INT,
    Bound,
    Choice,
    check_fields,
    option,
)
from ..memory.events import MemoryOrder
from ..runtime.api import fence, spin_until
from ..runtime.errors import ProgramDefinitionError, require
from ..runtime.program import Program
from ..workloads.registry import ProgramSpec

#: Current plan schema version; bump on incompatible instruction changes.
PLAN_VERSION = 1

#: Canonical order names used inside plans (JSON-safe strings).
ORDER_BY_NAME: Dict[str, MemoryOrder] = {
    "rlx": MemoryOrder.RELAXED,
    "acq": MemoryOrder.ACQUIRE,
    "rel": MemoryOrder.RELEASE,
    "acq_rel": MemoryOrder.ACQ_REL,
    "sc": MemoryOrder.SEQ_CST,
}

#: Orders legal per access kind (C11: no release loads, no acquire stores).
_LOAD_ORDERS = ("rlx", "acq", "sc")
_STORE_ORDERS = ("rlx", "rel", "sc")
_RMW_ORDERS = ("rlx", "acq", "rel", "acq_rel", "sc")
_FENCE_ORDERS = ("acq", "rel", "acq_rel", "sc")

#: The message-passing oracle's bug message.  Static on purpose: corpus
#: entries pin expected bug messages byte-for-byte.
MP_ORACLE_MESSAGE = "fuzz-mp: flag observed but data is stale"


@dataclass(frozen=True)
class FuzzConfig:
    """Bounding knobs and op-mix weights for the generator.

    All fields are JSON-safe scalars/tuples so configs ride inside
    ``ProgramSpec.params`` (see :meth:`to_params` / :meth:`from_params`).
    Declared fields (:mod:`repro.harness.options`) are checked on
    construction and give the ``fuzz`` command its generator flags.
    """

    #: Thread bounding (inclusive); a program races at least two threads.
    min_threads: int = option(2, Bound(int, 2))
    max_threads: int = option(3, Bound(int, 2),
                              help="upper bound on generated threads")
    #: Op bounding per thread, *including* any embedded oracle ops.
    min_ops: int = option(2, POSITIVE_INT)
    max_ops: int = option(6, POSITIVE_INT,
                          help="per-thread operation bound (incl. any "
                               "embedded oracle)")
    #: Variable bounding: total locations (incl. oracle/non-atomic locs).
    max_locations: int = option(4, POSITIVE_INT,
                                help="upper bound on memory locations")
    #: Memory orders the generator may draw from (plan order names).
    orders: Tuple[str, ...] = ("rlx", "acq", "rel", "acq_rel", "sc")
    #: Op-mix weights (any may be 0 to disable the kind).
    load_weight: int = option(4, NONNEGATIVE_INT)
    store_weight: int = option(4, NONNEGATIVE_INT)
    rmw_weight: int = option(2, NONNEGATIVE_INT)
    cas_weight: int = option(1, NONNEGATIVE_INT)
    fence_weight: int = option(1, NONNEGATIVE_INT)
    spin_weight: int = option(1, NONNEGATIVE_INT)
    #: Probability that an access targets the hot location subset.
    hot_bias: float = 0.75
    #: ``"mixed"`` or ``"determinate"`` (see module docstring).
    profile: str = option(
        "mixed", Choice("profile", ("mixed", "determinate")),
        help="'determinate' generates race-free programs with an "
             "interleaving-invariant final state")
    #: Embedded MP assertion oracle: "off" | "auto" (coin flip) | "always".
    oracle: str = option("auto", Choice("oracle", ("off", "auto", "always")),
                         help="embed a message-passing assertion oracle")
    #: Add a non-atomic location with racy accesses (mixed profile only).
    allow_nonatomic: bool = option(
        False, help="generate non-atomic (racy) accesses too")
    #: Bounds that keep every generated program finite.
    max_spins: int = option(4, POSITIVE_INT)
    cas_retries: int = option(3, POSITIVE_INT)
    #: Stored values are drawn from 1..value_range.
    value_range: int = option(8, POSITIVE_INT)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.min_threads > self.max_threads:
            raise ValueError("need min_threads <= max_threads")
        if self.min_ops > self.max_ops:
            raise ValueError("need min_ops <= max_ops")
        if not self.orders:
            raise ValueError("orders must be non-empty")
        unknown = [o for o in self.orders if o not in ORDER_BY_NAME]
        if unknown:
            raise ValueError(f"unknown memory orders: {unknown}")
        if self.load_weight + self.store_weight <= 0:
            raise ValueError("load_weight + store_weight must be > 0")
        if not (0.0 <= self.hot_bias <= 1.0):
            raise ValueError("hot_bias must be in [0, 1]")
        object.__setattr__(self, "orders", tuple(self.orders))

    def to_params(self) -> Dict[str, Any]:
        """JSON-safe keyword dict; ``FuzzConfig.from_params`` inverts it."""
        params: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            params[f.name] = list(value) if isinstance(value, tuple) else value
        return params

    @classmethod
    def from_params(cls, params: Mapping[str, Any]) -> "FuzzConfig":
        kwargs = dict(params)
        if "orders" in kwargs:
            kwargs["orders"] = tuple(kwargs["orders"])
        return cls(**kwargs)


# -- plan generation -----------------------------------------------------------


def _pick_order(rng: random.Random, allowed: Sequence[str],
                legal: Sequence[str]) -> str:
    pool = [o for o in legal if o in allowed]
    return rng.choice(pool) if pool else "sc"


def _pick_loc(rng: random.Random, locs: Sequence[str], hot: Sequence[str],
              hot_bias: float) -> str:
    if hot and rng.random() < hot_bias:
        return rng.choice(list(hot))
    return rng.choice(list(locs))


def _weighted_kind(rng: random.Random,
                   choices: Sequence[Tuple[str, int]]) -> str:
    kinds = [k for k, w in choices if w > 0]
    weights = [w for _, w in choices if w > 0]
    return rng.choices(kinds, weights=weights)[0]


def plan_program(gen_seed: int, config: Optional[FuzzConfig] = None) -> dict:
    """Generate the plan for seed ``gen_seed`` (pure, deterministic).

    The same ``(gen_seed, config)`` pair always yields a structurally
    identical plan: generation uses only :class:`random.Random`, whose
    algorithms are stable across platforms and Python versions.
    """
    config = config or FuzzConfig()
    rng = random.Random(gen_seed)
    determinate = config.profile == "determinate"

    n_threads = rng.randint(config.min_threads, config.max_threads)

    # Decide the oracle up-front so the location budget can reserve its
    # two dedicated locations.  Determinate programs never embed one: a
    # mid-run assertion abort would make the final state depend on the
    # interleaving.
    want_oracle = (not determinate and config.oracle != "off"
                   and config.max_locations >= 3)
    if want_oracle and config.oracle == "auto":
        want_oracle = rng.random() < 0.5
    nonatomic = (config.allow_nonatomic and not determinate
                 and config.max_locations >= (4 if want_oracle else 2))

    budget = config.max_locations - (2 if want_oracle else 0) \
        - (1 if nonatomic else 0)
    n_locs = rng.randint(1, max(1, min(budget, 4)))
    locs = [f"X{i}" for i in range(n_locs)]
    locations: List[List[Any]] = [[name, 0, True] for name in locs]

    # Variable bounding: concentrate accesses on a small hot subset.
    hot = sorted(rng.sample(locs, min(2, len(locs))))

    # Determinate partition: each location is either a single-writer
    # store cell or a fetch-add counter; both make the final state
    # interleaving-invariant.
    owners: Dict[str, int] = {}
    counters: List[str] = []
    if determinate:
        for name in locs:
            if rng.random() < 0.4:
                counters.append(name)
            else:
                owners[name] = rng.randrange(n_threads)
        if not counters and not owners:  # pragma: no cover - unreachable
            counters.append(locs[0])

    def gen_instr(tid: int) -> Optional[list]:
        if determinate:
            owned = [l for l in locs if owners.get(l) == tid]
            choices = [
                ("load", config.load_weight),
                ("store", config.store_weight if owned else 0),
                ("add", config.rmw_weight if counters else 0),
                ("fence", config.fence_weight),
                ("spin", config.spin_weight),
            ]
        else:
            choices = [
                ("load", config.load_weight),
                ("store", config.store_weight),
                ("rmw", config.rmw_weight),
                ("cas", config.cas_weight),
                ("fence", config.fence_weight),
                ("spin", config.spin_weight),
                ("na", 2 if nonatomic else 0),
            ]
        if not any(w > 0 for _, w in choices):
            return None
        kind = _weighted_kind(rng, choices)
        value = rng.randint(1, config.value_range)
        if kind == "load":
            loc = _pick_loc(rng, locs, hot, config.hot_bias)
            return ["load", loc, _pick_order(rng, config.orders, _LOAD_ORDERS)]
        if kind == "store":
            loc = (rng.choice(owned) if determinate
                   else _pick_loc(rng, locs, hot, config.hot_bias))
            return ["store", loc, value,
                    _pick_order(rng, config.orders, _STORE_ORDERS)]
        if kind == "add":
            return ["add", rng.choice(counters), value,
                    _pick_order(rng, config.orders, _RMW_ORDERS)]
        if kind == "rmw":
            loc = _pick_loc(rng, locs, hot, config.hot_bias)
            order = _pick_order(rng, config.orders, _RMW_ORDERS)
            if rng.random() < 0.5:
                return ["add", loc, value, order]
            return ["xchg", loc, value, order]
        if kind == "cas":
            loc = _pick_loc(rng, locs, hot, config.hot_bias)
            order = _pick_order(rng, config.orders, _RMW_ORDERS)
            if rng.random() < 0.5:
                return ["cas", loc, rng.randint(0, config.value_range), value,
                        order, _pick_order(rng, config.orders, _LOAD_ORDERS)]
            return ["casloop", loc, value, order, config.cas_retries]
        if kind == "fence":
            return ["fence", _pick_order(rng, config.orders, _FENCE_ORDERS)]
        if kind == "spin":
            loc = _pick_loc(rng, locs, hot, config.hot_bias)
            return ["spin", loc, rng.randint(1, config.value_range),
                    _pick_order(rng, config.orders, _LOAD_ORDERS),
                    config.max_spins]
        if kind == "na":
            if rng.random() < 0.5:
                return ["na_store", "N0", value]
            return ["na_load", "N0"]
        raise AssertionError(kind)  # pragma: no cover

    writer = reader = -1
    magic = 0
    if want_oracle:
        writer = rng.randrange(n_threads)
        reader = rng.choice([t for t in range(n_threads) if t != writer])
        magic = rng.randint(1, config.value_range)

    threads: List[List[list]] = []
    for tid in range(n_threads):
        ops = rng.randint(config.min_ops, config.max_ops)
        # The oracle's ops count against the per-thread bound, so the
        # max_ops knob is a hard cap even on oracle threads.
        if tid == writer:
            ops = max(0, ops - 2)
        elif tid == reader:
            ops = max(0, ops - 1)
        body = []
        for _ in range(ops):
            instr = gen_instr(tid)
            if instr is not None:
                body.append(instr)
        threads.append(body)

    if want_oracle:
        d_order = _pick_order(rng, config.orders, _STORE_ORDERS)
        f_order = _pick_order(rng, config.orders, _STORE_ORDERS)
        lf_order = _pick_order(rng, config.orders, _LOAD_ORDERS)
        ld_order = _pick_order(rng, config.orders, _LOAD_ORDERS)
        locations.append(["FD", 0, True])
        locations.append(["FF", 0, True])
        threads[writer].append(["store", "FD", magic, d_order])
        threads[writer].append(["store", "FF", 1, f_order])
        threads[reader].append(["mp_check", "FF", "FD", magic,
                                lf_order, ld_order])
    if nonatomic:
        locations.append(["N0", 0, False])

    # No thread body may be empty: Program.instantiate would be fine, but
    # zero-op threads waste scheduler slots and trip nothing.
    for body in threads:
        if not body:
            body.append(["load", locs[0],
                         _pick_order(rng, config.orders, _LOAD_ORDERS)])

    name = f"fuzz-{gen_seed & ((1 << 64) - 1):016x}"
    return {
        "version": PLAN_VERSION,
        "name": name,
        "profile": config.profile,
        "locations": locations,
        "threads": threads,
    }


# -- plan -> Program -----------------------------------------------------------


def _make_body(instrs: Sequence[Sequence[Any]], handles: Dict[str, Any]):
    instrs = tuple(tuple(i) for i in instrs)

    def body():
        for ins in instrs:
            kind = ins[0]
            if kind == "store":
                yield handles[ins[1]].store(ins[2], ORDER_BY_NAME[ins[3]])
            elif kind == "load":
                yield handles[ins[1]].load(ORDER_BY_NAME[ins[2]])
            elif kind == "add":
                yield handles[ins[1]].fetch_add(ins[2], ORDER_BY_NAME[ins[3]])
            elif kind == "xchg":
                yield handles[ins[1]].exchange(ins[2], ORDER_BY_NAME[ins[3]])
            elif kind == "cas":
                yield handles[ins[1]].cas(ins[2], ins[3],
                                          ORDER_BY_NAME[ins[4]],
                                          ORDER_BY_NAME[ins[5]])
            elif kind == "casloop":
                _loc, desired, order, retries = ins[1], ins[2], \
                    ORDER_BY_NAME[ins[3]], ins[4]
                for _ in range(retries):
                    current = yield handles[_loc].load(order)
                    if current == desired:
                        break
                    ok, _old = yield handles[_loc].cas(current, desired, order)
                    if ok:
                        break
            elif kind == "fence":
                yield fence(ORDER_BY_NAME[ins[1]])
            elif kind == "spin":
                target = ins[2]
                yield from spin_until(handles[ins[1]],
                                      lambda v, t=target: v == t,
                                      ORDER_BY_NAME[ins[3]], ins[4])
            elif kind == "na_store":
                yield handles[ins[1]].store(ins[2])
            elif kind == "na_load":
                yield handles[ins[1]].load()
            elif kind == "mp_check":
                flag = yield handles[ins[1]].load(ORDER_BY_NAME[ins[4]])
                if flag == 1:
                    data = yield handles[ins[2]].load(ORDER_BY_NAME[ins[5]])
                    require(data == ins[3], MP_ORACLE_MESSAGE)
            else:
                raise ProgramDefinitionError(
                    f"unknown plan instruction {kind!r}")

    return body


def build_plan_program(plan: Mapping[str, Any]) -> Program:
    """Materialize a plan into a reusable :class:`Program`.

    The returned program keeps all per-run state inside its generator
    bodies, so it satisfies the registry's ``supports_reuse`` contract:
    one build, many instantiations, and each run a function of the
    scheduler's draws.
    """
    version = plan.get("version", PLAN_VERSION)
    if version != PLAN_VERSION:
        raise ValueError(f"unsupported plan version {version!r}")
    program = Program(str(plan.get("name", "fuzz")))
    handles: Dict[str, Any] = {}
    for name, init, atomic in plan["locations"]:
        if atomic:
            handles[name] = program.atomic(name, init,
                                           MemoryOrder.SEQ_CST)
        else:
            handles[name] = program.non_atomic(name, init)
    for tid, instrs in enumerate(plan["threads"]):
        program.add_thread(_make_body(instrs, handles), name=f"t{tid}")
    return program


# -- plan analysis -------------------------------------------------------------


def plan_stats(plan: Mapping[str, Any]) -> Dict[str, int]:
    """Thread/op/location counts, for bound checks and reports."""
    threads = plan["threads"]
    return {
        "threads": len(threads),
        "ops": sum(len(t) for t in threads),
        "max_thread_ops": max((len(t) for t in threads), default=0),
        "locations": len(plan["locations"]),
    }


def plan_step_bound(plan: Mapping[str, Any]) -> int:
    """A step budget every execution of the plan fits inside, any model.

    Spin loops and CAS loops are bounded by construction; the factor of 2
    covers TSO's separately-scheduled store-buffer flush commits, and the
    per-thread slack covers joins and end-of-thread bookkeeping.
    """
    cost = 0
    for instrs in plan["threads"]:
        for ins in instrs:
            kind = ins[0]
            if kind == "spin":
                cost += ins[4]
            elif kind == "casloop":
                cost += 2 * ins[4]
            elif kind == "mp_check":
                cost += 2
            else:
                cost += 1
    return 2 * cost + 16 * len(plan["threads"]) + 64


def plan_is_determinate(plan: Mapping[str, Any]) -> bool:
    """True when the final memory state cannot depend on scheduling.

    Structural check: all locations atomic, no CAS/exchange/oracle, and
    each location is either stored to by at most one thread (and never
    fetch-added) or only fetch-added.  Loads, fences, and bounded spins
    never affect the final state.
    """
    for _name, _init, atomic in plan["locations"]:
        if not atomic:
            return False
    store_tids: Dict[str, set] = {}
    adders: Dict[str, set] = {}
    for tid, instrs in enumerate(plan["threads"]):
        for ins in instrs:
            kind = ins[0]
            if kind == "store":
                store_tids.setdefault(ins[1], set()).add(tid)
            elif kind == "add":
                adders.setdefault(ins[1], set()).add(tid)
            elif kind in ("load", "fence", "spin"):
                continue
            else:
                return False
    for loc, tids in store_tids.items():
        if len(tids) > 1 or loc in adders:
            return False
    return True


def expected_final_memory(plan: Mapping[str, Any]) -> Dict[str, int]:
    """The unique final memory state of a determinate plan."""
    if not plan_is_determinate(plan):
        raise ValueError("plan is not determinate")
    final: Dict[str, Any] = {name: init
                             for name, init, _atomic in plan["locations"]}
    for instrs in plan["threads"]:
        for ins in instrs:
            if ins[0] == "store":
                final[ins[1]] = ins[2]
            elif ins[0] == "add":
                final[ins[1]] += ins[2]
    return final


# -- registry integration ------------------------------------------------------


def fuzz_program(gen_seed: Optional[int] = None,
                 plan: Optional[Mapping[str, Any]] = None,
                 **config_params: Any) -> Program:
    """The ``"fuzz"`` registry factory.

    Two parameter shapes, both picklable/JSON-safe:

    * ``{"gen_seed": <int>, **config_knobs}`` — regenerate the plan from
      its seed (the form campaign artifacts carry);
    * ``{"plan": {...}}`` — build an explicit (possibly shrunk) plan
      (the form corpus entries carry).
    """
    if plan is not None:
        if gen_seed is not None or config_params:
            raise ValueError("pass either plan= or gen_seed=, not both")
        return build_plan_program(plan)
    if gen_seed is None:
        raise ValueError("fuzz_program needs gen_seed= or plan=")
    config = FuzzConfig.from_params(config_params)
    return build_plan_program(plan_program(gen_seed, config))


def generate_spec(gen_seed: int,
                  config: Optional[FuzzConfig] = None) -> ProgramSpec:
    """The picklable registry spec for generation seed ``gen_seed``."""
    config = config or FuzzConfig()
    name = f"fuzz-{gen_seed & ((1 << 64) - 1):016x}"
    return ProgramSpec(name, "fuzz",
                       {"gen_seed": gen_seed, **config.to_params()})


def plan_spec(plan: Mapping[str, Any]) -> ProgramSpec:
    """The registry spec of an explicit (e.g. shrunk) plan."""
    return ProgramSpec(str(plan.get("name", "fuzz")), "fuzz",
                       {"plan": dict(plan)})
