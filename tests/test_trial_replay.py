"""Tests for replaying repeated campaign trials from a draw tree.

A :class:`~repro.harness.campaign.TrialRunner` whose factories both
declare ``supports_reuse`` records the outcome of every clean run under
its sequence of scheduler draws, and returns that outcome when a later
trial draws the same sequence.  The contracts:

* **Records are equal.**  A runner with its tree and one whose slot
  budget is 0 (nothing recorded, every trial executed) produce the same
  records, ``elapsed_s`` aside: over the litmus gallery, the Table-1
  benchmarks and generated programs, under every scheduler each memory
  model allows; serial and ``jobs=2`` campaigns agree.
* **Only the outcome is replayed.**  Sanitized trials, ``artifact_dir``
  campaigns and ``trial_timeout_s`` campaigns always execute; runs that
  drew continuously (POS) or errored are never recorded.
* **Nondeterminism is contained.**  A program that is not a function of
  its draws loses its tree, and its records still match plain runs.
* **The budget holds.**  A full tree adds no node and still replays.
"""

import dataclasses
import random

import pytest

import repro.runtime.draws as draws
from repro.core.factory import SchedulerSpec
from repro.fuzz import FuzzConfig, generate_spec
from repro.harness.campaign import TrialConfig, TrialRunner, run_campaign
from repro.harness.parallel import run_campaign_parallel
from repro.harness.seeding import derive_trial_seed
from repro.litmus import ALL_LITMUS
from repro.memory.events import RLX
from repro.memory.model import resolve_model
from repro.runtime.draws import DrawRandom, DrawTree
from repro.runtime.program import Program
from repro.workloads import BENCHMARKS
from repro.workloads.registry import ProgramSpec

TRIALS = 300

PCTWM = {"depth": 2, "k_com": 12, "history": 2}
PCT = {"depth": 2, "k_events": 40}
#: One spec per registry scheduler, with small parameters so that draw
#: sequences repeat.
SCHEDULERS = {
    "pctwm": PCTWM,
    "pctwm-nodelay": PCTWM,
    "pctwm-fullbag": PCTWM,
    "pctwm-eager": PCTWM,
    "pctwm-nohistory": {"depth": 2, "k_com": 12},
    "pct": PCT,
    "ppct": PCT,
    "c11tester": {},
    "naive": {},
    "pos": {},
}

#: Every (model, scheduler) pair the models allow.
PAIRS = [(model, name) for model in ("c11", "tso") for name in SCHEDULERS
         if resolve_model(model).supports_scheduler(name)]


def _config(program, scheduler, model="c11", max_steps=2000, **kwargs):
    spec = SchedulerSpec(scheduler, SCHEDULERS.get(scheduler, {}))
    return TrialConfig(program, spec, base_seed=0x5EED, max_steps=max_steps,
                       model=model, **kwargs)


def _records(config, trials=TRIALS, budget=None, monkeypatch=None):
    """``(runner, records without elapsed_s)`` of trials 0..trials-1."""
    if budget is not None:
        monkeypatch.setattr(draws, "SLOT_BUDGET", budget)
    runner = TrialRunner(config)
    records = [dataclasses.replace(runner.run(i), elapsed_s=0.0)
               for i in range(trials)]
    if budget is not None:
        monkeypatch.undo()
    return runner, records


def _assert_replay_exact(config, monkeypatch, trials=TRIALS):
    runner, replayed = _records(config, trials)
    plain_runner, plain = _records(config, trials, 0, monkeypatch)
    assert plain_runner.replayed == 0
    assert replayed == plain
    return runner


# -- records are equal ---------------------------------------------------------


class TestRecordsAreEqual:
    @pytest.mark.parametrize("model,scheduler", PAIRS)
    @pytest.mark.parametrize("litmus", sorted(ALL_LITMUS))
    def test_litmus(self, litmus, model, scheduler, monkeypatch):
        runner = _assert_replay_exact(
            _config(ProgramSpec(litmus, "litmus"), scheduler, model),
            monkeypatch)
        if scheduler == "pos":
            assert runner.replayed == 0

    @pytest.mark.parametrize("model,scheduler", PAIRS)
    @pytest.mark.parametrize("table1", sorted(BENCHMARKS))
    def test_benchmark(self, table1, model, scheduler, monkeypatch):
        _assert_replay_exact(
            _config(ProgramSpec(table1), scheduler, model, 20000),
            monkeypatch)

    @pytest.mark.parametrize("model", ["c11", "tso"])
    def test_generated_programs(self, model, monkeypatch):
        config = FuzzConfig(allow_nonatomic=model == "tso")
        replayed = 0
        for gen_seed in range(20):
            spec = generate_spec(gen_seed, config)
            for scheduler in ("pctwm", "naive"):
                runner = _assert_replay_exact(
                    _config(spec, scheduler, model), monkeypatch)
                replayed += runner.replayed
        assert replayed > 0

    def test_replays_happen(self):
        runner, _ = _records(_config(ProgramSpec("SB", "litmus"), "pctwm"))
        assert runner.replayed > TRIALS // 4

    @pytest.mark.parametrize("model", ["c11", "tso"])
    def test_serial_equals_parallel(self, model):
        kwargs = dict(trials=TRIALS, base_seed=7, max_steps=20000,
                      model=model)
        program = ProgramSpec("dekker")
        scheduler = SchedulerSpec("pctwm", PCTWM)
        serial = run_campaign(program, scheduler, **kwargs)
        parallel = run_campaign_parallel(program, scheduler, jobs=2,
                                         **kwargs)
        for field in ("hits", "inconclusive", "total_steps",
                      "total_events", "errors", "completed"):
            assert getattr(serial, field) == getattr(parallel, field)


# -- only the outcome is replayed ------------------------------------------------


class TestEligibility:
    SB = ProgramSpec("SB", "litmus")

    def test_sanitized_trials_execute(self):
        runner, _ = _records(_config(self.SB, "pctwm", sanitize="all"))
        assert runner.replayed == 0

    def test_sampled_sanitizer_replays_only_unsanitized_trials(self):
        runner = TrialRunner(_config(self.SB, "pctwm", sanitize="sampled"))
        replayed = []
        for i in range(TRIALS):
            before = runner.replayed
            runner.run(i)
            if runner.replayed > before:
                replayed.append(i)
        assert replayed
        assert all(i % 10 for i in replayed)

    def test_artifact_campaigns_execute(self, tmp_path):
        runner, _ = _records(_config(self.SB, "pctwm",
                                     artifact_dir=str(tmp_path)))
        assert runner.replayed == 0

    def test_timeout_campaigns_execute(self):
        runner, _ = _records(_config(self.SB, "pctwm", trial_timeout_s=60.0))
        assert runner.replayed == 0

    def test_closure_factories_execute(self):
        config = TrialConfig(ALL_LITMUS["SB"], SchedulerSpec("pctwm", PCTWM))
        runner, _ = _records(config)
        assert runner.replayed == 0

    def test_continuous_runs_are_never_recorded(self):
        runner, _ = _records(_config(self.SB, "pos"))
        assert runner._tree.root is None

    def test_errored_trials_are_never_recorded(self):
        spec = ProgramSpec("crasher", "fuzz", {"plan": _CRASH_PLAN})
        runner, records = _records(_config(spec, "pctwm"))
        assert all(r.error for r in records)
        assert runner._tree.root is None and runner.replayed == 0

    def test_unbuildable_scheduler_is_contained(self):
        config = TrialConfig(self.SB, SchedulerSpec("pctwm", {"depth": -1,
                                                              "k_com": 5}))
        runner, records = _records(config, 3)
        assert all(r.error.startswith("ValueError") for r in records)
        assert runner._tree.root is None


#: A generated-program plan whose one thread fails on an unknown
#: instruction after its first store.
_CRASH_PLAN = {"name": "crasher", "locations": [["x", 0, True]],
               "threads": [[["store", "x", 1, "rlx"], ["bogus"]]]}


# -- nondeterminism is contained -------------------------------------------------


class _DriftingProgram(Program):
    """A program whose load count grows with every instantiation: each
    run gets one more reader thread, so its runs are not a function of
    the scheduler's draws.

    Every instantiation changes the arity of the first thread choice, so
    a run forced along an earlier trial's draws diverges at once.  The
    threads run six ops each, which keeps any one draw path improbable
    enough that a trial never retraces a whole earlier path (the only
    way a contract breach goes unseen).
    """

    def __init__(self):
        super().__init__("drifting")
        x = self.atomic("X", 0)

        def writer():
            for value in range(1, 7):
                yield x.store(value, RLX)

        def reader():
            for _ in range(6):
                yield x.load(RLX)

        self.add_thread(writer)
        self._reader = reader

    def instantiate(self):
        self.add_thread(self._reader)
        return super().instantiate()


class _DriftingSpec:
    """A ``supports_reuse`` factory breaking the contract it declares."""

    supports_reuse = True
    name = "drifting"

    def __call__(self):
        return _DriftingProgram()


class TestNondeterminism:
    @pytest.mark.parametrize("scheduler", ["naive", "c11tester"])
    def test_tree_dropped_and_records_match(self, scheduler, monkeypatch):
        config = _config(_DriftingSpec(), scheduler)
        runner, replayed = _records(config, 40)
        _, plain = _records(config, 40, 0, monkeypatch)
        assert runner._tree is None
        assert runner.replayed == 0
        assert replayed == plain

    def test_divergence_restores_the_plain_stream(self):
        plain = random.Random(3)
        expected = [plain.choice("ab"), plain.choice("abc"), plain.random()]
        rng = DrawRandom(3)
        first = rng.randrange(2)
        # The run takes the first forced draw, then wants another arity.
        rng.follow([(2, first), (2, 0)], [])
        assert [rng.choice("ab"), rng.choice("abc"), rng.random()] \
            == expected
        assert rng.diverged and rng.log is None

    def test_continuous_draw_inside_the_prefix_diverges(self):
        plain = random.Random(4)
        expected = plain.random()
        rng = DrawRandom(4)
        rng.follow([(2, rng.randrange(2))], [])
        assert rng.random() == expected
        assert rng.diverged and rng.continuous

    def test_conflicting_inserts_are_refused(self):
        leaf = (False, False, 5, 4)
        tree = DrawTree()
        assert tree.walk(lambda n: 0) is None
        assert tree.insert([2, 0, 3, 1], leaf)
        # The walk drew 1 at the root; a log that drew 0 is another run.
        assert tree.walk(lambda n: n - 1) is None
        assert not tree.insert([2, 0], leaf)
        # The walk stops below the second node: logs that end early or
        # draw another arity there contradict it.
        assert tree.walk(lambda n: 0) is None
        assert not tree.insert([2, 0], leaf)
        assert not tree.insert([2, 0, 2, 0], leaf)
        assert tree.insert([2, 0, 3, 0], leaf)
        assert tree.walk(lambda n: 1 if n == 3 else 0) == leaf

        # Planned logs: permutation, change points passed as (count,
        # slot), live draws as count, n, r, and the final count.
        other = (False, True, 7, 6)
        tree = DrawTree()
        tree.planned = True
        assert tree.walk(lambda n: 0, (0, 1), [(1, 0)]) is None
        assert tree.insert([(0, 1), (1, 0), 2, 2, 0, 3], leaf)
        # The walk passed (1, 0) and drew 1 at count 2: logs of another
        # permutation or another change point do not retrace it.
        assert tree.walk(lambda n: 1, (0, 1), [(1, 0)]) is None
        assert not tree.insert([(1, 0), (1, 0), 2, 2, 1, 3], leaf)
        assert not tree.insert([(0, 1), (1, 1), 2, 2, 1, 3], leaf)
        # The walk stops at an unrecorded permutation: so must the log.
        assert tree.walk(lambda n: 0, (1, 0), []) is None
        assert not tree.insert([(0, 1), 3], leaf)
        # The walk's plan had no change point, so it stops before the
        # recorded (1, 0); a run that passed (1, 0) anyway contradicts
        # the branch the walk should have taken.
        assert tree.walk(lambda n: 0, (0, 1), []) is None
        assert not tree.insert([(0, 1), (1, 0), 2, 2, 1, 3], leaf)
        # The walk's next change point is at count 2, so it stops before
        # the draw recorded at count 2; a run that drew there without
        # passing the point contradicts the recorded draw, and one that
        # ends at the stop logged nothing after it.
        keys = [(1, 0), (2, 1)]
        assert tree.walk(lambda n: 0, (0, 1), keys) is None
        assert not tree.insert([(0, 1), (1, 0), 2, 2, 0, 3], leaf)
        assert not tree.insert([(0, 1), (1, 0)], leaf)
        assert tree.insert([(0, 1), (1, 0), (2, 1), 3], other)
        assert tree.walk(lambda n: 0, (0, 1), keys) == other
        assert tree.walk(lambda n: 0, (0, 1), [(1, 0)]) == leaf

    @pytest.mark.parametrize("scheduler", ["pctwm", "pct"])
    def test_plan_for_other_threads_drops_the_tree(self, scheduler,
                                                   monkeypatch):
        config = _config(_DriftingSpec(), scheduler)
        runner, replayed = _records(config, 40)
        _, plain = _records(config, 40, 0, monkeypatch)
        assert runner._tree is None
        assert replayed == plain


# -- the draw primitives ---------------------------------------------------------


class TestDrawRandom:
    def test_unarmed_stream_matches_random(self):
        plain, drawn = random.Random(11), DrawRandom(11)
        for n in (1, 2, 3, 7, 100, 2 ** 40):
            assert plain.randrange(n) == drawn.randrange(n)
        assert plain.sample(range(50), 5) == drawn.sample(range(50), 5)
        assert plain.random() == drawn.random()
        assert drawn.continuous

    def test_walk_then_forced_prefix_matches_a_plain_run(self):
        def run(rng):
            return [rng.choice(range(4)), rng.choice(range(3)),
                    rng.sample(range(9), 2), rng.randrange(5)]

        expected = run(random.Random(5))
        rng = DrawRandom(5)
        log = []
        rng.follow((), log)
        assert run(rng) == expected
        assert log[0::2] == [4, 3, 9, 8, 5]
        tree = DrawTree()
        assert tree.walk(rng._randbelow_with_getrandbits) is None
        # Record the first two draws, then another outcome of the third:
        # the walk stops at the third.
        assert tree.insert(log[:4] + [9, (log[5] + 1) % 9],
                           (False, False, 1, 1))
        rng.seed(5)
        assert tree.walk(rng._randbelow_with_getrandbits) is None
        assert tree.forced == log[:6]
        rerun = []
        rng.follow(tree.forced, rerun)
        assert run(rng) == expected
        assert not rng.diverged and rerun == log


class TestBudget:
    def test_full_tree_adds_nothing_and_still_replays(self, monkeypatch):
        config = _config(ProgramSpec("SB", "litmus"), "pctwm")
        runner, _ = _records(config, 40)
        slots = runner._tree.slots
        assert slots and not runner._tree.full
        monkeypatch.setattr(draws, "SLOT_BUDGET", slots)
        nodes_before = _count_nodes(runner._tree.root)
        before = runner.replayed
        for i in range(40, 40 + TRIALS):
            runner.run(i)
        assert runner._tree.full
        assert runner._tree.slots == slots
        assert _count_nodes(runner._tree.root) == nodes_before
        assert runner.replayed > before

    def test_zero_budget_records_nothing(self, monkeypatch):
        runner, _ = _records(_config(ProgramSpec("MP", "litmus"), "pctwm"),
                             TRIALS, 0, monkeypatch)
        assert runner.replayed == 0 and runner._tree.slots == 0


# -- plans: replay by the change points a run reached -----------------------------


def _raw_paths(config, trials=TRIALS) -> int:
    """Distinct raw draw sequences of trials 0..trials-1: the trials a
    tree keyed on raw draws would execute."""
    model = resolve_model(config.model)
    program = config.program_factory()
    seen = set()
    for index in range(trials):
        seed = derive_trial_seed(config.base_seed, index)
        scheduler = config.scheduler_factory(seed)
        scheduler.rng = rng = DrawRandom(seed)
        log = []
        rng.follow((), log)
        model.run_once(program, scheduler, max_steps=config.max_steps,
                       keep_graph=False)
        seen.add(tuple(log))
    return len(seen)


class TestPlans:
    @pytest.mark.parametrize("model", ["c11", "tso"])
    @pytest.mark.parametrize("litmus", ["SB", "IRIW"])
    @pytest.mark.parametrize("scheduler,params", [
        ("pctwm", {"depth": 3, "k_com": 8, "history": 2}),
        ("pct", {"depth": 3, "k_events": 8}),
    ])
    def test_unfired_change_points_replay(self, litmus, model, scheduler,
                                          params, monkeypatch):
        config = TrialConfig(ProgramSpec(litmus, "litmus"),
                             SchedulerSpec(scheduler, params),
                             base_seed=0x5EED, max_steps=2000, model=model)
        runner = _assert_replay_exact(config, monkeypatch)
        executed = TRIALS - runner.replayed
        if (litmus, model) == ("IRIW", "tso"):
            # Eight priorities (threads and flush agents): permutations
            # hardly repeat, keyed either way.
            assert executed <= _raw_paths(config)
        else:
            assert executed < _raw_paths(config)

    def test_sanitized_trial_after_replays_runs_its_own_plan(
            self, monkeypatch):
        config = _config(ProgramSpec("SB", "litmus"), "pctwm",
                         sanitize="sampled")
        runner, replayed = _records(config)
        _, plain = _records(config, TRIALS, 0, monkeypatch)
        assert replayed == plain
        # Trials 1..9 replay, leaving plans drawn ahead, before 10 runs.
        fresh = TrialRunner(config)
        for index in range(1, 10):
            fresh.run(index)
        before = fresh.replayed
        assert before
        assert dataclasses.replace(fresh.run(10), elapsed_s=0.0) \
            == plain[10]
        assert fresh.replayed == before

    def test_observations_take_slots(self, monkeypatch):
        # Permutation, a change point passed, a draw of 2 at count 2, and
        # the final count: 1 + 1 + (1 + 2) + 1 slots.
        log = [(5, 4), (1, 0), 2, 2, 1, 3]
        leaf = (False, False, 3, 3)
        monkeypatch.setattr(draws, "SLOT_BUDGET", 5)
        tree = DrawTree()
        tree.planned = True
        assert tree.walk(lambda n: 0, (5, 4), [(1, 0)]) is None
        assert tree.insert(log, leaf)
        assert tree.full and tree.root is None and tree.slots == 0
        monkeypatch.setattr(draws, "SLOT_BUDGET", 6)
        tree = DrawTree()
        tree.planned = True
        assert tree.walk(lambda n: 0, (5, 4), [(1, 0)]) is None
        assert tree.insert(log, leaf)
        assert tree.slots == 6 and not tree.full
        assert tree.walk(lambda n: 1, (5, 4), [(1, 0)]) == leaf
        # A plan whose change point comes later ends the same way.
        assert tree.walk(lambda n: 1, (5, 4), []) is None


def _count_nodes(node) -> int:
    if type(node) is not list:
        return 0
    return 1 + sum(_count_nodes(child) for child in node)


# -- garbage between trials ----------------------------------------------------


class _Cycle:
    """A self-referencing object: only the cyclic collector frees it."""

    def __init__(self):
        self.me = self


def test_campaign_reclaims_young_cycles():
    """Each trial leaves a reference cycle; the campaign's generation-0
    collections keep at most one stride of them alive."""
    import gc
    import weakref

    from repro.harness.campaign import GC_COLLECT_STRIDE

    cycles = []

    def program():
        cycles.append(weakref.ref(_Cycle()))
        return ALL_LITMUS["SB"]()

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        run_campaign(program, SchedulerSpec("pctwm", PCTWM), trials=1100)
        alive = sum(ref() is not None for ref in cycles)
    finally:
        if was_enabled:
            gc.enable()
    assert len(cycles) >= 1100
    assert alive <= GC_COLLECT_STRIDE
