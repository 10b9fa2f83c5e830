"""Unit tests for happens-before data-race detection."""

import pytest

from repro.memory.events import ACQ, EventKind, Label, NA, REL, RLX, Event
from repro.memory.races import DataRace, RaceDetector
from repro.runtime import Program, run_once
from repro.runtime.ops import CasOp, LoadOp
from repro.runtime.scheduler import Scheduler
from repro import ACQ as ACQ2  # noqa: F401  (public re-export sanity)


def event(uid, tid, kind, loc="X", order=RLX, clock=()):
    e = Event(uid=uid, tid=tid, label=Label(kind, order, loc))
    e.clock = clock
    return e


def na_write(uid, tid, clock, loc="X"):
    return event(uid, tid, EventKind.WRITE, loc, NA, clock)


def na_read(uid, tid, clock, loc="X"):
    return event(uid, tid, EventKind.READ, loc, NA, clock)


class TestRaceDetection:
    def test_concurrent_na_writes_race(self):
        det = RaceDetector()
        assert det.on_access(na_write(1, 0, (1, 0))) is None
        race = det.on_access(na_write(2, 1, (0, 1)))
        assert isinstance(race, DataRace)
        assert race.loc == "X"
        assert det.racy

    def test_write_read_race(self):
        det = RaceDetector()
        det.on_access(na_write(1, 0, (1, 0)))
        assert det.on_access(na_read(2, 1, (0, 1))) is not None

    def test_read_read_never_races(self):
        det = RaceDetector()
        det.on_access(na_read(1, 0, (1, 0)))
        assert det.on_access(na_read(2, 1, (0, 1))) is None
        assert not det.racy

    def test_happens_before_orders_accesses(self):
        det = RaceDetector()
        det.on_access(na_write(1, 0, (1, 0)))
        # Thread 1 joined thread 0's clock (e.g. release/acquire sync).
        assert det.on_access(na_write(2, 1, (1, 1))) is None
        assert not det.racy

    def test_same_thread_never_races(self):
        det = RaceDetector()
        det.on_access(na_write(1, 0, (1, 0)))
        assert det.on_access(na_write(2, 0, (2, 0))) is None

    def test_atomic_atomic_never_races(self):
        det = RaceDetector()
        det.on_access(event(1, 0, EventKind.WRITE, order=RLX, clock=(1, 0)))
        assert det.on_access(
            event(2, 1, EventKind.WRITE, order=RLX, clock=(0, 1))
        ) is None

    def test_atomic_vs_na_races(self):
        det = RaceDetector()
        det.on_access(event(1, 0, EventKind.WRITE, order=REL, clock=(1, 0)))
        assert det.on_access(na_write(2, 1, (0, 1))) is not None

    def test_different_locations_never_race(self):
        det = RaceDetector()
        det.on_access(na_write(1, 0, (1, 0), loc="X"))
        assert det.on_access(na_write(2, 1, (0, 1), loc="Y")) is None

    def test_fences_ignored(self):
        det = RaceDetector()
        fence = event(1, 0, EventKind.FENCE, loc=None, order=ACQ,
                      clock=(1, 0))
        assert det.on_access(fence) is None

    def test_races_accumulate(self):
        det = RaceDetector()
        det.on_access(na_write(1, 0, (1, 0)))
        det.on_access(na_write(2, 1, (0, 1)))
        det.on_access(na_write(3, 2, (0, 0, 1)))
        assert len(det.races) >= 2

    def test_race_reports_execution_order(self):
        det = RaceDetector()
        first = na_write(1, 0, (1, 0))
        second = na_write(2, 1, (0, 1))
        det.on_access(first)
        race = det.on_access(second)
        assert race.first is first and race.second is second


class TestExecutorRaceChecks:
    """The executor records every access through ``on_access``."""

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_failed_cas_is_a_read(self, engine):
        # A failed CAS degenerates to a read, so an unordered non-atomic
        # read of its location is a read-read pair: no race.
        class LowestTid(Scheduler):
            def choose_thread(self, state):
                return min(state.enabled_tids())

        p = Program("failed-cas-then-na-read")
        p.atomic("X", 0)

        def cas():
            yield CasOp("X", 99, 1, RLX, RLX)

        def reader():
            yield LoadOp("X", NA)

        p.add_thread(cas)
        p.add_thread(reader)
        result = run_once(p, LowestTid(seed=0), engine=engine)
        assert result.races == []
