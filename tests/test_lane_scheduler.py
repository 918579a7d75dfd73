"""The lane scheduler (``repro.experiments.parallel.drain``) on toy tasks.

Every process pool in the package — experiments, cold and warm sweep
shards, ``run_check`` chunks — goes through this one function, so its
failure semantics are pinned here once: bounded resubmission of a dead
lane's task, exact blame, per-lane timeouts, exceptions handed back to
the caller, ``None`` only when nothing could start, and request order.
"""

import os
import random
import time
from collections import Counter

import pytest

from repro.cc.functions import random_input_pairs
from repro.check import harness
from repro.check.harness import Check, run_check
from repro.core.maxcut import MaxCutFamily
from repro.core.mds import MdsFamily
from repro.experiments import warm_pool
from repro.experiments.parallel import (
    CRASH,
    ERROR,
    TIMEOUT,
    LaneMiss,
    drain,
    open_lanes,
)

PARENT_PID = os.getpid()


def _square(x):
    return x * x


def _task(spec):
    """A toy task: ``("ok", x)``, ``("die", x)``, ``("hang", x)``,
    ``("raise", x)`` or ``("miss", x)``."""
    kind, x = spec
    if kind == "die":
        os._exit(17)
    if kind == "hang":
        time.sleep(60)
    if kind == "raise":
        raise ValueError(f"injected failure {x}")
    if kind == "miss":
        raise LaneMiss(x)
    return _square(x)


class Recorder:
    """``submit`` and ``fallback`` callbacks that count what they saw."""

    def __init__(self, tasks):
        self.tasks = tasks
        self.submits = Counter()
        self.fallbacks = {}

    def submit(self, lane, spec):
        self.submits[self.tasks.index(spec)] += 1
        return lane.executor.submit(_task, spec)

    def fallback(self, idx, kind, detail):
        self.fallbacks[idx] = (kind, detail)
        return ("fallback", kind)

    def run(self, lanes, **kwargs):
        return drain(lanes, self.tasks, self.submit, self.fallback, **kwargs)


class TestOrderAndSuccess:
    def test_results_in_request_order(self):
        tasks = [("ok", x) for x in range(7)]
        rec = Recorder(tasks)
        with open_lanes(2) as lanes:
            assert rec.run(lanes) == [x * x for x in range(7)]
        assert all(n == 1 for n in rec.submits.values())
        assert rec.fallbacks == {}

    def test_no_tasks_gives_empty_list(self):
        assert drain([], [], None, None) == []


class TestLaneDeath:
    @pytest.mark.parametrize("retries", [0, 1, 2])
    def test_dead_task_resubmitted_at_most_retries_times(self, retries):
        tasks = [("die", 0), ("ok", 3)]
        rec = Recorder(tasks)
        with open_lanes(2) as lanes:
            got = rec.run(lanes, retries=retries)
            assert sum(lane.respawns for lane in lanes) == 1 + retries
        assert got == [("fallback", CRASH), 9]
        assert rec.submits[0] == 1 + retries
        kind, detail = rec.fallbacks[0]
        assert kind == CRASH and "worker process died" in detail

    def test_corunner_on_another_lane_submitted_once(self):
        tasks = [("die", 0), ("ok", 2), ("ok", 3), ("ok", 4)]
        rec = Recorder(tasks)
        with open_lanes(2) as lanes:
            got = rec.run(lanes, retries=1)
        assert got == [("fallback", CRASH), 4, 9, 16]
        assert rec.submits[0] == 2
        assert [rec.submits[i] for i in (1, 2, 3)] == [1, 1, 1]
        assert list(rec.fallbacks) == [0]

    def test_miss_counts_as_an_attempt(self):
        tasks = [("miss", 0), ("ok", 5)]
        rec = Recorder(tasks)
        with open_lanes(2) as lanes:
            got = rec.run(lanes, retries=1)
        assert got == [("fallback", CRASH), 25]
        assert rec.submits[0] == 2
        assert "lost its state" in rec.fallbacks[0][1]


class TestTimeout:
    def test_timeout_respawns_only_the_wedged_lane(self):
        tasks = [("hang", 0), ("ok", 2), ("ok", 3)]
        rec = Recorder(tasks)
        start = time.monotonic()
        with open_lanes(2) as lanes:
            got = rec.run(lanes, timeout=1.0)
            respawns = [lane.respawns for lane in lanes]
        assert time.monotonic() - start < 30
        assert got == [("fallback", TIMEOUT), 4, 9]
        assert respawns == [1, 0]
        assert rec.submits[0] == 1  # a timeout is never resubmitted


class TestException:
    def test_exception_reaches_the_caller(self):
        tasks = [("raise", 7), ("ok", 1)]
        rec = Recorder(tasks)
        with open_lanes(2) as lanes:
            got = rec.run(lanes)
            assert [lane.respawns for lane in lanes] == [0, 0]
        assert got == [("fallback", ERROR), 1]
        kind, detail = rec.fallbacks[0]
        assert "ValueError: injected failure 7" in detail
        assert rec.submits[0] == 1

    def test_fallback_may_raise_in_the_caller(self):
        def reraise(idx, kind, detail):
            raise RuntimeError(detail)

        with open_lanes(1) as lanes:
            with pytest.raises(RuntimeError, match="injected failure"):
                drain(lanes, [("raise", 1)],
                      lambda lane, spec: lane.executor.submit(_task, spec),
                      reraise)


class TestNoUsableLane:
    def test_no_lanes_gives_none(self):
        rec = Recorder([("ok", 1)])
        assert rec.run([]) is None
        assert rec.fallbacks == {}

    def test_lanes_that_cannot_start_give_none(self):
        def refuse(lane, spec):
            raise RuntimeError("no fork here")

        with open_lanes(2) as lanes:
            assert drain(lanes, [("ok", 1), ("ok", 2)], refuse,
                         lambda *a: pytest.fail("fallback called")) is None
            assert [lane.respawns for lane in lanes] == [1, 1]


def _die_in_first_case(case):
    if os.getpid() != PARENT_PID and case.index == 0:
        os._exit(17)
    return None


class TestRunCheckFanOut:
    def test_dead_chunk_worker_is_a_harness_failure(self, monkeypatch):
        check = Check(name="die-in-worker", kind="invariant",
                      run=_die_in_first_case, applies=lambda case: True)
        monkeypatch.setattr(harness, "CHECKS", [check])
        report = run_check(seed=0, cases=4, family="er", jobs=2,
                           do_shrink=False)
        assert [f.check for f in report.failures] == ["harness"]
        failure = report.failures[0]
        assert "CRASH" in failure.detail
        assert "('er', 0)" in failure.case_name
        # the other chunk ran normally, on its own lane
        assert report.check_counts == {"die-in-worker": 2}


class TestWarmLaneMiss:
    def test_evicted_family_is_rebroadcast(self, monkeypatch):
        # a one-family worker LRU: sweeping B evicts A from the lane's
        # worker while the parent still lists A as loaded there
        monkeypatch.setattr(warm_pool, "MAX_WARM_FAMILIES", 1)
        warm_pool.shutdown_pool()
        try:
            rng = random.Random(0)
            pairs = [(tuple(x), tuple(y))
                     for x, y in random_input_pairs(4, 3, rng)]
            want = {}
            for make in (MdsFamily, MaxCutFamily):
                fam = make(2)
                want[make] = [fam.predicate(fam.build(x, y))
                              for x, y in pairs]
            for make in (MdsFamily, MaxCutFamily, MdsFamily):
                got = warm_pool.pool_decisions(make(2), pairs, 1)
                assert got == want[make]
            stats = warm_pool.pool_stats()
            assert stats["lane_respawns"] == 1  # the miss, once
            assert stats["broadcasts"] == 3
        finally:
            warm_pool.shutdown_pool()
