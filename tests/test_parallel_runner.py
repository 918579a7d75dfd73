"""Parallel experiment runner: determinism, crash isolation, timeouts."""

import os
import time

import pytest

from repro.experiments import (
    EXPERIMENTS,
    ExperimentRecord,
    records_equivalent,
    run_all,
    run_parallel,
    strip_wallclock,
)

# a cheap but representative slice of the registry
SAMPLE_IDS = [
    "E-F1-T2.1-mds",
    "E-base-mvc",
    "E-T2.5-two-ecss",
    "E-T1.1-simulation",
    "E-congest-local-separation",
]


@pytest.fixture
def scratch_experiments():
    """Register throwaway experiments; always unregister them after."""
    registered = []

    def register(experiment_id, fn):
        EXPERIMENTS[experiment_id] = fn
        registered.append(experiment_id)

    yield register
    for experiment_id in registered:
        EXPERIMENTS.pop(experiment_id, None)


def _ok_experiment(quick=True):
    return ExperimentRecord(experiment_id="E-test-ok", paper_claim="claim",
                            measured={"x": 1})


def _crash_experiment(quick=True):
    os._exit(17)  # hard death: bypasses the worker's exception handler


def _raise_experiment(quick=True):
    raise ValueError("injected failure")


def _sleep_experiment(quick=True):
    time.sleep(30)
    return ExperimentRecord(experiment_id="E-test-sleep", paper_claim="slow")


class TestDeterminism:
    def test_parallel_matches_serial(self):
        serial = run_all(quick=True, only=SAMPLE_IDS)
        parallel = run_all(quick=True, only=SAMPLE_IDS, jobs=2)
        assert [r.experiment_id for r in parallel] == SAMPLE_IDS
        for a, b in zip(serial, parallel):
            assert records_equivalent(a, b), (a, b)

    def test_profile_fields_are_the_only_tolerated_difference(self):
        serial = run_all(quick=True, only=SAMPLE_IDS[:2], profile=True)
        parallel = run_all(quick=True, only=SAMPLE_IDS[:2], profile=True,
                           jobs=2)
        for a, b in zip(serial, parallel):
            assert "solver_profile" in a.measured
            assert records_equivalent(a, b)
            assert "solver_profile" not in strip_wallclock(a).measured

    def test_unknown_id_raises_before_spawning(self):
        with pytest.raises(KeyError):
            run_parallel(["E-nonexistent"], jobs=2)

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            run_parallel(SAMPLE_IDS[:1], jobs=0)


class TestCrashIsolation:
    def test_worker_exception_becomes_fail_record(self, scratch_experiments):
        scratch_experiments("E-test-raise", _raise_experiment)
        scratch_experiments("E-test-ok", _ok_experiment)
        records = run_parallel(["E-test-raise", "E-test-ok"], jobs=2)
        assert [r.experiment_id for r in records] == [
            "E-test-raise", "E-test-ok"]
        assert not records[0].passed
        assert "EXCEPTION" in records[0].notes
        assert "injected failure" in records[0].notes
        assert records[1].passed

    def test_dead_worker_does_not_kill_the_batch(self, scratch_experiments):
        scratch_experiments("E-test-crash", _crash_experiment)
        scratch_experiments("E-test-ok", _ok_experiment)
        records = run_parallel(["E-test-ok", "E-test-crash"], jobs=2,
                               retries=1)
        by_id = {r.experiment_id: r for r in records}
        assert by_id["E-test-ok"].passed
        crash = by_id["E-test-crash"]
        assert not crash.passed
        assert "CRASH" in crash.notes

    def test_innocent_corunners_survive_a_crash(self, scratch_experiments):
        scratch_experiments("E-test-crash", _crash_experiment)
        ids = ["E-test-crash"] + SAMPLE_IDS[:3]
        records = run_parallel(ids, jobs=2, retries=1)
        assert [r.experiment_id for r in records] == ids
        assert not records[0].passed
        serial = run_all(quick=True, only=SAMPLE_IDS[:3])
        for expected, got in zip(serial, records[1:]):
            assert records_equivalent(expected, got), (expected, got)

    def test_timeout_fails_only_the_slow_experiment(self, scratch_experiments):
        scratch_experiments("E-test-sleep", _sleep_experiment)
        scratch_experiments("E-test-ok", _ok_experiment)
        start = time.monotonic()
        records = run_parallel(["E-test-sleep", "E-test-ok"], jobs=2,
                               timeout=2.0, retries=1)
        elapsed = time.monotonic() - start
        assert elapsed < 20, "timeout did not interrupt the sleeping worker"
        by_id = {r.experiment_id: r for r in records}
        assert not by_id["E-test-sleep"].passed
        assert "TIMEOUT" in by_id["E-test-sleep"].notes
        assert by_id["E-test-ok"].passed


class TestRowEscaping:
    def test_pipe_in_parameter_stays_in_one_cell(self):
        record = ExperimentRecord(
            experiment_id="E-test-escape",
            paper_claim="bound",
            parameters={"formula": "K | Ecut", "lines": "a\nb"},
            measured={"value": 3},
        )
        row = record.as_row()
        # 6 structural pipes exactly: the payload ones must be escaped
        assert row.count("|") - row.count("\\|") == 6
        assert "K \\| Ecut" in row
        assert "\n" not in row
        assert "a<br>b" in row

    def test_plain_rows_unchanged(self):
        record = ExperimentRecord(experiment_id="E-x", paper_claim="c",
                                  parameters={"n": 4}, measured={"m": 5})
        assert record.as_row() == "| E-x | c | n=4 | m=5 | PASS |"
