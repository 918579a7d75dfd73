"""Persistent warm worker pool: equivalence, broadcast economy, healing.

The pool is an optimisation layered on the sweep/experiment fabric, so
every test here pins an equivalence (warm ≡ cold ≡ serial) or a pool
lifecycle contract: skeleton re-broadcast only on ``FamilyKey`` change,
worker death healing that preserves innocent lanes' warmth, payload
budget, and run_all record identity.
"""

import os
import random
import time

import pytest

from repro.cc.functions import random_input_pairs
from repro.core.family import sweep
from repro.core.maxcut import MaxCutFamily
from repro.core.mds import MdsFamily
from repro.experiments import warm_pool
from repro.experiments.sweep import parallel_decisions
from repro.experiments.warm_pool import (
    _pack_pairs,
    _unpack_pairs,
    pool_decisions,
    pool_stats,
    shutdown_pool,
)

PARENT_PID = os.getpid()


@pytest.fixture(autouse=True)
def fresh_pool():
    """Each test starts and ends without a live pool (and therefore with
    zeroed stats), so counter assertions cannot bleed across tests."""
    shutdown_pool()
    yield
    shutdown_pool()


def _pairs(fam, n, seed=0):
    rng = random.Random(f"warm-pool:{seed}")
    return [(tuple(x), tuple(y))
            for x, y in random_input_pairs(fam.k_bits, n, rng)]


def _serial_decisions(make, pairs):
    fam = make(2)
    return [fam.predicate(fam.build(x, y)) for x, y in pairs]


class CrashKernelInWorkers(MdsFamily):
    """The batch kernel hard-kills any process that is not the test
    parent."""

    def decide_batch(self, skeleton, pairs, **kwargs):
        if os.getpid() != PARENT_PID:
            os._exit(17)
        return super().decide_batch(skeleton, pairs, **kwargs)


class CrashOnceInWorkers(MdsFamily):
    """Predicate hard-kills the first worker process that decides the
    trigger pair; later attempts (and the parent) decide normally."""

    def __init__(self, k_bits, flag_path):
        super().__init__(k_bits)
        self.flag_path = flag_path

    def predicate(self, graph):
        if os.getpid() != PARENT_PID:
            # O_EXCL makes the claim atomic, so exactly one lane dies
            # even when both reach the trigger pair at once
            try:
                fd = os.open(self.flag_path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pass
            else:
                os.write(fd, str(os.getpid()).encode())
                os.close(fd)
                os._exit(17)
        return super().predicate(graph)


class HangInWorkers(MdsFamily):
    """Predicate wedges any process that is not the test parent."""

    def predicate(self, graph):
        if os.getpid() != PARENT_PID:
            time.sleep(600)
        return super().predicate(graph)


class TestPackedPairs:
    @pytest.mark.parametrize("k_bits", [1, 2, 7, 8, 9, 16, 20])
    def test_roundtrip(self, k_bits):
        rng = random.Random(k_bits)
        pairs = [(tuple(rng.randrange(2) for __ in range(k_bits)),
                  tuple(rng.randrange(2) for __ in range(k_bits)))
                 for __ in range(17)]
        packed = _pack_pairs(pairs, k_bits)
        assert _unpack_pairs(packed, k_bits) == pairs
        width = max(1, (k_bits + 7) // 8)
        assert len(packed) == 2 * width * len(pairs)

    def test_empty(self):
        assert _unpack_pairs(_pack_pairs([], 4), 4) == []


class TestEquivalence:
    def test_warm_matches_serial_and_cold(self):
        pairs = _pairs(MdsFamily(2), 9)
        want = _serial_decisions(MdsFamily, pairs)
        cold = parallel_decisions(MdsFamily(2), pairs, 2)
        warm = pool_decisions(MdsFamily(2), pairs, 2)
        assert cold == want
        assert warm == want

    def test_warm_across_repeated_sweeps(self):
        # fresh family instances, same FamilyKey: later sweeps are
        # served from hot worker memos yet stay identical
        pairs = _pairs(MdsFamily(2), 8, seed=1)
        want = _serial_decisions(MdsFamily, pairs)
        for __ in range(3):
            report = sweep(MdsFamily(2), pairs, jobs=2)
            assert report.decisions == want
        assert pool_stats()["warm_hits"] > 0

    def test_sweep_report_counters_match_serial(self):
        pairs = _pairs(MdsFamily(2), 10, seed=2)
        serial = sweep(MdsFamily(2), pairs, jobs=1)
        warm = sweep(MdsFamily(2), pairs, jobs=2)
        assert warm.decisions == serial.decisions
        assert (warm.pairs, warm.unique_pairs, warm.memo_hits,
                warm.solved) == (serial.pairs, serial.unique_pairs,
                                 serial.memo_hits, serial.solved)


class TestBroadcastProtocol:
    def test_rebroadcast_only_on_family_key_change(self):
        pairs = _pairs(MdsFamily(2), 6, seed=3)
        sweep(MdsFamily(2), pairs, jobs=2)
        after_first = pool_stats()["broadcasts"]
        assert after_first == pool_stats()["lanes"]

        # same FamilyKey (fresh instance): no new broadcast
        sweep(MdsFamily(2), pairs, jobs=2)
        assert pool_stats()["broadcasts"] == after_first

        # different FamilyKey: one broadcast per lane that decides it
        other = MaxCutFamily(2)
        sweep(other, _pairs(other, 6, seed=3), jobs=2)
        assert pool_stats()["broadcasts"] > after_first

    def test_payload_budget(self):
        # the fixed per-pair byte budget of a steady-state shard; needs
        # grid-sized shards so per-shard headers amortize
        from itertools import product

        k = MdsFamily(2).k_bits
        grid = [(x, y) for x in product((0, 1), repeat=k)
                for y in product((0, 1), repeat=k)]
        sweep(MdsFamily(2), grid, jobs=2)
        sweep(MdsFamily(2), grid, jobs=2)
        stats = pool_stats()
        assert stats["pairs_shipped"] > 0
        per_pair = stats["pair_payload_bytes"] / stats["pairs_shipped"]
        assert per_pair <= 8.0, f"{per_pair:.1f} B/pair over budget"

    def test_broadcast_bytes_are_counted(self):
        pairs = _pairs(MdsFamily(2), 6, seed=5)
        sweep(MdsFamily(2), pairs, jobs=2)
        assert pool_stats()["broadcast_bytes"] > 0


class TestFailureSemantics:
    def test_worker_death_heals_and_keeps_innocent_warmth(self, tmp_path):
        # prime both lanes with an innocent family
        pairs = _pairs(MdsFamily(2), 10, seed=6)
        want = _serial_decisions(MdsFamily, pairs)
        sweep(MdsFamily(2), pairs, jobs=2)
        primed = pool_stats()["broadcasts"]

        # one worker hard-dies mid-campaign; decisions still correct
        crash = CrashOnceInWorkers(2, str(tmp_path / "crashed"))
        got = pool_decisions(crash, pairs, 2, retries=1)
        assert got == want
        stats = pool_stats()
        assert stats["lane_respawns"] >= 1

        # the innocent lane kept its warmed copy: re-sweeping the first
        # family re-broadcasts only to the respawned lane(s)
        before = pool_stats()["broadcasts"]
        report = sweep(MdsFamily(2), pairs, jobs=2)
        assert report.decisions == want
        rebroadcasts = pool_stats()["broadcasts"] - before
        assert rebroadcasts < pool_stats()["lanes"], (
            f"all {pool_stats()['lanes']} lanes were re-broadcast — "
            f"innocent warmth was lost (primed={primed})")

    def test_timeout_decided_by_parent(self):
        fam = HangInWorkers(2)
        pairs = _pairs(fam, 4, seed=7)
        want = _serial_decisions(MdsFamily, pairs)
        start = time.monotonic()
        got = pool_decisions(fam, pairs, 2, timeout=0.5)
        assert got == want
        assert time.monotonic() - start < 120  # wedged lanes torn down
        assert pool_stats()["lane_respawns"] >= 1

    def test_parent_decided_shards_count_kernel_pairs(self):
        # every lane dies in the kernel, so the parent decides each
        # shard, and its kernel answers still reach the counter
        fam = CrashKernelInWorkers(2)
        pairs = _pairs(fam, 12, seed=8)
        want = _serial_decisions(MdsFamily, pairs)
        for decide in (pool_decisions, parallel_decisions):
            counters = {"batched": 0}
            assert decide(fam, pairs, 2, retries=0,
                          counters=counters) == want
            assert counters["batched"] == len(pairs)

    def test_unpicklable_family_returns_none(self):
        class Local(MdsFamily):
            pass

        fam = Local(2)
        assert pool_decisions(fam, _pairs(fam, 3), 2) is None


class TestExperimentRuns:
    SAMPLE = ["E-F1-T2.1-mds", "E-base-mvc"]

    def test_run_matches_run_parallel(self):
        from repro.experiments import records_equivalent, run_all

        serial = run_all(quick=True, only=self.SAMPLE)
        warm = run_all(quick=True, only=self.SAMPLE, jobs=2)
        assert [r.experiment_id for r in warm] == self.SAMPLE
        for a, b in zip(serial, warm):
            assert records_equivalent(a, b), (a, b)
        assert pool_stats()["experiments"] == len(self.SAMPLE)

    def test_pool_survives_across_run_all_calls(self):
        from repro.experiments import run_all

        run_all(quick=True, only=self.SAMPLE, jobs=2)
        respawns = pool_stats()["lane_respawns"]
        run_all(quick=True, only=self.SAMPLE, jobs=2)
        stats = pool_stats()
        assert stats["experiments"] == 2 * len(self.SAMPLE)
        # same registry: the second call reused the forked lanes
        assert stats["lane_respawns"] == respawns

    def test_registry_change_respawns_lanes(self):
        from repro.experiments import ExperimentRecord, run_all
        from repro.experiments.runner import EXPERIMENTS

        run_all(quick=True, only=self.SAMPLE, jobs=2)
        before = pool_stats()["lane_respawns"]

        def _scratch(quick=True):
            return ExperimentRecord(experiment_id="E-test-warm-scratch",
                                    paper_claim="claim", measured={"x": 1})

        EXPERIMENTS["E-test-warm-scratch"] = _scratch
        try:
            records = run_all(quick=True,
                              only=self.SAMPLE + ["E-test-warm-scratch"],
                              jobs=2)
            assert [r.experiment_id for r in records][-1] == \
                "E-test-warm-scratch"
            assert all(r.passed for r in records)
            assert pool_stats()["lane_respawns"] > before
        finally:
            EXPERIMENTS.pop("E-test-warm-scratch", None)
