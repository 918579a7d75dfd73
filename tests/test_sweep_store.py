"""Sweep fabric: content-addressed result store, work-stealing shards,
crash resume, and the sweep-layer bugfix regressions."""

import json
import multiprocessing
import os
import pickle
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.core.family import SweepReport, sweep, verify_iff
from repro.core.kmds import KMdsFamily
from repro.core.maxcut import MaxCutFamily
from repro.core.mds import MdsFamily
from repro.core.steiner_approx import (
    DirectedSteinerFamily,
    NodeWeightedSteinerFamily,
)
from repro.covering.designs import build_covering_collection
from repro.experiments.sweep import SHARDS_PER_WORKER, parallel_decisions
from repro.experiments.sweep_store import (
    FamilyKey,
    SweepStore,
    atomic_write_json,
    default_cache_dir,
    default_sweep_store_dir,
    family_key,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def _grid(k_bits):
    return [(tuple(int(b) for b in format(i, f"0{k_bits}b")),
             tuple(int(b) for b in format(j, f"0{k_bits}b")))
            for i in range(1 << k_bits) for j in range(1 << k_bits)]


def _pairs(fam, n, seed=0xBEEF):
    import random

    from repro.cc.functions import random_input_pairs
    return random_input_pairs(fam.k_bits, n, random.Random(seed))


def _logs(store, fkey):
    fdir = store.family_dir(fkey)
    return sorted(f for f in os.listdir(fdir) if f.endswith(".log"))


LINE = re.compile(r"[01]{4}:[01]{4}:[01]\n")


# ----------------------------------------------------------------------
# store basics: keys, round-trip, meta
# ----------------------------------------------------------------------
class TestStoreBasics:
    def test_roundtrip_single_pair(self, tmp_path):
        store = SweepStore(str(tmp_path))
        fkey = family_key(MdsFamily(2))
        x, y = (0, 1, 0, 1), (1, 1, 0, 0)
        assert store.load_pairs(fkey) == {}
        store.store(fkey, x, y, False)
        assert store.load_pairs(fkey) == {(x, y): False}
        store.store(fkey, x, y, False)  # an agreeing repeat is served
        assert store.load_pairs(fkey) == {(x, y): False}
        assert store.lookup(fkey, x, y) is False
        store.store(fkey, x, y, True)  # disagreeing lines: not served
        assert store.load_pairs(fkey) == {}
        assert store.lookup(fkey, x, y) is None

    def test_key_distinguishes_families_not_instances(self):
        assert family_key(MdsFamily(2)) == family_key(MdsFamily(2))
        assert family_key(MdsFamily(2)) != family_key(MaxCutFamily(2))
        assert family_key(MdsFamily(2)) != family_key(MdsFamily(4))

    @pytest.mark.parametrize("cls", [DirectedSteinerFamily,
                                     NodeWeightedSteinerFamily, KMdsFamily],
                             ids=lambda cls: cls.cli_name)
    def test_key_covers_covering_collection(self, cls):
        """Regression: the directed Steiner family's collection-dependent
        arcs are all input arcs, so its skeleton is the same for every
        collection; the key must still tell two collections apart."""
        c0 = build_covering_collection(16, 6, 2, seed=0)
        c3 = build_covering_collection(16, 6, 2, seed=3)
        assert c0.sets != c3.sets
        assert family_key(cls(c0)) != family_key(cls(c3))
        assert family_key(cls(c0)) == family_key(
            cls(build_covering_collection(16, 6, 2, seed=0)))

    @pytest.mark.parametrize("cls", [DirectedSteinerFamily,
                                     NodeWeightedSteinerFamily],
                             ids=lambda cls: cls.cli_name)
    def test_key_covers_alpha(self, cls):
        """Regression: the node-weighted family's α is set only by its
        deltas; its skeleton now shows it, so the key moves with α."""
        coll = build_covering_collection(16, 6, 2, seed=0)
        assert family_key(cls(coll)) != family_key(cls(coll, alpha=5))

    def test_meta_records_readable_identity(self, tmp_path):
        store = SweepStore(str(tmp_path))
        fam = MdsFamily(2)
        fkey = family_key(fam)
        store.store(fkey, (0,) * 4, (1,) * 4, True)
        with open(os.path.join(store.family_dir(fkey), "meta.json")) as fh:
            meta = json.load(fh)
        assert meta["family"] == "MdsFamily"
        assert meta["k_bits"] == 4
        assert meta["skeleton_hash"].startswith("skel:")

    def test_existing_store_directory_still_found(self, tmp_path):
        """A key's directory is named by the SHA-256 of its fields, as it
        was before the digest was cached (pinned at commit 668200f), so a
        store written then is still read."""
        name = ("69f9492ab8c936efa60bedd09bf64045"
                "f6298358982deba9e6c4ada8ca44cc8f")
        fkey = FamilyKey("F", "skel:x", 3)
        store = SweepStore(str(tmp_path))
        assert store.family_dir(fkey) == os.path.join(str(tmp_path), name)
        os.makedirs(os.path.join(str(tmp_path), name))
        with open(os.path.join(str(tmp_path), name, "1-ab.log"), "w") as fh:
            fh.write("000:111:1\n")
        assert store.load_pairs(fkey) == {((0, 0, 0), (1, 1, 1)): True}

    def test_digest_hashed_once_per_key(self, tmp_path, monkeypatch):
        import hashlib

        from repro.experiments import sweep_store

        calls = []
        sha256 = hashlib.sha256

        def counted(*args):
            calls.append(None)
            return sha256(*args)

        fkey = FamilyKey("F", "skel:x", 3)
        monkeypatch.setattr(sweep_store.hashlib, "sha256", counted)
        store = SweepStore(str(tmp_path))
        for i in range(5):
            store.store(fkey, (0, 0, i % 2), (1, 1, 1), True)
        assert len(calls) == 1
        assert FamilyKey("F", "skel:x", 3) == fkey
        assert pickle.loads(pickle.dumps(fkey)).digest == fkey.digest

    def test_default_dir_under_cache_root(self, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", "/tmp/xdg-test")
        assert default_sweep_store_dir() == "/tmp/xdg-test/repro/sweeps"

    def test_default_cache_dir_respects_xdg(self, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", "/tmp/xdg-test")
        assert default_cache_dir() == os.path.join("/tmp/xdg-test", "repro")

    def test_failed_atomic_write_keeps_old_file_and_no_tmp(self, tmp_path):
        path = str(tmp_path / "entry.json")
        atomic_write_json(path, {"v": 1})
        with pytest.raises(TypeError):
            atomic_write_json(path, {"v": object()})  # not JSON-encodable
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == {"v": 1}
        assert not list(tmp_path.glob("*.tmp"))

    def test_clear_removes_entries_and_tmps(self, tmp_path):
        store = SweepStore(str(tmp_path))
        fkey = family_key(MdsFamily(2))
        store.store(fkey, (0,) * 4, (1,) * 4, True)
        fdir = store.family_dir(fkey)
        with open(os.path.join(fdir, "tmpdead.tmp"), "w") as fh:
            fh.write("{")
        store.clear()
        assert not os.path.exists(fdir)

    def test_legacy_json_entry_ignored_and_cleared(self, tmp_path):
        # the one-JSON-file-per-pair layout is never read: its entries
        # cost one recompute, and clear() removes them with the logs
        store = SweepStore(str(tmp_path))
        fam = MdsFamily(2)
        fkey = family_key(fam)
        x, y = (0, 1, 0, 1), (1, 1, 0, 0)
        fdir = store.family_dir(fkey)
        os.makedirs(fdir)
        legacy = os.path.join(fdir, "ab" * 32 + ".json")
        with open(legacy, "w") as fh:
            json.dump({"x": "0101", "y": "1100", "decision": True}, fh)
        assert store.load_pairs(fkey) == {}
        report = sweep(fam, [(x, y)], store=store)
        assert report.solved == 1 and report.store_hits == 0
        assert len(store.load_pairs(fkey)) == 1
        store.clear(fkey)
        assert not os.path.exists(fdir)

    def test_torn_trailing_line_ignored(self, tmp_path):
        store = SweepStore(str(tmp_path))
        fkey = family_key(MdsFamily(2))
        store.store(fkey, (0,) * 4, (1,) * 4, True)
        log = os.path.join(store.family_dir(fkey), _logs(store, fkey)[0])
        with open(log, "a") as fh:
            fh.write("1111:00")  # a killed writer's half line
        assert store.load_pairs(fkey) == {((0,) * 4, (1,) * 4): True}
        with open(log, "a") as fh:
            fh.write("\n1111:0000:1")  # complete-looking, no newline
        assert store.load_pairs(fkey) == {((0,) * 4, (1,) * 4): True}

    def test_forked_child_appends_to_its_own_log(self, tmp_path):
        store = SweepStore(str(tmp_path))
        fkey = family_key(MdsFamily(2))
        store.store(fkey, (0,) * 4, (0,) * 4, False)
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=store.store,
                            args=(fkey, (1,) * 4, (1,) * 4, True))
        child.start()
        child.join(timeout=60)
        assert child.exitcode == 0
        logs = _logs(store, fkey)
        assert {name.split("-")[0] for name in logs} == {
            str(os.getpid()), str(child.pid)}
        assert len({name.split("-")[1] for name in logs}) == 1
        for name in logs:
            with open(os.path.join(store.family_dir(fkey), name)) as fh:
                assert len(fh.readlines()) == 1
        assert store.load_pairs(fkey) == {((0,) * 4, (0,) * 4): False,
                                          ((1,) * 4, (1,) * 4): True}


# ----------------------------------------------------------------------
# batch appends: one write per batch-kernel call
# ----------------------------------------------------------------------
def _count_writes(monkeypatch):
    """Record the size of every ``os.write`` the store makes."""
    from repro.experiments import sweep_store

    writes = []
    real = os.write

    def counted(fd, data):
        writes.append(len(data))
        return real(fd, data)

    monkeypatch.setattr(sweep_store.os, "write", counted)
    return writes


class TestBatchAppend:
    def test_append_is_one_write(self, tmp_path, monkeypatch):
        store = SweepStore(str(tmp_path))
        fkey = family_key(MdsFamily(2))
        entries = [((0,) * 4, (1,) * 4, True), ((1,) * 4, (1,) * 4, True),
                   ((0,) * 4, (0,) * 4, False)]
        writes = _count_writes(monkeypatch)
        store.append(fkey, entries)
        store.append(fkey, [])  # nothing to write, no write
        assert writes == [3 * len("0000:1111:1\n")]
        assert store.load_pairs(fkey) == {(x, y): d for x, y, d in entries}

    def test_append_bytes_match_the_per_entry_format(self, tmp_path):
        """Bit sequences given as lists, bools and ints, some repeated
        in other types, log the bytes of formatting every entry on its
        own."""
        store = SweepStore(str(tmp_path))
        fkey = family_key(MdsFamily(2))
        entries = [([0, 1, 1, 0], (True, False, True, True), True),
                   ((1, 0, 1, 1), [False, True, True, False], 0),
                   ((True, False, True, True), (0, 1, 1, 0), 1),
                   ([1, 0, 1, 1], [1, 0, 1, 1], False),
                   ((0, 0, 0, 0), (False,) * 4, 1)]
        store.append(fkey, entries)

        def per_entry(bits):
            return "".join("1" if int(b) else "0" for b in bits)

        want = "".join(f"{per_entry(x)}:{per_entry(y)}:{int(bool(d))}\n"
                       for x, y, d in entries).encode()
        (log,) = _logs(store, fkey)
        with open(os.path.join(store.family_dir(fkey), log), "rb") as fh:
            assert fh.read() == want

    def test_kernel_grid_is_one_write(self, tmp_path, monkeypatch):
        store = SweepStore(str(tmp_path))
        fam = MdsFamily(2)
        writes = _count_writes(monkeypatch)
        report = sweep(fam, _grid(fam.k_bits), store=store)
        assert report.batched == 256
        assert len(writes) == 1
        assert len(store.load_pairs(family_key(fam))) == 256

    def test_per_pair_path_writes_each_decision(self, tmp_path,
                                                monkeypatch):
        store = SweepStore(str(tmp_path))
        fam = MdsFamily(2)
        pairs = _pairs(fam, 5)
        writes = _count_writes(monkeypatch)
        report = sweep(fam, pairs, store=store, batch=False)
        assert report.batched == 0
        assert len(writes) == report.solved

    def test_torn_batch_tail_skipped_and_resolved(self, tmp_path,
                                                  monkeypatch):
        """A writer killed mid-batch leaves the lines before the tear;
        the sweep serves those and re-solves the rest."""
        from repro.experiments import sweep_store

        store = SweepStore(str(tmp_path))
        fam = MdsFamily(2)
        fkey = family_key(fam)
        pairs = _grid(fam.k_bits)[:8]
        want = sweep(MdsFamily(2), pairs).decisions
        real = os.write
        line = len("0000:0000:0\n")
        monkeypatch.setattr(sweep_store.os, "write",
                            lambda fd, data: real(fd, data[:3 * line + 5]))
        sweep(fam, pairs, store=store)
        monkeypatch.undo()
        assert store.load_pairs(fkey) == {
            (tuple(x), tuple(y)): d
            for (x, y), d in zip(pairs[:3], want[:3])}
        resumed = sweep(MdsFamily(2), pairs, store=store)
        assert resumed.decisions == want
        assert resumed.store_hits == 3 and resumed.solved == 5

    def test_conflicting_pair_in_a_batch_is_resolved(self, tmp_path):
        store = SweepStore(str(tmp_path))
        fam = MdsFamily(2)
        fkey = family_key(fam)
        pairs = _grid(fam.k_bits)[:6]
        want = sweep(MdsFamily(2), pairs).decisions
        entries = [(x, y, d) for (x, y), d in zip(pairs, want)]
        x, y, d = entries[2]
        store.append(fkey, entries + [(x, y, not d)])
        report = sweep(fam, pairs, store=store)
        assert report.decisions == want
        assert report.store_hits == 5 and report.solved == 1
        # the re-solved decision is appended once more; the pair stays
        # in conflict, so it is never served
        assert (x, y) not in store.load_pairs(fkey)


# ----------------------------------------------------------------------
# sweep() integration: restore, persist, report counters
# ----------------------------------------------------------------------
class TestSweepWithStore:
    def test_serial_grid_writes_one_log(self, tmp_path):
        # a guard against per-pair files: one writer, one log
        store = SweepStore(str(tmp_path))
        fam = MdsFamily(2)
        sweep(fam, _grid(fam.k_bits), store=store)
        fdir = store.family_dir(family_key(fam))
        names = sorted(os.listdir(fdir))
        assert len(names) == 2 and names[1] == "meta.json"
        assert names[0].startswith(f"{os.getpid()}-")
        with open(os.path.join(fdir, names[0])) as fh:
            lines = fh.readlines()
        assert len(lines) == 256 and all(LINE.fullmatch(l) for l in lines)

    def test_repeat_sweep_is_pure_restore(self, tmp_path):
        store = SweepStore(str(tmp_path))
        fam = MdsFamily(2)
        pairs = _grid(fam.k_bits)
        first = sweep(fam, pairs, store=store)
        assert first.solved == 256 and first.store_hits == 0
        fresh = MdsFamily(2)  # no memo, decisions must come from disk
        second = sweep(fresh, pairs, store=store)
        assert second.decisions == first.decisions
        assert second.store_hits == 256 and second.solved == 0
        assert second.unique_pairs == 256

    def test_solved_distinguishes_fresh_from_restored(self, tmp_path):
        # regression: solved was hardwired to the unique-pair count even
        # when every decision was restored from the store
        store = SweepStore(str(tmp_path))
        fam = MdsFamily(2)
        pairs = _pairs(fam, 6)
        sweep(fam, pairs[:3], store=store)
        report = sweep(MdsFamily(2), pairs, store=store)
        assert report.store_hits == 3
        assert report.solved == len(report.decisions) - 3 == 3
        assert report.unique_pairs == 6
        assert "store hits" in str(report)
        # no store, no store_hits: the legacy report shape is unchanged
        plain = sweep(MdsFamily(2), pairs)
        assert plain.store_hits == 0 and plain.solved == plain.unique_pairs
        assert "store hits" not in str(plain)

    def test_corrupt_entry_degrades_to_recompute(self, tmp_path):
        store = SweepStore(str(tmp_path))
        fam = MdsFamily(2)
        pairs = _pairs(fam, 5)
        first = sweep(fam, pairs, store=store)
        fkey = family_key(fam)
        stored = len(store.load_pairs(fkey))
        log = os.path.join(store.family_dir(fkey), _logs(store, fkey)[0])
        with open(log) as fh:
            lines = fh.readlines()
        # cut short, wrong shape, not a decision at all
        for i, junk in enumerate(("01", "0101:1:1", "not a line")):
            lines[i] = junk + "\n"
        with open(log, "w") as fh:
            fh.writelines(lines)
        report = sweep(MdsFamily(2), pairs, store=SweepStore(str(tmp_path)))
        assert report.decisions == first.decisions
        assert report.solved == 3 and report.store_hits == stored - 3
        # the re-solved decisions were appended again
        assert len(store.load_pairs(fkey)) == stored
        assert sweep(MdsFamily(2), pairs, store=store).store_hits == \
            report.unique_pairs

    def test_unwritable_store_degrades_to_memory_only(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file where the store dir should be")
        store = SweepStore(str(target))
        fam = MdsFamily(2)
        pairs = _pairs(fam, 3)
        report = sweep(fam, pairs, store=store)
        assert report.solved == len({(tuple(x), tuple(y))
                                     for x, y in pairs})
        assert report.decisions == sweep(MdsFamily(2), pairs).decisions

    def test_parallel_sweep_persists_through_workers(self, tmp_path):
        store = SweepStore(str(tmp_path))
        fam = MdsFamily(2)
        pairs = _grid(fam.k_bits)[:64]
        report = sweep(fam, pairs, jobs=2, store=store)
        assert report.solved == 64
        assert len(store.load_pairs(family_key(fam))) == 64
        resumed = sweep(MdsFamily(2), pairs, store=store)
        assert resumed.store_hits == 64
        assert resumed.decisions == report.decisions

    def test_verify_iff_accepts_store(self, tmp_path):
        store = SweepStore(str(tmp_path))
        fam = MdsFamily(2)
        pairs = _pairs(fam, 4)
        report = verify_iff(fam, pairs, negate=True, store=store)
        assert report.checked == 4
        assert len(store.load_pairs(family_key(fam))) == len(
            {(tuple(x), tuple(y)) for x, y in pairs})

    def test_configured_default_store(self, tmp_path):
        from repro.core.family import configure_sweep
        configure_sweep(store_dir=str(tmp_path))
        try:
            fam = MdsFamily(2)
            pairs = _pairs(fam, 3)
            sweep(fam, pairs)
            assert SweepStore(str(tmp_path)).load_pairs(family_key(fam))
        finally:
            configure_sweep(store_dir=None)
        report = sweep(MdsFamily(2), pairs)  # store off again
        assert report.store_hits == 0


# ----------------------------------------------------------------------
# the shard scheduler and its regressions
# ----------------------------------------------------------------------
PARENT_PID = os.getpid()


class CrashInWorkers(MdsFamily):
    """Predicate hard-kills any process that is not the test parent."""

    def predicate(self, graph):
        if os.getpid() != PARENT_PID:
            os._exit(17)
        return super().predicate(graph)


class HangInWorkers(MdsFamily):
    """Predicate wedges any process that is not the test parent."""

    def predicate(self, graph):
        if os.getpid() != PARENT_PID:
            time.sleep(600)
        return super().predicate(graph)


class TestShardScheduler:
    def test_empty_pairs_returns_empty(self):
        # regression: len(pairs)==0 divided by zero before the pool
        assert parallel_decisions(MdsFamily(2), [], 4) == []

    def test_nonpositive_jobs_clamped(self):
        # regression: jobs<=0 divided by zero in the chunk computation
        fam = MdsFamily(2)
        pairs = [(tuple(p[0]), tuple(p[1])) for p in _pairs(fam, 3)]
        want = [fam.predicate(fam.build(x, y)) for x, y in pairs]
        for jobs in (0, -3):
            assert parallel_decisions(MdsFamily(2), pairs, jobs) == want

    def test_shards_are_smaller_than_static_chunks(self):
        fam = MdsFamily(2)
        pairs = _grid(fam.k_bits)
        jobs = 4
        static_chunk = (len(pairs) + jobs - 1) // jobs
        shard = max(1, -(-len(pairs) // (jobs * SHARDS_PER_WORKER)))
        assert shard * SHARDS_PER_WORKER <= static_chunk + SHARDS_PER_WORKER

    def test_matches_serial_decisions(self):
        fam = MdsFamily(2)
        pairs = [(tuple(p[0]), tuple(p[1])) for p in _pairs(fam, 9)]
        want = [fam.predicate(fam.build(x, y)) for x, y in pairs]
        assert parallel_decisions(MdsFamily(2), pairs, 3) == want

    def test_worker_death_healed_by_parent(self):
        fam = CrashInWorkers(2)
        pairs = [(tuple(p[0]), tuple(p[1])) for p in _pairs(fam, 5)]
        want = [MdsFamily(2).predicate(MdsFamily(2).build(x, y))
                for x, y in pairs]
        got = parallel_decisions(fam, pairs, 2, retries=0)
        assert got == want

    def test_timeout_healed_by_parent(self):
        fam = HangInWorkers(2)
        pairs = [(tuple(p[0]), tuple(p[1])) for p in _pairs(fam, 4)]
        want = [MdsFamily(2).predicate(MdsFamily(2).build(x, y))
                for x, y in pairs]
        start = time.monotonic()
        got = parallel_decisions(fam, pairs, 2, timeout=0.5)
        assert got == want
        assert time.monotonic() - start < 120  # wedged workers torn down

    def test_unpicklable_family_still_returns_none(self):
        class Local(MdsFamily):
            pass

        assert parallel_decisions(Local(2), _pairs(Local(2), 3), 2) is None


# ----------------------------------------------------------------------
# fan-out payload size is sweep-history independent
# ----------------------------------------------------------------------
class TestPickleStripsSweepState:
    def test_blob_size_history_independent(self):
        # regression: sweep() shipped the accumulated _sweep_memo and the
        # warmed skeleton inside every worker payload
        fam = MdsFamily(2)
        before = len(pickle.dumps(fam))
        sweep(fam, _grid(fam.k_bits))
        fam.skeleton()
        assert len(fam._sweep_memo) == 256
        assert len(pickle.dumps(fam)) == before

    def test_unpickled_family_rebuilds_cleanly(self):
        fam = MdsFamily(2)
        pairs = _pairs(fam, 3)
        want = sweep(fam, pairs).decisions
        clone = pickle.loads(pickle.dumps(fam))
        assert not hasattr(clone, "_sweep_memo")
        assert not hasattr(clone, "_skeleton_store")
        assert sweep(clone, pairs).decisions == want


# ----------------------------------------------------------------------
# concurrency: parallel writers on the same key
# ----------------------------------------------------------------------
def _hammer_store(root, fkey_tuple, decision, reps):
    store = SweepStore(root)
    fkey = FamilyKey(*fkey_tuple)
    for __ in range(reps):
        store.store(fkey, (0, 1, 0, 1), (1, 0, 1, 0), decision)


def _run_writers(root, fkey, decisions):
    ctx = multiprocessing.get_context("fork")
    writers = [ctx.Process(target=_hammer_store,
                           args=(root, fkey.as_tuple(), decision, 50))
               for decision in decisions]
    for proc in writers:
        proc.start()
    for proc in writers:
        proc.join(timeout=60)
        assert proc.exitcode == 0


class TestConcurrentWriters:
    def test_same_key_conflicting_writers_not_served(self, tmp_path):
        fam = MdsFamily(2)
        fkey = family_key(fam)
        key = ((0, 1, 0, 1), (1, 0, 1, 0))
        _run_writers(str(tmp_path), fkey, (False, True))
        store = SweepStore(str(tmp_path))
        # never torn: every line of both writers' logs decodes
        logs = _logs(store, fkey)
        assert len(logs) == 2
        lines = []
        for name in logs:
            with open(os.path.join(store.family_dir(fkey), name)) as fh:
                lines += fh.readlines()
        assert len(lines) == 100 and all(LINE.fullmatch(l) for l in lines)
        # the writers disagree, so the pair is re-solved, not served
        assert store.load_pairs(fkey) == {}
        report = sweep(fam, [key], store=store)
        assert report.solved == 1 and report.store_hits == 0
        assert report.decisions == [fam.predicate(fam.build_scratch(*key))]

    def test_same_key_agreeing_writers_served(self, tmp_path):
        fkey = family_key(MdsFamily(2))
        _run_writers(str(tmp_path), fkey, (True, True))
        assert SweepStore(str(tmp_path)).load_pairs(fkey) == {
            ((0, 1, 0, 1), (1, 0, 1, 0)): True}


# ----------------------------------------------------------------------
# kill-resume: a campaign killed mid-grid resumes with zero recompute
# ----------------------------------------------------------------------
KILL_RESUME_SCRIPT = """
import sys, time
sys.path.insert(0, {src!r})
from repro.core.mds import MdsFamily

_orig = MdsFamily.predicate
def slow(self, graph):
    time.sleep(0.02)  # stretch the grid so the parent can kill mid-way
    return _orig(self, graph)
MdsFamily.predicate = slow

from repro.core.family import sweep
from repro.experiments.sweep_store import SweepStore

fam = MdsFamily(2)
kb = fam.k_bits
pairs = [(tuple(int(b) for b in format(i, "0%db" % kb)),
          tuple(int(b) for b in format(j, "0%db" % kb)))
         for i in range(1 << kb) for j in range(1 << kb)]
# batch=False: the batched kernel bypasses the slowed predicate
sweep(fam, pairs, store=SweepStore({store!r}), batch=False)
"""


class TestKillResume:
    def test_killed_grid_sweep_resumes_without_recompute(self, tmp_path,
                                                         monkeypatch):
        store_dir = str(tmp_path / "store")
        proc = subprocess.Popen(
            [sys.executable, "-c",
             KILL_RESUME_SCRIPT.format(src=SRC, store=store_dir)])
        fkey = family_key(MdsFamily(2))
        probe = SweepStore(store_dir)
        deadline = time.monotonic() + 60
        try:
            while time.monotonic() < deadline:
                if len(probe.load_pairs(fkey)) >= 8:
                    break
                if proc.poll() is not None:
                    pytest.fail("sweep subprocess finished before the kill")
                time.sleep(0.01)
            else:
                pytest.fail("store never accumulated 8 entries")
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

        stored = SweepStore(store_dir).load_pairs(fkey)
        assert 0 < len(stored) < 256  # genuinely mid-grid
        # one write per decision: every surviving line decodes

        calls = []
        orig = MdsFamily.predicate
        monkeypatch.setattr(
            MdsFamily, "predicate",
            lambda self, graph: (calls.append(1), orig(self, graph))[1])
        # batch=False: the call counter above only sees per-pair
        # predicate() solves, which the batched kernel bypasses
        report = sweep(MdsFamily(2), _grid(4), store=SweepStore(store_dir),
                       batch=False)
        assert report.store_hits == len(stored)
        assert report.solved == 256 - len(stored)
        assert len(calls) == 256 - len(stored)  # zero stored-key recompute
        assert report.unique_pairs == 256

        # converged: a third pass is pure restore
        final = sweep(MdsFamily(2), _grid(4), store=SweepStore(store_dir))
        assert final.store_hits == 256 and final.solved == 0
        assert final.decisions == report.decisions


# ----------------------------------------------------------------------
# the standing check and the CLI grid mode
# ----------------------------------------------------------------------
class TestCheckAndCli:
    def test_store_equivalence_check_green(self):
        from repro.check.sweep_check import check_sweep_store
        assert check_sweep_store(0, 0) is None
        assert check_sweep_store(0, 1) is None

    def test_store_equivalence_registered(self):
        from repro.check import CHECKS
        assert any(c.name == "sweep:store-equivalence" for c in CHECKS)

    def test_cli_grid_first_and_resumed(self, tmp_path, capsys):
        from repro.cli import main
        store = str(tmp_path / "grid-store")
        main(["verify", "mds", "-k", "2", "--grid", "--store-dir", store])
        out = capsys.readouterr().out
        assert "coverage before: 0/256 stored, 256 remaining" in out
        assert "256 freshly solved" in out
        assert "iff-lemma over the full grid" in out
        main(["verify", "mds", "-k", "2", "--grid", "--store-dir", store,
              "--expect-store-hits", "90"])
        out = capsys.readouterr().out
        assert "coverage before: 256/256 stored, 0 remaining" in out
        assert "store hits: 256/256 (100.0%)" in out

    def test_cli_grid_gate_fails_on_cold_store(self, tmp_path, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["verify", "mds", "-k", "2", "--grid",
                  "--store-dir", str(tmp_path / "cold"),
                  "--expect-store-hits", "90"])
        assert "below the required" in str(exc.value)

    def test_cli_grid_rejects_single_pair_flags(self, tmp_path):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["verify", "mds", "-k", "2", "--grid",
                  "--store-dir", str(tmp_path), "--x", "0000",
                  "--y", "0000"])
