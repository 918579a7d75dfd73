"""Differential check: stored sweep decisions ≡ fresh scratch decisions.

The sweep fabric persists predicate decisions in a content-addressed
:class:`repro.experiments.sweep_store.SweepStore`; an exhaustive
campaign then trusts restored entries without re-solving them.  This
check pins that trust on seeded families: decisions written through the
store, decisions restored by a *fresh* family instance, and
from-scratch reference decisions (``build_scratch``, no memo, no store)
must all agree.  Torn and malformed log lines must be skipped, and a
pair whose stored lines disagree must be re-solved — a damaged store
degrades to a recompute that still agrees, never to a wrong answer or a
crash.

The same pairs are also swept with ``jobs=2``, which goes through the
persistent warm worker pool: pool-decided sweeps must match scratch
bit-for-bit, and the decisions workers persist to the store must
restore identically in a later serial sweep — pinning serial ≡
warm-pool.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from typing import Optional


def check_sweep_store(seed: int, index: int) -> Optional[str]:
    """Fuzz the store round-trip on a seeded family; None means OK."""
    from repro.cc.functions import random_input_pairs
    from repro.core.family import sweep
    from repro.core.maxcut import MaxCutFamily
    from repro.core.mds import MdsFamily
    from repro.experiments.sweep_store import SweepStore, family_key

    rng = random.Random(f"repro-sweep-store:{seed}:{index}")
    make = MdsFamily if index % 2 == 0 else MaxCutFamily
    tmp = tempfile.mkdtemp(prefix="repro-sweep-check-")
    try:
        store = SweepStore(tmp)
        fam = make(2)
        pairs = random_input_pairs(fam.k_bits, 6, rng)
        first = sweep(fam, pairs, store=store)

        # ground truth: scratch builds, no memoization, no store
        scratch = [fam.predicate(fam.build_scratch(x, y)) for x, y in pairs]
        if first.decisions != scratch:
            return (f"{make.__name__}: store-path decisions "
                    f"{first.decisions} != scratch decisions {scratch}")

        # a fresh instance must restore every unique pair from disk
        fresh = make(2)
        second = sweep(fresh, pairs, store=store)
        if second.decisions != scratch:
            return (f"{make.__name__}: restored decisions "
                    f"{second.decisions} != scratch decisions {scratch}")
        if second.store_hits != second.unique_pairs or second.solved != 0:
            return (f"{make.__name__}: expected a pure-restore sweep, "
                    f"got {second}")

        # warm-pool leg: decisions decided *inside pool workers* and
        # persisted by them must agree with scratch and restore cleanly.
        # When this check itself runs inside a fan-out worker (the
        # harness's --jobs mode) the leg degrades to jobs=1 — forking a
        # nested pool from a pool worker is exactly what the warm pool
        # refuses to do, and the cold scheduler must not do it either.
        import multiprocessing

        in_main = multiprocessing.current_process().name == "MainProcess"
        warm_tmp = tempfile.mkdtemp(prefix="repro-sweep-check-warm-")
        try:
            warm_store = SweepStore(warm_tmp)
            warm = sweep(make(2), pairs, store=warm_store,
                         jobs=2 if in_main else 1)
            if warm.decisions != scratch:
                return (f"{make.__name__}: warm-pool decisions "
                        f"{warm.decisions} != scratch decisions {scratch}")
            replay = sweep(make(2), pairs, store=warm_store)
            if replay.decisions != scratch:
                return (f"{make.__name__}: replay of worker-persisted "
                        f"decisions {replay.decisions} != scratch "
                        f"decisions {scratch}")
            if replay.solved != 0:
                return (f"{make.__name__}: worker-persisted store was "
                        f"incomplete, replay re-solved {replay.solved} "
                        f"pairs: {replay}")
        finally:
            shutil.rmtree(warm_tmp, ignore_errors=True)

        # damage the logs: torn and malformed lines must be skipped, and
        # a pair whose lines disagree must be re-solved, never served
        fkey = family_key(fresh)
        fdir = store.family_dir(fkey)
        keys = list(dict.fromkeys((tuple(x), tuple(y)) for x, y in pairs))
        truth = dict(zip(((tuple(x), tuple(y)) for x, y in pairs), scratch))

        def line(key, decision):
            bits = ["".join(map(str, b)) for b in key]
            return f"{bits[0]}:{bits[1]}:{int(decision)}"

        # each junk line would flip a stored decision if it were read
        bad = line(keys[-1], not truth[keys[-1]])
        log = sorted(f for f in os.listdir(fdir) if f.endswith(".log"))[0]
        with open(os.path.join(fdir, log), "a", encoding="utf-8") as fh:
            for junk in (bad + "0", bad + ":1", bad[1:], "0" + bad):
                fh.write(junk + "\n")
            fh.write(bad)  # torn: no trailing newline
        third = sweep(make(2), pairs, store=SweepStore(tmp))
        if third.decisions != scratch:
            return (f"{make.__name__}: decisions after torn and malformed "
                    f"log lines {third.decisions} != scratch decisions "
                    f"{scratch}")
        if third.solved + third.store_hits != third.unique_pairs:
            return (f"{make.__name__}: torn-line sweep counters "
                    f"inconsistent: {third}")
        if third.solved != 0:
            return (f"{make.__name__}: a torn or malformed log line was "
                    f"read as a decision, {third.solved} pairs re-solved")

        with open(os.path.join(fdir, "conflict.log"), "w",
                  encoding="utf-8") as fh:
            fh.write(line(keys[0], not truth[keys[0]]) + "\n")
        if keys[0] in SweepStore(tmp).load_pairs(fkey):
            return (f"{make.__name__}: pair {keys[0]} with conflicting "
                    f"log lines was served")
        fourth = sweep(make(2), pairs, store=SweepStore(tmp))
        if fourth.decisions != scratch:
            return (f"{make.__name__}: decisions after a conflicting log "
                    f"line {fourth.decisions} != scratch decisions "
                    f"{scratch}")
        if fourth.solved != 1 or fourth.store_hits != len(keys) - 1:
            return (f"{make.__name__}: the conflicting pair must be the "
                    f"only one re-solved, got {fourth}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return None
