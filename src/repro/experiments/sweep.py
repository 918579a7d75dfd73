"""Work-stealing fan-out for predicate sweeps
(:func:`repro.core.family.sweep`).

The sweep engine hands us a family instance and its list of *unique*
undecided (x, y) pairs; we pickle the family once (sweep-local caches
are stripped by ``DeltaBuildMixin.__getstate__``, so the payload size
is independent of sweep history), split the pairs into many small
*shards* (:func:`split_shards`), and let ``jobs`` lanes drain the shard
queue through the one scheduler, :func:`repro.experiments.parallel.
drain`.  Small shards are the work-stealing part: a worker that lands a
pathological instance keeps only its own shard busy while the other
lanes take the rest of the queue, so one slow pair cannot serialize the
batch the way static ``len(pairs)/jobs`` chunking did.

This module says only how to submit a shard and what to do when one
fails: the parent decides it serially (:func:`_decide_serial`).  So a
shard that raises re-raises in the caller's frame as a serial sweep
would; a shard whose lane keeps dying (beyond ``retries``) or that
exceeds ``timeout`` is decided by the parent while only its own lane is
respawned.  ``None`` — an unpicklable family (transform wrappers hold
lambdas), or no worker process can start — sends the caller to the
serial loop.  Fan-out is an optimisation, never a correctness concern.
The persistent warm pool (:mod:`repro.experiments.warm_pool`) shares
:func:`split_shards` and :func:`_decide_serial` with this cold path.

When a :class:`repro.experiments.sweep_store.SweepStore` is passed,
every worker persists each decision as soon as it exists (to a log of
the worker's own, so concurrent forks never share a file: one append
per batch-kernel call, one per per-pair solve), so a campaign killed
mid-grid resumes from the last completed pair instead of from zero.
"""

from __future__ import annotations

import pickle
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.parallel import drain, open_lanes

Bits = Tuple[int, ...]

#: shards per worker: small enough that a pathological pair strands at
#: most ``1/(jobs · this)`` of the batch on one worker, large enough
#: that per-shard dispatch overhead stays negligible.
SHARDS_PER_WORKER = 4


def _decide_serial(family, pairs: Sequence[Tuple[Bits, Bits]],
                   store=None, fkey=None, batch: bool = True,
                   timings: Optional[Dict[Tuple[Bits, Bits], float]] = None,
                   counters: Optional[Dict[str, int]] = None) -> List[bool]:
    """Decide ``pairs`` in this process, persisting each decision as
    soon as it exists (the crash-resume property of the serial path).

    With ``batch`` on (the default), the family's batched decision
    kernel (:meth:`repro.core.family.DeltaBuildMixin.decide_batch`) is
    consulted first; pairs it answers skip the per-pair
    ``predicate(build(x, y))`` path entirely, and are stored with one
    append, since all of them are decided before any is stored.  Each
    per-pair decision is stored as it lands.  This is the single
    integration point for batching: the serial sweep, the cold fork
    shards (:func:`_decide_shard`), and every parent-side mop-up
    fallback all pass through here.
    """
    batched: Dict[Tuple[Bits, Bits], bool] = {}
    if batch and pairs:
        decide_batch = getattr(family, "decide_batch", None)
        if decide_batch is not None:
            try:
                batched = decide_batch(None, pairs, timings=timings) or {}
            except NotImplementedError:
                batched = {}
    keys = [(tuple(x), tuple(y)) for x, y in pairs]
    if store is not None and batched:
        store.append(fkey, [(x, y, batched[key])
                            for (x, y), key in zip(pairs, keys)
                            if key in batched])
    decisions: List[bool] = []
    for (x, y), key in zip(pairs, keys):
        if key in batched:
            decision = batched[key]
            if counters is not None:
                counters["batched"] += 1
        else:
            t0 = time.perf_counter()
            decision = family.predicate(family.build(x, y))
            if timings is not None:
                timings[key] = time.perf_counter() - t0
            if store is not None:
                store.store(fkey, x, y, decision)
        decisions.append(decision)
    return decisions


def _decide_counted(family, pairs: Sequence[Tuple[Bits, Bits]], store,
                    fkey, batch: bool) -> Tuple[List[bool], int]:
    """:func:`_decide_serial` plus how many of ``pairs`` its batch
    kernel answered."""
    counters = {"batched": 0}
    decisions = _decide_serial(family, pairs, store=store, fkey=fkey,
                               batch=batch, counters=counters)
    return decisions, counters["batched"]


def _decide_shard(payload: Tuple[bytes, List[Tuple[Bits, Bits]],
                                 Optional[str], Optional[tuple], bool],
                  ) -> Tuple[List[bool], int]:
    """Worker entry point: decide one shard, streaming decisions into
    the store (when configured) as they complete.  Returns the
    decisions and how many the batch kernel answered."""
    blob, shard, store_root, fkey_tuple, batch = payload
    family = pickle.loads(blob)
    store = fkey = None
    if store_root is not None and fkey_tuple is not None:
        from repro.experiments.sweep_store import FamilyKey, SweepStore
        store = SweepStore(store_root)
        fkey = FamilyKey(*fkey_tuple)
    return _decide_counted(family, shard, store, fkey, batch)


def split_shards(pairs: Sequence[Tuple[Bits, Bits]],
                 jobs: int) -> List[List[Tuple[Bits, Bits]]]:
    """Split ``pairs`` into about ``jobs * SHARDS_PER_WORKER`` shards."""
    size = max(1, -(-len(pairs) // (jobs * SHARDS_PER_WORKER)))
    return [list(pairs[i:i + size]) for i in range(0, len(pairs), size)]


def parallel_decisions(
    family,
    pairs: Sequence[Tuple[Bits, Bits]],
    jobs: int,
    timeout: Optional[float] = None,
    retries: int = 1,
    store=None,
    fkey=None,
    batch: bool = True,
    counters: Optional[Dict[str, int]] = None,
) -> Optional[List[bool]]:
    """Decide ``pairs`` over ``jobs`` fresh lanes, in request order.

    Returns ``None`` only when fan-out is impossible from the start
    (unpicklable family, no worker process can start) so the caller can
    run serially.  Once any shard has run, a shard that fails on its
    lane is decided serially by the parent, and a complete decision
    list is returned.  ``counters["batched"]`` (when given) grows by
    the pairs the batch kernel answered, in the lanes or the parent.
    """
    if not pairs:
        return []
    jobs = max(1, min(int(jobs), len(pairs)))
    try:
        blob = pickle.dumps(family)
    except Exception:
        return None
    shards = split_shards(pairs, jobs)
    store_root = getattr(store, "root", None) if store is not None else None
    fkey_tuple = fkey.as_tuple() if fkey is not None else None
    with open_lanes(jobs) as lanes:
        results = drain(
            lanes, shards,
            lambda lane, part: lane.executor.submit(
                _decide_shard, (blob, part, store_root, fkey_tuple, batch)),
            # a shard that raised, hung or kept killing its lane: the
            # parent decides it, so a predicate error raises in the
            # caller's frame exactly like a serial sweep would
            lambda idx, kind, detail: _decide_counted(
                family, shards[idx], store, fkey, batch),
            timeout=timeout, retries=retries)
    if results is None:
        return None
    if counters is not None:
        counters["batched"] += sum(batched for __, batched in results)
    return [decision for part, __ in results for decision in part]
