"""Work-stealing fork fan-out for predicate sweeps
(:func:`repro.core.family.sweep`).

The sweep engine hands us a family instance and its list of *unique*
undecided (x, y) pairs; we pickle the family once (sweep-local caches
are stripped by ``DeltaBuildMixin.__getstate__``, so the payload size
is independent of sweep history), split the pairs into many small
*shards*, and let ``jobs`` fork workers drain the shard queue.  Small
shards are the work-stealing part: a worker that lands a pathological
instance keeps only its own shard busy while the others steal the rest
of the queue, so one slow pair can no longer serialize the batch the
way static ``len(pairs)/jobs`` chunking did.

Failure semantics follow the PR 2 parallel runner:

- a worker that *raises* re-raises in the parent (by re-deciding the
  shard serially there — a serial sweep would have raised the same
  error);
- a worker that *dies* (hard crash, OOM kill) breaks the pool; the
  suspect shard is retried in a fresh pool up to ``retries`` times and
  then decided serially by the parent, while innocent co-runners are
  requeued for free;
- a shard that exceeds ``timeout`` seconds of wall clock is decided
  serially by the parent and its wedged worker is terminated.

Anything that prevents fan-out entirely — an unpicklable family
(transform wrappers hold lambdas), a daemonic parent process (nested
pools), pool setup failure before any shard ran — returns ``None`` and
the caller falls back to the serial loop.  Fan-out is an optimisation,
never a correctness concern.

When a :class:`repro.experiments.sweep_store.SweepStore` is passed,
every worker persists each decision the moment it is made (one
append to a log of the worker's own, so concurrent forks never share a
file), so a campaign killed mid-grid resumes from the last completed
pair instead of from zero.
"""

from __future__ import annotations

import pickle
import time
from collections import deque
from concurrent import futures
from concurrent.futures import process as futures_process
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.parallel import _mp_context, _terminate

Bits = Tuple[int, ...]

#: shards per worker: small enough that a pathological pair strands at
#: most ``1/(jobs · this)`` of the batch on one worker, large enough
#: that per-shard dispatch overhead stays negligible.
SHARDS_PER_WORKER = 4


def _decide_serial(family, pairs: Sequence[Tuple[Bits, Bits]],
                   store=None, fkey=None, batch: bool = True,
                   timings: Optional[Dict[Tuple[Bits, Bits], float]] = None,
                   counters: Optional[Dict[str, int]] = None) -> List[bool]:
    """Decide ``pairs`` in this process, persisting each decision as it
    lands (the crash-resume property of the serial path).

    With ``batch`` on (the default), the family's batched decision
    kernel (:meth:`repro.core.family.DeltaBuildMixin.decide_batch`) is
    consulted first; pairs it answers skip the per-pair
    ``predicate(build(x, y))`` path entirely.  This is the single
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
    decisions: List[bool] = []
    for x, y in pairs:
        key = (tuple(x), tuple(y))
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


def _decide_shard(payload: Tuple[bytes, List[Tuple[Bits, Bits]],
                                 Optional[str], Optional[tuple], bool],
                  ) -> List[bool]:
    """Worker entry point: decide one shard, streaming decisions into
    the store (when configured) as they complete."""
    blob, shard, store_root, fkey_tuple, batch = payload
    family = pickle.loads(blob)
    store = fkey = None
    if store_root is not None and fkey_tuple is not None:
        from repro.experiments.sweep_store import FamilyKey, SweepStore
        store = SweepStore(store_root)
        fkey = FamilyKey(*fkey_tuple)
    return _decide_serial(family, shard, store=store, fkey=fkey, batch=batch)


def parallel_decisions(
    family,
    pairs: Sequence[Tuple[Bits, Bits]],
    jobs: int,
    timeout: Optional[float] = None,
    retries: int = 1,
    store=None,
    fkey=None,
    batch: bool = True,
) -> Optional[List[bool]]:
    """Decide ``pairs`` over ``jobs`` fork workers, in request order.

    Returns ``None`` only when fan-out is impossible from the start
    (unpicklable family, nested pool, pool construction failure) so the
    caller can run serially.  Once any shard has run, shard-level
    failures are healed internally — retried in a fresh pool or decided
    serially by the parent — and a complete decision list is returned.
    """
    if not pairs:
        return []
    jobs = max(1, min(int(jobs), len(pairs)))
    try:
        blob = pickle.dumps(family)
    except Exception:
        return None
    shard_size = max(1, -(-len(pairs) // (jobs * SHARDS_PER_WORKER)))
    shards = [list(pairs[i:i + shard_size])
              for i in range(0, len(pairs), shard_size)]
    store_root = getattr(store, "root", None) if store is not None else None
    fkey_tuple = fkey.as_tuple() if fkey is not None else None
    payloads = [(blob, shard, store_root, fkey_tuple, batch)
                for shard in shards]

    ctx = _mp_context()
    results: Dict[int, List[bool]] = {}
    pending: deque = deque(range(len(shards)))
    attempts: Dict[int, int] = {}
    started = False
    while pending:
        try:
            executor = futures.ProcessPoolExecutor(max_workers=jobs,
                                                   mp_context=ctx)
        except Exception:
            # daemonic nesting, no fork support — if nothing ever ran,
            # let the caller take the serial path wholesale; otherwise
            # the parent mops up what is left below
            if not started:
                return None
            break
        inflight: Dict[Any, Tuple[int, Optional[float]]] = {}
        suspects: List[int] = []
        broken = False
        try:
            while (pending or inflight) and not broken:
                while pending and len(inflight) < jobs:
                    idx = pending.popleft()
                    try:
                        fut = executor.submit(_decide_shard, payloads[idx])
                    except Exception:
                        pending.appendleft(idx)
                        broken = True
                        break
                    started = True
                    deadline = (None if timeout is None
                                else time.monotonic() + timeout)
                    inflight[fut] = (idx, deadline)
                if broken or not inflight:
                    break
                deadlines = [d for __, d in inflight.values()
                             if d is not None]
                wait_for = (max(0.0, min(deadlines) - time.monotonic())
                            if deadlines else None)
                done, __ = futures.wait(set(inflight), timeout=wait_for,
                                        return_when=futures.FIRST_COMPLETED)
                if not done:
                    now = time.monotonic()
                    expired = [f for f, (__, d) in inflight.items()
                               if d is not None and d <= now]
                    if not expired:
                        continue
                    # pathological shards: the parent decides them while
                    # the wedged workers are torn down (co-runners are
                    # requeued in the finally block)
                    for fut in expired:
                        idx, __ = inflight.pop(fut)
                        results[idx] = _decide_serial(family, shards[idx],
                                                      store, fkey, batch)
                    broken = True
                    continue
                for fut in done:
                    idx, __ = inflight.pop(fut)
                    try:
                        results[idx] = fut.result()
                    except (futures_process.BrokenProcessPool,
                            futures.BrokenExecutor):
                        suspects.append(idx)
                        broken = True
                    except futures.CancelledError:
                        pending.appendleft(idx)
                    except Exception:
                        # an ordinary exception from the predicate:
                        # re-decide here so it raises in the caller's
                        # frame exactly like a serial sweep would
                        results[idx] = _decide_serial(family, shards[idx],
                                                      store, fkey, batch)
        finally:
            for fut, (idx, __) in inflight.items():
                if idx not in results and idx not in suspects:
                    pending.appendleft(idx)
            _terminate(executor)
        for idx in suspects:
            attempts[idx] = attempts.get(idx, 0) + 1
            if attempts[idx] > max(0, retries):
                results[idx] = _decide_serial(family, shards[idx],
                                              store, fkey, batch)
            else:
                pending.appendleft(idx)

    while pending:  # pool died mid-run and could not be rebuilt
        idx = pending.popleft()
        if idx not in results:
            results[idx] = _decide_serial(family, shards[idx], store, fkey,
                                          batch)

    decisions: List[bool] = []
    for idx in range(len(shards)):
        decisions.extend(results[idx])
    return decisions
