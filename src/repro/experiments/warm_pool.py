"""Persistent warm worker pool for the sweep/experiment fabric.

The cold fan-out paths (:mod:`repro.experiments.sweep`,
:mod:`repro.experiments.parallel`) build a throwaway
``ProcessPoolExecutor`` per call and pickle the full family into every
payload, so each campaign re-forks, re-imports, and re-warms skeleton,
kernel, and solver caches from nothing.  This module keeps a pool of
*lanes* — single-worker executors — alive across ``sweep()`` /
``run_all()`` calls:

- **one broadcast per (lane, FamilyKey)** — the pickled family (caches
  stripped) plus its warmed skeleton as compact wire bytes
  (:func:`repro.graphs.graph_to_bytes`), shipped through
  ``multiprocessing.shared_memory`` when available with an inline-bytes
  fallback.  The worker rebuilds the skeleton once, re-warms its
  derived caches, and keeps the family (and its sweep memo) hot;
- **tiny steady-state payloads** — after the broadcast, each shard
  ships only the ``(x, y)`` bit tuples plus a digest string, an
  order of magnitude below the cold path's family-blob-per-shard;
- **PR 2 / PR 8 failure semantics, per lane** — a shard that *raises*
  is re-decided serially in the parent (as a serial sweep would have
  raised); a lane whose worker *dies* is respawned and the suspect
  shard retried up to ``retries`` times before the parent decides it
  serially; a shard past its ``timeout`` is decided by the parent while
  its wedged lane is killed and respawned.  Because each lane is its
  own pool, innocent lanes keep both their tasks *and their warmth*;
- **deterministic record order** — results are reassembled by shard
  index exactly like the cold scheduler, so warm ≡ cold ≡ serial.

Experiment runs (:func:`run_experiments`) reuse the same lanes (and the
same worker processes, so solver caches stay warm across ``run_all``
calls) with the PR 2 record semantics: TIMEOUT/CRASH/EXCEPTION FAIL
records, bounded retries for pool-breakers, request-order reports.
Lanes are respawned when the experiment registry changed since they
were forked, so runtime-registered experiments behave as under the cold
runner.

Anything that prevents warm fan-out (daemonic parent, unpicklable
family, pool construction failure) returns ``None`` and the caller
falls back to the cold path — the pool is an optimisation, never a
correctness concern.  :func:`pool_stats` (surfaced as
``repro.obs.warm_pool_stats``) exposes the broadcast/payload/warm-hit
counters the ``payload-budget`` CI gate asserts on.
"""

from __future__ import annotations

import atexit
import multiprocessing
import pickle
import time
import traceback
from collections import OrderedDict, deque
from concurrent import futures
from concurrent.futures import process as futures_process
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.experiments.parallel import (
    _crash_record,
    _error_record,
    _mp_context,
    _run_isolated,
    _terminate,
    _timeout_record,
    _worker,
)

Bits = Tuple[int, ...]

#: shards per lane — same work-stealing granularity as the cold
#: scheduler (:data:`repro.experiments.sweep.SHARDS_PER_WORKER`).
SHARDS_PER_WORKER = 4

#: skeleton blobs at least this large go through a shared-memory
#: segment; smaller ones ride inline (segment setup would cost more
#: than the copy it saves).
SHM_MIN_BYTES = 512

#: per-worker LRU bound on warmed families, so a long session sweeping
#: many distinct FamilyKeys cannot grow worker memory without bound.
MAX_WARM_FAMILIES = 8


# ----------------------------------------------------------------------
# worker side: per-process warmed state
# ----------------------------------------------------------------------
#: digest → (warmed family instance, FamilyKey tuple), LRU-ordered.
#: Lives in the *worker* process; one entry per broadcast — steady-state
#: shard payloads carry only the digest, not the family identity.
_WARM_FAMILIES: "OrderedDict[str, Tuple[Any, tuple]]" = OrderedDict()

#: store root → SweepStore, so workers reopen each store once.
_WARM_STORES: Dict[str, Any] = {}


def _pack_pairs(pairs: Sequence[Tuple[Bits, Bits]], k_bits: int) -> bytes:
    """Encode ``(x, y)`` bit-tuple pairs as fixed-width big-endian
    integers — the only thing a steady-state shard ships per pair."""
    width = max(1, (k_bits + 7) >> 3)
    out = bytearray()
    for x, y in pairs:
        for bits in (x, y):
            value = 0
            for b in bits:
                value = (value << 1) | (1 if b else 0)
            out += value.to_bytes(width, "big")
    return bytes(out)


def _unpack_pairs(data: bytes, k_bits: int) -> List[Tuple[Bits, Bits]]:
    width = max(1, (k_bits + 7) >> 3)
    pairs: List[Tuple[Bits, Bits]] = []
    step = 2 * width
    for off in range(0, len(data), step):
        halves = []
        for ho in (off, off + width):
            value = int.from_bytes(data[ho:ho + width], "big")
            halves.append(tuple((value >> (k_bits - 1 - i)) & 1
                                for i in range(k_bits)))
        pairs.append((halves[0], halves[1]))
    return pairs


def _read_shm(spec: Tuple[str, int]) -> Optional[bytes]:
    """Copy ``size`` bytes out of the named shared-memory segment, or
    None when shared memory is unusable here (caller falls back to the
    inline bytes)."""
    name, size = spec
    try:
        from multiprocessing import shared_memory
        seg = shared_memory.SharedMemory(name=name)
    except Exception:
        return None
    try:
        return bytes(seg.buf[:size])
    finally:
        # no unregister here: fork workers share the parent's resource
        # tracker, so the attach-registration (bpo-39959) collapses into
        # the parent's own entry, which the parent's unlink() clears —
        # an extra unregister would KeyError inside the tracker.  Spawn
        # platforms never reach this path (see _make_segment).
        seg.close()


def _load_family(digest: str, blob: bytes, fkey_tuple: tuple,
                 shm_spec: Optional[Tuple[str, int]],
                 skel_bytes: Optional[bytes]) -> bool:
    """Worker entry point: install one warmed family under ``digest``.

    The skeleton arrives as wire bytes (shared memory preferred, inline
    fallback); families without the skeleton/delta protocol ship none
    and simply warm up on first build.
    """
    if digest in _WARM_FAMILIES:
        _WARM_FAMILIES.move_to_end(digest)
        return True
    family = pickle.loads(blob)
    data = skel_bytes
    if shm_spec is not None:
        data = _read_shm(shm_spec)
        if data is None:
            data = skel_bytes
    if data is not None:
        from repro.core.family import _warm_graph_caches
        from repro.graphs import graph_from_bytes
        skeleton = graph_from_bytes(data)
        _warm_graph_caches(skeleton)
        family._skeleton_store = skeleton
    family._sweep_memo = {}
    _WARM_FAMILIES[digest] = (family, fkey_tuple)
    while len(_WARM_FAMILIES) > MAX_WARM_FAMILIES:
        _WARM_FAMILIES.popitem(last=False)
    return True


def _warm_shard(digest: str, packed: bytes, store_root: Optional[str],
                cache_cfg: Tuple[bool, Optional[str]],
                batch: bool = True,
                ) -> Tuple[str, Optional[List[bool]], int,
                           Tuple[int, int, int]]:
    """Worker entry point: decide one packed shard against the warmed
    family.

    Returns ``("ok", decisions, memo_hits, kernel_stats)``, or
    ``("miss", None, 0, (0, 0, 0))`` when ``digest`` was never
    broadcast here (lane respawn, LRU eviction) so the parent can
    re-broadcast and resubmit.  ``kernel_stats`` is
    ``(kernel_pairs, state_hits_delta, state_misses_delta)``: because
    the warmed family persists in this lane across shards, its batch
    kernel — transient under pickling — is built once per lane and
    reused for every later shard of the same skeleton.
    """
    entry = _WARM_FAMILIES.get(digest)
    if entry is None:
        return ("miss", None, 0, (0, 0, 0))
    family, fkey_tuple = entry
    _WARM_FAMILIES.move_to_end(digest)
    from repro.solvers import cache as solver_cache
    solver_cache.configure(enabled=cache_cfg[0], cache_dir=cache_cfg[1])
    store = fkey = None
    if store_root is not None:
        from repro.experiments.sweep_store import FamilyKey, SweepStore
        store = _WARM_STORES.get(store_root)
        if store is None:
            store = SweepStore(store_root)
            _WARM_STORES[store_root] = store
        fkey = FamilyKey(*fkey_tuple)
    memo = getattr(family, "_sweep_memo", None)
    if memo is None:
        memo = family._sweep_memo = {}
    pairs = list(_unpack_pairs(packed, int(fkey_tuple[2])))
    batched: Dict[Tuple[Bits, Bits], bool] = {}
    events_before = (0, 0)
    events_after = (0, 0)
    if batch:
        decide_batch = getattr(family, "decide_batch", None)
        if decide_batch is not None:
            todo = [key for key in pairs if key not in memo]
            events = getattr(family, "kernel_events", None)
            if events is not None:
                ev = events()
                events_before = (ev["state_hits"], ev["state_misses"])
            try:
                batched = decide_batch(None, todo) or {}
            except NotImplementedError:
                batched = {}
            if events is not None:
                ev = events()
                events_after = (ev["state_hits"], ev["state_misses"])
    decisions: List[bool] = []
    hits = 0
    kernel_pairs = 0
    for key in pairs:
        if key in memo:
            decision = memo[key]
            hits += 1
        elif key in batched:
            decision = batched[key]
            memo[key] = decision
            kernel_pairs += 1
        else:
            x, y = key
            decision = family.predicate(family.build(x, y))
            memo[key] = decision
        # the parent only ships pairs absent from the store, so persist
        # memo-served decisions too — exactly the entries a serial sweep
        # would have written
        if store is not None:
            store.store(fkey, key[0], key[1], decision)
        decisions.append(decision)
    kstats = (kernel_pairs,
              events_after[0] - events_before[0],
              events_after[1] - events_before[1])
    return ("ok", decisions, hits, kstats)


# ----------------------------------------------------------------------
# parent side: lanes, stats, the pool
# ----------------------------------------------------------------------
@dataclass
class PoolStats:
    """Cumulative counters for the process-wide warm pool."""

    broadcasts: int = 0        #: skeleton/family broadcasts (lane × key)
    broadcast_bytes: int = 0   #: bytes shipped in broadcast payloads
    shm_segments: int = 0      #: broadcasts that rode shared memory
    pair_payload_bytes: int = 0  #: pickled bytes of steady-state shards
    pairs_shipped: int = 0     #: pairs decided through the warm path
    shards: int = 0            #: shard tasks completed by lanes
    warm_hits: int = 0         #: pairs served from a worker's hot memo
    lane_respawns: int = 0     #: lanes rebuilt after death/timeout
    experiments: int = 0       #: experiment records produced by lanes
    kernel_batched: int = 0    #: pairs answered by batched kernels
    kernel_state_hits: int = 0    #: kernel reused (skeleton hash match)
    kernel_state_misses: int = 0  #: kernel (re)built in a lane

    def as_dict(self) -> Dict[str, int]:
        return dict(vars(self))


class _Lane:
    """One single-worker executor plus what its worker has been sent."""

    def __init__(self, ctx) -> None:
        self.executor = futures.ProcessPoolExecutor(max_workers=1,
                                                    mp_context=ctx)
        #: family digests broadcast to this lane's worker
        self.loaded: Set[str] = set()
        #: experiment-registry stamp at the worker's fork (set on first
        #: submit — the executor forks lazily), None until then
        self.stamp: Optional[tuple] = None


def _registry_stamp() -> tuple:
    from repro.experiments.runner import EXPERIMENTS
    return tuple(sorted(EXPERIMENTS))


class WarmPool:
    """A resizable set of persistent lanes shared by every warm caller."""

    def __init__(self) -> None:
        self._ctx = _mp_context()
        self.lanes: List[_Lane] = []
        self.stats = PoolStats()
        #: live shared-memory segments: [(segment, [broadcast futures])]
        self._segments: List[Tuple[Any, List[Any]]] = []

    # -- lane lifecycle ------------------------------------------------
    def ensure(self, jobs: int) -> None:
        while len(self.lanes) < jobs:
            self.lanes.append(_Lane(self._ctx))

    def _respawn(self, lane: _Lane) -> None:
        _terminate(lane.executor)
        lane.executor = futures.ProcessPoolExecutor(max_workers=1,
                                                    mp_context=self._ctx)
        lane.loaded = set()
        lane.stamp = None
        self.stats.lane_respawns += 1

    def shutdown(self) -> None:
        for lane in self.lanes:
            _terminate(lane.executor)
        self.lanes = []
        self._reap_segments(force=True)

    # -- shared-memory broadcast plumbing ------------------------------
    def _make_segment(self, data: bytes) -> Optional[Tuple[str, int]]:
        try:
            # spawn workers run their own resource tracker, which would
            # unlink the parent's live segment when the worker exits;
            # only fork's shared-tracker semantics make attach safe
            if self._ctx.get_start_method() != "fork":
                return None
            from multiprocessing import shared_memory
            seg = shared_memory.SharedMemory(create=True, size=len(data))
        except Exception:
            return None
        seg.buf[:len(data)] = data
        self._segments.append((seg, []))
        self.stats.shm_segments += 1
        return (seg.name, len(data))

    def _reap_segments(self, force: bool = False) -> None:
        """Unlink segments whose broadcast readers have all finished."""
        keep: List[Tuple[Any, List[Any]]] = []
        for seg, futs in self._segments:
            if force or all(f.done() for f in futs):
                try:
                    seg.close()
                    seg.unlink()
                except Exception:
                    pass
            else:
                keep.append((seg, futs))
        self._segments = keep

    def _broadcast(self, lane: _Lane, digest: str, blob: bytes,
                   fkey_tuple: tuple, shm_spec: Optional[Tuple[str, int]],
                   skel_bytes: Optional[bytes]) -> None:
        """Queue the family broadcast ahead of this lane's next shard
        (single-worker lanes execute FIFO, so no waiting is needed)."""
        inline = skel_bytes if shm_spec is None else None
        fut = lane.executor.submit(_load_family, digest, blob, fkey_tuple,
                                   shm_spec, inline)
        if lane.stamp is None:
            lane.stamp = _registry_stamp()
        if shm_spec is not None:
            for seg, futs in self._segments:
                if seg.name == shm_spec[0]:
                    futs.append(fut)
        lane.loaded.add(digest)
        self.stats.broadcasts += 1
        self.stats.broadcast_bytes += len(blob) + (len(inline) if inline
                                                   else 0)

    # -- sweep fan-out -------------------------------------------------
    def decide(self, family, pairs: Sequence[Tuple[Bits, Bits]], jobs: int,
               timeout: Optional[float] = None, retries: int = 1,
               store=None, fkey=None,
               batch: bool = True) -> Optional[List[bool]]:
        """Decide ``pairs`` across warm lanes, in request order.

        Mirrors :func:`repro.experiments.sweep.parallel_decisions`:
        ``None`` only when warm fan-out is impossible from the start.
        """
        if not pairs:
            return []
        jobs = max(1, min(int(jobs), len(pairs)))
        try:
            if fkey is None:
                from repro.experiments.sweep_store import family_key
                fkey = family_key(family)
            digest = fkey.digest[:16]
            blob = pickle.dumps(family)
            try:
                family.skeleton()  # populate _skeleton_store
                skel_bytes = family._skeleton_store.to_bytes()
            except NotImplementedError:
                skel_bytes = None
            self.ensure(jobs)
        except Exception:
            return None

        from repro.experiments.sweep import _decide_serial
        from repro.solvers.cache import CACHE
        cache_cfg = (CACHE.enabled, CACHE.cache_dir)
        store_root = (getattr(store, "root", None)
                      if store is not None else None)
        fkey_tuple = fkey.as_tuple()
        k_bits = int(fkey_tuple[2])

        shard_size = max(1, -(-len(pairs) // (jobs * SHARDS_PER_WORKER)))
        shards = [list(pairs[i:i + shard_size])
                  for i in range(0, len(pairs), shard_size)]
        packed = [_pack_pairs(shard, k_bits) for shard in shards]
        # the shared-memory segment is created lazily, on the first lane
        # that actually needs the broadcast (usually none: steady state)
        shm_spec: Optional[Tuple[str, int]] = None
        shm_tried = False

        results: Dict[int, List[bool]] = {}
        pending: deque = deque(range(len(shards)))
        attempts: Dict[int, int] = {}
        free: deque = deque(self.lanes[:jobs])
        inflight: Dict[Any, Tuple[_Lane, int, Optional[float]]] = {}
        started = False
        while pending or inflight:
            while pending and free:
                lane = free.popleft()
                idx = pending.popleft()
                try:
                    if digest not in lane.loaded:
                        if (not shm_tried and skel_bytes is not None
                                and len(skel_bytes) >= SHM_MIN_BYTES):
                            shm_spec = self._make_segment(skel_bytes)
                            shm_tried = True
                        self._broadcast(lane, digest, blob, fkey_tuple,
                                        shm_spec, skel_bytes)
                    fut = lane.executor.submit(
                        _warm_shard, digest, packed[idx], store_root,
                        cache_cfg, batch)
                except Exception:
                    # lane unusable at submit (interpreter teardown,
                    # broken executor): rebuild it and let the shard be
                    # retried — bounded by the attempts counter below
                    attempts[idx] = attempts.get(idx, 0) + 1
                    if attempts[idx] > max(1, retries):
                        results[idx] = _decide_serial(family, shards[idx],
                                                      store, fkey,
                                                      batch=batch)
                    else:
                        pending.appendleft(idx)
                    try:
                        self._respawn(lane)
                        free.append(lane)
                    except Exception:
                        if not started and not inflight:
                            return None
                    continue
                started = True
                self.stats.pair_payload_bytes += len(pickle.dumps(
                    (digest, packed[idx], store_root, cache_cfg, batch)))
                deadline = (None if timeout is None
                            else time.monotonic() + timeout)
                inflight[fut] = (lane, idx, deadline)
            if not inflight:
                if pending:  # no usable lanes left: parent mops up
                    idx = pending.popleft()
                    results[idx] = _decide_serial(family, shards[idx],
                                                  store, fkey, batch=batch)
                continue
            deadlines = [d for __, __, d in inflight.values()
                         if d is not None]
            wait_for = (max(0.0, min(deadlines) - time.monotonic())
                        if deadlines else None)
            done, __ = futures.wait(set(inflight), timeout=wait_for,
                                    return_when=futures.FIRST_COMPLETED)
            if not done:
                now = time.monotonic()
                expired = [f for f, (__, __, d) in inflight.items()
                           if d is not None and d <= now]
                # pathological shards: the parent decides them while the
                # wedged lanes are respawned; innocent lanes keep both
                # their in-flight shards and their warmth
                for fut in expired:
                    lane, idx, __ = inflight.pop(fut)
                    results[idx] = _decide_serial(family, shards[idx],
                                                  store, fkey, batch=batch)
                    self._respawn(lane)
                    free.append(lane)
                continue
            for fut in done:
                lane, idx, __ = inflight.pop(fut)
                try:
                    status, decisions, hits, kstats = fut.result()
                except (futures_process.BrokenProcessPool,
                        futures.BrokenExecutor):
                    # only this lane died; its shard is the suspect
                    attempts[idx] = attempts.get(idx, 0) + 1
                    if attempts[idx] > max(0, retries):
                        results[idx] = _decide_serial(family, shards[idx],
                                                      store, fkey,
                                                      batch=batch)
                    else:
                        pending.appendleft(idx)
                    self._respawn(lane)
                    free.append(lane)
                except Exception:
                    # ordinary predicate exception: re-decide here so it
                    # raises in the caller's frame like a serial sweep
                    results[idx] = _decide_serial(family, shards[idx],
                                                  store, fkey, batch=batch)
                    free.append(lane)
                else:
                    if status == "miss":
                        # worker lost the family (respawn, LRU): force a
                        # re-broadcast on resubmit, bounded like a crash
                        lane.loaded.discard(digest)
                        attempts[idx] = attempts.get(idx, 0) + 1
                        if attempts[idx] > max(1, retries):
                            results[idx] = _decide_serial(
                                family, shards[idx], store, fkey,
                                batch=batch)
                        else:
                            pending.appendleft(idx)
                    else:
                        results[idx] = decisions
                        self.stats.warm_hits += hits
                        self.stats.shards += 1
                        self.stats.pairs_shipped += len(shards[idx])
                        self.stats.kernel_batched += kstats[0]
                        self.stats.kernel_state_hits += kstats[1]
                        self.stats.kernel_state_misses += kstats[2]
                    free.append(lane)
        self._reap_segments()

        out: List[bool] = []
        for idx in range(len(shards)):
            out.extend(results[idx])
        return out

    # -- experiment fan-out --------------------------------------------
    def run(self, ids: Sequence[str], quick: bool, jobs: int,
            timeout: Optional[float], retries: int,
            trace_dir: Optional[str], profile: bool,
            trace_format: str) -> Optional[List[Any]]:
        """Run experiments across warm lanes; records in ``ids`` order.

        Same record semantics as :func:`~repro.experiments.parallel.
        run_parallel`; ``None`` when warm fan-out is impossible.
        """
        order = list(ids)
        if not order:
            return []
        jobs = max(1, min(int(jobs), len(order)))
        try:
            self.ensure(jobs)
        except Exception:
            return None
        from repro.solvers.cache import CACHE
        cache_cfg = (CACHE.enabled, CACHE.cache_dir)
        stamp = _registry_stamp()
        for lane in self.lanes[:jobs]:
            # a lane forked before the current registry existed cannot
            # see runtime-registered experiments — refork it
            if lane.stamp is not None and lane.stamp != stamp:
                self._respawn(lane)

        results: Dict[str, Any] = {}
        pending: deque = deque(order)
        attempts: Dict[str, int] = {}
        crash_detail: Dict[str, str] = {}
        free: deque = deque(self.lanes[:jobs])
        inflight: Dict[Any, Tuple[_Lane, str, Optional[float]]] = {}
        started = False
        while pending or inflight:
            while pending and free:
                lane = free.popleft()
                eid = pending.popleft()
                try:
                    fut = lane.executor.submit(
                        _worker, eid, quick, trace_dir, profile,
                        trace_format, *cache_cfg)
                except Exception:
                    pending.appendleft(eid)
                    try:
                        self._respawn(lane)
                        free.append(lane)
                    except Exception:
                        if not started and not inflight:
                            return None
                    continue
                if lane.stamp is None:
                    lane.stamp = stamp
                started = True
                deadline = (None if timeout is None
                            else time.monotonic() + timeout)
                inflight[fut] = (lane, eid, deadline)
            if not inflight:
                if pending and not free:
                    break  # every lane lost: cold isolation mops up
                continue
            deadlines = [d for __, __, d in inflight.values()
                         if d is not None]
            wait_for = (max(0.0, min(deadlines) - time.monotonic())
                        if deadlines else None)
            done, __ = futures.wait(set(inflight), timeout=wait_for,
                                    return_when=futures.FIRST_COMPLETED)
            if not done:
                now = time.monotonic()
                expired = [f for f, (__, __, d) in inflight.items()
                           if d is not None and d <= now]
                for fut in expired:
                    lane, eid, __ = inflight.pop(fut)
                    results[eid] = _timeout_record(eid, timeout)
                    self._respawn(lane)
                    free.append(lane)
                continue
            for fut in done:
                lane, eid, __ = inflight.pop(fut)
                try:
                    record = fut.result()
                except (futures_process.BrokenProcessPool,
                        futures.BrokenExecutor) as exc:
                    # the respawned lane IS the fresh isolation pool the
                    # cold runner would retry in
                    attempts[eid] = attempts.get(eid, 0) + 1
                    crash_detail[eid] = f"worker process died ({exc!r})"
                    if attempts[eid] > max(0, retries):
                        results[eid] = _crash_record(
                            eid, crash_detail[eid], retries)
                    else:
                        pending.appendleft(eid)
                    self._respawn(lane)
                    free.append(lane)
                except Exception:
                    results[eid] = _error_record(eid, traceback.format_exc())
                    free.append(lane)
                else:
                    results[eid] = record
                    self.stats.experiments += 1
                    free.append(lane)
        while pending:  # lanes exhausted: fall back to cold isolation
            eid = pending.popleft()
            if eid not in results:
                results[eid] = _run_isolated(
                    eid, quick, trace_dir, profile, trace_format,
                    cache_cfg, timeout, max(1, retries), self._ctx,
                    first_error=None)
        return [results[eid] for eid in order]


# ----------------------------------------------------------------------
# module-level pool singleton
# ----------------------------------------------------------------------
_POOL: Optional[WarmPool] = None


def get_pool(jobs: Optional[int] = None) -> WarmPool:
    """The process-wide warm pool, created (and registered for atexit
    teardown) on first use; ``jobs`` grows it to at least that many
    lanes."""
    global _POOL
    if _POOL is None:
        _POOL = WarmPool()
        atexit.register(shutdown_pool)
    if jobs:
        _POOL.ensure(jobs)
    return _POOL


def shutdown_pool() -> None:
    """Tear down the warm pool (used by tests and atexit); the next
    warm caller starts a fresh one."""
    global _POOL
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None


def pool_stats() -> Dict[str, int]:
    """A snapshot of the warm pool's cumulative counters (all zeros
    when no pool has been created)."""
    stats = _POOL.stats.as_dict() if _POOL is not None else \
        PoolStats().as_dict()
    stats["lanes"] = len(_POOL.lanes) if _POOL is not None else 0
    return stats


def _warmable() -> bool:
    # lanes are a per-*process-tree* resource: only the main process may
    # build them.  Child processes (pool workers are non-daemonic, so a
    # daemon check alone is not enough) would each fork their own lane
    # forest — and forking executors from a forked worker whose parent
    # had live executor threads is a known deadlock.
    try:
        proc = multiprocessing.current_process()
        return not proc.daemon and proc.name == "MainProcess"
    except Exception:
        return False


def pool_decisions(family, pairs: Sequence[Tuple[Bits, Bits]], jobs: int,
                   timeout: Optional[float] = None, retries: int = 1,
                   store=None, fkey=None,
                   batch: bool = True) -> Optional[List[bool]]:
    """Warm-pool twin of :func:`repro.experiments.sweep.
    parallel_decisions` — ``None`` means fall back to the cold path."""
    if not _warmable():
        return None
    try:
        pool = get_pool(jobs)
    except Exception:
        return None
    return pool.decide(family, pairs, jobs, timeout=timeout,
                       retries=retries, store=store, fkey=fkey, batch=batch)


def run_experiments(ids: Sequence[str], quick: bool = True, jobs: int = 2,
                    timeout: Optional[float] = None, retries: int = 1,
                    trace_dir: Optional[str] = None, profile: bool = False,
                    trace_format: str = "binary") -> Optional[List[Any]]:
    """Warm-pool twin of :func:`~repro.experiments.parallel.run_parallel`
    — ``None`` means fall back to the cold runner."""
    if not _warmable():
        return None
    try:
        pool = get_pool(jobs)
    except Exception:
        return None
    return pool.run(ids, quick, jobs, timeout, retries, trace_dir,
                    profile, trace_format)
