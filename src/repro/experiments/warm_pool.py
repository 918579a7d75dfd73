"""Persistent warm worker pool for the sweep/experiment fabric.

The cold callers (:func:`repro.experiments.sweep.parallel_decisions`,
:func:`repro.experiments.parallel.run_parallel`) open fresh lanes per
call and pickle the full family into every shard, so each campaign
re-forks, re-imports, and re-warms skeleton and kernel caches from
nothing.  This module keeps its lanes
(:class:`~repro.experiments.parallel.Lane`) alive across ``sweep()`` /
``run_all()`` calls and drives them through the same scheduler
(:func:`repro.experiments.parallel.drain`), so it inherits the one
implementation of the failure semantics and adds only:

- **one broadcast per (lane, FamilyKey)** — the pickled family (caches
  stripped) plus its warmed skeleton as compact wire bytes
  (:func:`repro.graphs.graph_to_bytes`), shipped through
  ``multiprocessing.shared_memory`` when available with an inline-bytes
  fallback.  The worker rebuilds the skeleton once, re-warms its
  derived caches, and keeps the family (and its sweep memo) hot.  A
  worker that evicted the family raises
  :class:`~repro.experiments.parallel.LaneMiss`;
- **tiny steady-state payloads** — after the broadcast, each shard
  ships only the ``(x, y)`` bit tuples plus a digest string, an
  order of magnitude below the cold path's family-blob-per-shard;
- **registry sync** — lanes are respawned when the experiment registry
  changed since they forked, so runtime-registered experiments behave
  as under the cold runner.

A shard that fails on its lane is decided serially in the parent, as
on the cold path; an experiment yields the same FAIL records as
:func:`~repro.experiments.parallel.run_parallel`.  Because each lane is
its own pool, a respawn costs only that lane its warmth.  ``sweep`` and
``run_all`` with ``jobs > 1`` always try this pool first; anything that
prevents warm fan-out (a child process, an unpicklable family, no
worker process can start) returns ``None`` and the caller falls back to
the cold path — the pool is an optimisation, never a correctness
concern.  :func:`pool_stats` (surfaced as
``repro.obs.warm_pool_stats``) exposes the broadcast/payload/warm-hit
counters; ``tests/test_warm_pool.py`` holds the per-pair payload to its
byte budget through them.
"""

from __future__ import annotations

import atexit
import multiprocessing
import pickle
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.parallel import (
    Lane,
    LaneMiss,
    _mp_context,
    drain,
    run_on_lanes,
)

Bits = Tuple[int, ...]

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
                batch: bool = True,
                ) -> Tuple[List[bool], Tuple[int, int, int, int]]:
    """Worker entry point: decide one packed shard against the warmed
    family.

    Returns ``(decisions, (memo_hits, kernel_pairs, state_hits_delta,
    state_misses_delta))``, and raises :class:`LaneMiss` when
    ``digest`` is not warmed here (LRU eviction), so the scheduler
    respawns the lane and the parent re-broadcasts on resubmit.
    Because the warmed family persists in this lane across shards, its
    batch kernel — transient under pickling — is built once per lane
    and reused for every later shard of the same skeleton.
    """
    entry = _WARM_FAMILIES.get(digest)
    if entry is None:
        raise LaneMiss(digest)
    family, fkey_tuple = entry
    _WARM_FAMILIES.move_to_end(digest)
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
    return decisions, (hits, kernel_pairs,
                       events_after[0] - events_before[0],
                       events_after[1] - events_before[1])


# ----------------------------------------------------------------------
# parent side: stats and the pool
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
    experiments: int = 0       #: experiment records produced by lanes
    kernel_batched: int = 0    #: pairs answered by batched kernels
    kernel_state_hits: int = 0    #: kernel reused (skeleton hash match)
    kernel_state_misses: int = 0  #: kernel (re)built in a lane

    def as_dict(self) -> Dict[str, int]:
        return dict(vars(self))


def _registry_stamp() -> tuple:
    from repro.experiments.runner import EXPERIMENTS
    return tuple(sorted(EXPERIMENTS))


class WarmPool:
    """A resizable set of persistent lanes shared by every warm caller."""

    def __init__(self) -> None:
        self.lanes: List[Lane] = []
        self.stats = PoolStats()
        #: live shared-memory segments: [(segment, [broadcast futures])]
        self._segments: List[Tuple[Any, List[Any]]] = []
        #: experiment registry the lanes forked with (None: none forked)
        self._registry: Optional[tuple] = None

    # -- lane lifecycle ------------------------------------------------
    def ensure(self, jobs: int) -> List[Lane]:
        """The first ``jobs`` lanes, built as needed.  When the
        experiment registry changed since the lanes forked, every lane
        is respawned, so runtime-registered experiments exist in the
        workers as under the cold runner."""
        while len(self.lanes) < jobs:
            self.lanes.append(Lane())
        registry = _registry_stamp()
        if self._registry not in (None, registry):
            for lane in self.lanes:
                lane.respawn()
        self._registry = registry
        return self.lanes[:jobs]

    def shutdown(self) -> None:
        for lane in self.lanes:
            lane.close()
        self.lanes = []
        self._reap_segments(force=True)

    # -- shared-memory broadcast plumbing ------------------------------
    def _make_segment(self, data: bytes) -> Optional[Tuple[str, int]]:
        try:
            # spawn workers run their own resource tracker, which would
            # unlink the parent's live segment when the worker exits;
            # only fork's shared-tracker semantics make attach safe
            if _mp_context().get_start_method() != "fork":
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

    def _broadcast(self, lane: Lane, digest: str, blob: bytes,
                   fkey_tuple: tuple, shm_spec: Optional[Tuple[str, int]],
                   skel_bytes: Optional[bytes]) -> None:
        """Queue the family broadcast ahead of this lane's next shard
        (single-worker lanes execute FIFO, so no waiting is needed)."""
        inline = skel_bytes if shm_spec is None else None
        fut = lane.executor.submit(_load_family, digest, blob, fkey_tuple,
                                   shm_spec, inline)
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
               store=None, fkey=None, batch: bool = True,
               counters: Optional[Dict[str, int]] = None,
               ) -> Optional[List[bool]]:
        """Decide ``pairs`` across warm lanes, in request order.

        Mirrors :func:`repro.experiments.sweep.parallel_decisions`:
        ``None`` only when warm fan-out is impossible from the start,
        and ``counters["batched"]`` grows by the kernel-answered pairs.
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
                skel_bytes = family._skeleton_base().to_bytes()
            except NotImplementedError:
                skel_bytes = None
            lanes = self.ensure(jobs)
        except Exception:
            return None

        from repro.experiments.sweep import _decide_serial, split_shards
        store_root = (getattr(store, "root", None)
                      if store is not None else None)
        fkey_tuple = fkey.as_tuple()
        shards = split_shards(pairs, jobs)
        packed = [_pack_pairs(part, int(fkey_tuple[2])) for part in shards]
        # the shared-memory segment is created lazily, on the first lane
        # that actually needs the broadcast (usually none: steady state)
        segment: List[Optional[Tuple[str, int]]] = []

        def submit(lane: Lane, idx: int):
            if digest not in lane.loaded:
                if not segment:
                    segment.append(
                        self._make_segment(skel_bytes)
                        if skel_bytes is not None
                        and len(skel_bytes) >= SHM_MIN_BYTES else None)
                self._broadcast(lane, digest, blob, fkey_tuple, segment[0],
                                skel_bytes)
            payload = (digest, packed[idx], store_root, batch)
            fut = lane.executor.submit(_warm_shard, *payload)
            self.stats.pair_payload_bytes += len(pickle.dumps(payload))
            return fut

        def fallback(idx: int, kind: str, detail: str):
            # raised, hung or kept losing its lane: the parent decides
            # it, so a predicate error raises in the caller's frame
            return _decide_serial(family, shards[idx], store, fkey,
                                  batch=batch, counters=counters), None

        try:
            results = drain(lanes, range(len(shards)), submit, fallback,
                            timeout=timeout, retries=retries)
        finally:
            self._reap_segments()
        if results is None:
            return None
        out: List[bool] = []
        for idx, (decisions, shard_counts) in enumerate(results):
            out.extend(decisions)
            if shard_counts is None:  # decided by the parent
                continue
            hits, kernel_pairs, state_hits, state_misses = shard_counts
            if counters is not None:
                counters["batched"] += kernel_pairs
            self.stats.warm_hits += hits
            self.stats.shards += 1
            self.stats.pairs_shipped += len(shards[idx])
            self.stats.kernel_batched += kernel_pairs
            self.stats.kernel_state_hits += state_hits
            self.stats.kernel_state_misses += state_misses
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
        try:
            lanes = self.ensure(max(1, min(int(jobs), len(order))))
        except Exception:
            return None
        records = run_on_lanes(lanes, order, quick, timeout, retries,
                               trace_dir, profile, trace_format)
        if records is not None:
            self.stats.experiments += len(records)
        return records


# ----------------------------------------------------------------------
# module-level pool singleton
# ----------------------------------------------------------------------
_POOL: Optional[WarmPool] = None


def get_pool() -> WarmPool:
    """The process-wide warm pool, created (and registered for atexit
    teardown) on first use."""
    global _POOL
    if _POOL is None:
        _POOL = WarmPool()
        atexit.register(shutdown_pool)
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
    lanes = _POOL.lanes if _POOL is not None else []
    stats = (_POOL.stats if _POOL is not None else PoolStats()).as_dict()
    stats["lanes"] = len(lanes)
    stats["lane_respawns"] = sum(lane.respawns for lane in lanes)
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
                   store=None, fkey=None, batch: bool = True,
                   counters: Optional[Dict[str, int]] = None,
                   ) -> Optional[List[bool]]:
    """Warm-pool twin of :func:`repro.experiments.sweep.
    parallel_decisions` — ``None`` means fall back to the cold path."""
    if not _warmable():
        return None
    return get_pool().decide(family, pairs, jobs, timeout=timeout,
                             retries=retries, store=store, fkey=fkey,
                             batch=batch, counters=counters)


def run_experiments(ids: Sequence[str], quick: bool = True, jobs: int = 2,
                    timeout: Optional[float] = None, retries: int = 1,
                    trace_dir: Optional[str] = None, profile: bool = False,
                    trace_format: str = "binary") -> Optional[List[Any]]:
    """Warm-pool twin of :func:`~repro.experiments.parallel.run_parallel`
    — ``None`` means fall back to the cold runner."""
    if not _warmable():
        return None
    return get_pool().run(ids, quick, jobs, timeout, retries, trace_dir,
                          profile, trace_format)
