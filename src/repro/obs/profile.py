"""Lightweight wall-clock / call-count profiling.

The exact solvers are the local-computation cost of every experiment;
``@profiled`` wraps their entry points with a perf-counter timer feeding
a process-global registry.  The experiment runner snapshots the registry
around each experiment and surfaces the result through
``ExperimentRecord.measured`` — so "which solver dominated this
experiment's runtime" is a recorded quantity, not a guess.

Times are *cumulative* (a profiled function calling another profiled
function charges both), which matches how the solvers nest: entry points
are profiled, their internal branch-and-bound recursion is not.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

F = TypeVar("F", bound=Callable[..., Any])


@dataclass
class ProfileStat:
    """Accumulated calls and wall-clock seconds for one profiled name."""

    calls: int = 0
    seconds: float = 0.0

    def add(self, elapsed: float) -> None:
        self.calls += 1
        self.seconds += elapsed

    def copy(self) -> "ProfileStat":
        return ProfileStat(self.calls, self.seconds)


_STATS: Dict[str, ProfileStat] = {}


def _record(name: str, elapsed: float) -> None:
    stat = _STATS.get(name)
    if stat is None:
        stat = _STATS[name] = ProfileStat()
    stat.add(elapsed)


def profiled(fn: Optional[F] = None, *, name: Optional[str] = None):
    """Decorator recording call count and wall time under ``name``
    (default ``module.qualname`` with the package prefix stripped)."""

    def wrap(func: F) -> F:
        label = name
        if label is None:
            mod = func.__module__.rsplit(".", 1)[-1]
            label = f"{mod}.{func.__qualname__}"

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                _record(label, time.perf_counter() - start)

        wrapper.__profiled_name__ = label  # type: ignore[attr-defined]
        return wrapper  # type: ignore[return-value]

    if fn is not None:
        return wrap(fn)
    return wrap


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (``q`` in [0, 100]) —
    deterministic, no interpolation, so reported p50/p95 values are
    always observed samples."""
    if not samples:
        raise ValueError("percentile of an empty sample set")
    ordered = sorted(samples)
    rank = int(math.ceil(q / 100.0 * len(ordered))) - 1
    return ordered[max(0, min(len(ordered) - 1, rank))]


@contextmanager
def profile_block(name: str) -> Iterator[None]:
    """Context-manager form of :func:`profiled` for ad-hoc regions."""
    start = time.perf_counter()
    try:
        yield
    finally:
        _record(name, time.perf_counter() - start)


def profile_stats() -> Dict[str, ProfileStat]:
    """Snapshot of the global registry (copies; safe to keep)."""
    return {name: stat.copy() for name, stat in _STATS.items()}


def reset_profile_stats() -> None:
    _STATS.clear()


def diff_profile(before: Dict[str, ProfileStat],
                 after: Dict[str, ProfileStat]) -> Dict[str, ProfileStat]:
    """Per-name delta ``after - before`` (only names with new calls)."""
    out: Dict[str, ProfileStat] = {}
    for name, stat in after.items():
        prev = before.get(name, ProfileStat())
        calls = stat.calls - prev.calls
        if calls > 0:
            out[name] = ProfileStat(calls, stat.seconds - prev.seconds)
    return out


def top_profile(stats: Optional[Dict[str, ProfileStat]] = None,
                top: int = 5) -> List[Tuple[str, ProfileStat]]:
    """The ``top`` hottest names by cumulative seconds."""
    stats = profile_stats() if stats is None else stats
    ranked = sorted(stats.items(), key=lambda kv: -kv[1].seconds)
    return ranked[:top]


def format_profile(stats: Optional[Dict[str, ProfileStat]] = None,
                   top: int = 5) -> str:
    """Compact one-line rendering, e.g.
    ``mis.max_independent_set x12 0.034s; maxcut.max_cut x3 0.010s``."""
    entries = top_profile(stats, top)
    return "; ".join(f"{name} x{s.calls} {s.seconds:.3f}s"
                     for name, s in entries)


# ----------------------------------------------------------------------
# solver-cache counters (owned by repro.solvers.cache; surfaced here so
# the experiment runner reports hits/misses next to the time profile)
# ----------------------------------------------------------------------
def solver_cache_stats() -> Dict[str, "CacheStats"]:
    """Snapshot of the solver memoization hit/miss counters."""
    from repro.solvers.cache import cache_stats
    return cache_stats()


def diff_cache_stats(before: Dict[str, "CacheStats"],
                     after: Dict[str, "CacheStats"]) -> Dict[str, "CacheStats"]:
    """Per-solver delta ``after - before`` (only solvers with activity)."""
    from repro.solvers.cache import CacheStats
    out: Dict[str, CacheStats] = {}
    for name, stat in after.items():
        prev = before.get(name, CacheStats())
        hits = stat.hits - prev.hits
        misses = stat.misses - prev.misses
        if hits > 0 or misses > 0:
            out[name] = CacheStats(hits, misses,
                                   stat.disk_hits - prev.disk_hits)
    return out


def format_cache_stats(stats: Dict[str, "CacheStats"]) -> str:
    """Compact rendering, e.g. ``maxcut.max_cut 3h/1m``: hits/misses
    per solver, sorted by total activity."""
    ranked = sorted(stats.items(),
                    key=lambda kv: -(kv[1].hits + kv[1].misses))
    return "; ".join(f"{name} {s.hits}h/{s.misses}m" for name, s in ranked)


# ----------------------------------------------------------------------
# warm-pool counters (owned by repro.experiments.warm_pool; surfaced
# here so campaign tooling reports payload/broadcast economics next to
# the solver-cache numbers)
# ----------------------------------------------------------------------
def warm_pool_stats() -> Dict[str, int]:
    """Snapshot of the persistent warm worker pool's cumulative
    counters (broadcasts, payload bytes, warm hits, lane respawns);
    all zeros when no pool has been created."""
    from repro.experiments.warm_pool import pool_stats
    return pool_stats()
