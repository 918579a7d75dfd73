"""In-process memoization for the exact solvers.

Some exact solvers are called again on the same instance: every
``run_all`` pass re-verifies the registered experiments, and the
Gallai–Edmonds witness recomputes matchings on overlapping induced
subgraphs.  ``@cached`` memoizes those entry points behind a canonical
key so a repeated call is a dictionary lookup.  Solvers whose calls never
repeat on the real workloads (set cover, node-weighted Steiner,
Hamiltonian path search, ...) are left undecorated: building their key
costs more than solving.

Key definition
--------------
A cache entry is keyed by ``(solver name, canonical argument repr)``
where graphs contribute :meth:`repro.graphs.Graph.content_hash` — a
SHA-256 over directedness, vertices, edges, and all effective weights in
canonical label order — and the remaining parameters contribute a
type-tagged canonical repr (dicts sorted by key, sets sorted by element;
see :func:`canonical_repr`).  Anything that affects a solver's output is
part of the key; consequently *invalidation is structural*: mutate a
graph and its hash, hence its key, changes.  Entries live only as long
as the process, so a change to solver code never meets a stale entry.

Hit/miss counters are per solver name and surfaced through
``repro.obs.profile`` and ``ExperimentRecord.measured["solver_cache"]``.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple, TypeVar

from repro.graphs import DiGraph, Graph

F = TypeVar("F", bound=Callable[..., Any])


class UncacheableArgument(TypeError):
    """An argument has no canonical repr (e.g. a one-shot iterator)."""


# ----------------------------------------------------------------------
# canonical keys
# ----------------------------------------------------------------------
def canonical_repr(obj: Any) -> str:
    """A deterministic, type-tagged repr for cache keys.

    Stable across processes and hash randomization: dicts are sorted by
    encoded key, sets by encoded element.  Graphs collapse to their
    :meth:`content_hash`.  Raises :class:`UncacheableArgument` for
    objects with no canonical form (iterators, arbitrary instances) —
    the decorator then bypasses the cache rather than guessing.
    """
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return f"{type(obj).__name__}:{obj!r}"
    if isinstance(obj, (Graph, DiGraph)):
        return f"{type(obj).__name__}#{obj.content_hash()}"
    if isinstance(obj, (list, tuple)):
        inner = ",".join(canonical_repr(x) for x in obj)
        return f"{type(obj).__name__}[{inner}]"
    if isinstance(obj, (set, frozenset)):
        inner = ",".join(sorted(canonical_repr(x) for x in obj))
        return f"{type(obj).__name__}{{{inner}}}"
    if isinstance(obj, dict):
        items = sorted((canonical_repr(k), canonical_repr(v))
                       for k, v in obj.items())
        inner = ",".join(f"{k}=>{v}" for k, v in items)
        return f"dict{{{inner}}}"
    raise UncacheableArgument(
        f"cannot build a canonical cache key for {type(obj).__name__}")


@dataclass
class CacheStats:
    """Per-solver hit/miss counters."""

    hits: int = 0
    misses: int = 0

    def copy(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses)


class SolverCache:
    """In-memory result cache with per-solver counters."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._mem: Dict[Tuple[str, str], Any] = {}
        self.stats: Dict[str, CacheStats] = {}

    def configure(self, enabled: bool) -> None:
        self.enabled = bool(enabled)

    def clear(self) -> None:
        """Drop every entry (counters kept)."""
        self._mem.clear()

    def reset_stats(self) -> None:
        self.stats.clear()

    def _stat(self, name: str) -> CacheStats:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = CacheStats()
        return stat

    def lookup(self, name: str, canonical: str) -> Tuple[bool, Any]:
        """Return ``(hit, value)``."""
        stat = self._stat(name)
        key = (name, canonical)
        if key in self._mem:
            stat.hits += 1
            return True, copy.deepcopy(self._mem[key])
        stat.misses += 1
        return False, None

    def store(self, name: str, canonical: str, value: Any) -> None:
        self._mem[(name, canonical)] = copy.deepcopy(value)


#: the process-global cache every ``@cached`` solver consults.
CACHE = SolverCache(enabled=True)


def configure(enabled: bool) -> None:
    """Turn the global solver cache on or off."""
    CACHE.configure(enabled)


def cache_stats() -> Dict[str, CacheStats]:
    """Snapshot of the per-solver hit/miss counters (copies)."""
    return {name: stat.copy() for name, stat in CACHE.stats.items()}


def reset_cache_stats() -> None:
    CACHE.reset_stats()


def clear_cache() -> None:
    CACHE.clear()


def cached(fn: Optional[F] = None, *, name: Optional[str] = None):
    """Memoize a solver entry point through the global :data:`CACHE`.

    Sits beside ``@profiled`` (profiled outermost, so cache hits still
    appear in the call-count profile, just with ~zero cost).  Arguments
    without a canonical repr — one-shot iterators, arbitrary objects —
    bypass the cache entirely rather than risking a wrong key.  Cached
    values are deep-copied on both store and hit, so callers may mutate
    results freely.
    """

    def wrap(func: F) -> F:
        label = name
        if label is None:
            mod = func.__module__.rsplit(".", 1)[-1]
            label = f"{mod}.{func.__qualname__}"

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not CACHE.enabled:
                return func(*args, **kwargs)
            try:
                canonical = canonical_repr(
                    (list(args), dict(sorted(kwargs.items()))))
            except UncacheableArgument:
                return func(*args, **kwargs)
            hit, value = CACHE.lookup(label, canonical)
            if hit:
                return value
            value = func(*args, **kwargs)
            CACHE.store(label, canonical, value)
            return value

        return wrapper  # type: ignore[return-value]

    if fn is not None:
        return wrap(fn)
    return wrap
