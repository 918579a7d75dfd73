"""Memoization for the exact solvers.

The exact solvers are exponential-time and are invoked repeatedly on the
same instances: every ``run_all`` pass re-verifies the same registered
experiments, the iff-lemma sweeps revisit graphs across input pairs, and
the Gallai–Edmonds witness recomputes matchings on overlapping induced
subgraphs.  ``@cached`` memoizes solver entry points behind a canonical
key so repeated work is a dictionary lookup.

Key definition
--------------
A cache entry is keyed by ``(solver name, canonical argument repr)``
where graphs contribute :meth:`repro.graphs.Graph.content_hash` — a
SHA-256 over directedness, vertices, edges, and all effective weights in
canonical label order — and the remaining parameters contribute a
type-tagged canonical repr (dicts sorted by key, sets sorted by element;
see :func:`canonical_repr`).  Anything that affects a solver's output is
part of the key; consequently *invalidation is structural*: mutate a
graph and its hash, hence its key, changes.  The on-disk tier must be
cleared manually (``clear()`` or delete the directory) only when solver
*code* changes semantics.

Tiers
-----
- in-process dict: always available, enabled by default;
- on-disk JSON under ``~/.cache/repro/`` (or any directory passed to
  :func:`configure`): opt-in, one file per entry, written atomically so
  concurrent runner processes can share it.  Values are stored in a
  type-tagged JSON encoding that round-trips tuples/sets/frozensets
  exactly; values outside that vocabulary simply stay memory-only.

Hit/miss counters are per solver name and surfaced through
``repro.obs.profile`` and ``ExperimentRecord.measured["solver_cache"]``.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, TypeVar

from repro.graphs import DiGraph, Graph, label_sort_key

F = TypeVar("F", bound=Callable[..., Any])

_UNSET = object()


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


def _key_digest(name: str, canonical: str) -> str:
    return hashlib.sha256(f"{name}\x00{canonical}".encode()).hexdigest()


# ----------------------------------------------------------------------
# disk encoding: JSON with tags for tuple/set/frozenset
# ----------------------------------------------------------------------
def _encode(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return [_encode(x) for x in value]
    if isinstance(value, tuple):
        return {"__t__": "tuple", "v": [_encode(x) for x in value]}
    if isinstance(value, (set, frozenset)):
        elems = sorted(value, key=lambda x: canonical_repr(x))
        return {"__t__": type(value).__name__,
                "v": [_encode(x) for x in elems]}
    if isinstance(value, dict):
        return {"__t__": "dict",
                "v": [[_encode(k), _encode(v)] for k, v in value.items()]}
    raise ValueError(f"value of type {type(value).__name__} "
                     f"has no JSON cache encoding")


def _decode(value: Any) -> Any:
    if isinstance(value, list):
        return [_decode(x) for x in value]
    if isinstance(value, dict):
        tag = value["__t__"]
        if tag == "tuple":
            return tuple(_decode(x) for x in value["v"])
        if tag == "set":
            return {_decode(x) for x in value["v"]}
        if tag == "frozenset":
            return frozenset(_decode(x) for x in value["v"])
        if tag == "dict":
            return {_decode(k): _decode(v) for k, v in value["v"]}
        raise ValueError(f"unknown cache tag {tag!r}")
    return value


def default_cache_dir() -> str:
    """``$XDG_CACHE_HOME/repro`` (``~/.cache/repro`` by default)."""
    base = os.environ.get("XDG_CACHE_HOME")
    if not base:
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro")


#: a ``*.tmp`` this old cannot belong to a live writer — atomic writes
#: hold their temp file for milliseconds, so an hour means the writer
#: crashed (or was killed) between ``mkstemp`` and ``os.replace``.
STALE_TMP_AGE_S = 3600.0


def sweep_stale_tmp(directory: str,
                    max_age_s: float = STALE_TMP_AGE_S) -> int:
    """Delete ``mkstemp`` leftovers of crashed writers in ``directory``.

    Only ``*.tmp`` files older than ``max_age_s`` go — a fresh temp file
    may belong to a concurrent writer mid-``os.replace``, and deleting
    it under that writer would be a race (its ``replace`` would fail and
    be absorbed as a degraded write).  Returns how many were removed.
    """
    try:
        names = os.listdir(directory)
    except OSError:
        return 0
    removed = 0
    now = time.time()
    for fname in names:
        if not fname.endswith(".tmp"):
            continue
        path = os.path.join(directory, fname)
        try:
            if now - os.stat(path).st_mtime >= max_age_s:
                os.unlink(path)
                removed += 1
        except OSError:
            pass
    return removed


def atomic_write_json(path: str, payload: Any) -> None:
    """Write ``payload`` as JSON to ``path`` atomically: dump to a
    ``mkstemp`` sibling, then ``os.replace`` it into place, so readers
    see a complete old or complete new file, never a torn one.  The temp
    file is unlinked on failure; a killed writer leaves only a ``*.tmp``
    for :func:`sweep_stale_tmp`.  ``OSError`` propagates to the caller.
    """
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@dataclass
class CacheStats:
    """Per-solver hit/miss counters (``disk_hits`` ⊆ ``hits``)."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0

    def copy(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.disk_hits)


class SolverCache:
    """Two-tier (memory + optional disk) result cache with counters."""

    def __init__(self, enabled: bool = True,
                 cache_dir: Optional[str] = None) -> None:
        self.enabled = enabled
        self.cache_dir = cache_dir
        self._mem: Dict[str, Any] = {}
        self.stats: Dict[str, CacheStats] = {}
        if cache_dir:
            sweep_stale_tmp(cache_dir)

    # -- configuration -------------------------------------------------
    def configure(self, enabled: Any = _UNSET,
                  cache_dir: Any = _UNSET) -> None:
        if enabled is not _UNSET:
            self.enabled = bool(enabled)
        if cache_dir is not _UNSET:
            self.cache_dir = os.fspath(cache_dir) if cache_dir else None
            if self.cache_dir:
                # crashed writers leave mkstemp leftovers behind; adopt
                # the directory clean so they cannot pile up run over run
                sweep_stale_tmp(self.cache_dir)

    def clear(self) -> None:
        """Drop the memory tier and every on-disk entry — ``*.tmp``
        leftovers of crashed writers included (counters kept)."""
        self._mem.clear()
        if self.cache_dir and os.path.isdir(self.cache_dir):
            for fname in os.listdir(self.cache_dir):
                if fname.endswith(".json") or fname.endswith(".tmp"):
                    try:
                        os.unlink(os.path.join(self.cache_dir, fname))
                    except OSError:
                        pass

    def reset_stats(self) -> None:
        self.stats.clear()

    def _stat(self, name: str) -> CacheStats:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = CacheStats()
        return stat

    # -- lookup / store ------------------------------------------------
    def _path(self, digest: str) -> str:
        assert self.cache_dir is not None
        return os.path.join(self.cache_dir, f"{digest}.json")

    def lookup(self, name: str, digest: str) -> Any:
        """Return ``(hit, value)``; a disk hit also warms the memory tier."""
        stat = self._stat(name)
        if digest in self._mem:
            stat.hits += 1
            return True, copy.deepcopy(self._mem[digest])
        if self.cache_dir:
            path = self._path(digest)
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    payload = json.load(fh)
                value = _decode(payload["value"])
            except (OSError, ValueError, KeyError, TypeError):
                pass
            else:
                self._mem[digest] = value
                stat.hits += 1
                stat.disk_hits += 1
                return True, copy.deepcopy(value)
        stat.misses += 1
        return False, None

    def store(self, name: str, digest: str, canonical: str,
              value: Any) -> None:
        self._mem[digest] = copy.deepcopy(value)
        if not self.cache_dir:
            return
        try:
            encoded = _encode(value)
        except ValueError:
            return  # value outside the JSON vocabulary: memory-only
        payload = {"solver": name, "key": canonical, "value": encoded}
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            atomic_write_json(self._path(digest), payload)
        except OSError:
            pass  # an unwritable disk tier degrades to memory-only


#: the process-global cache every ``@cached`` solver consults.
CACHE = SolverCache(enabled=True, cache_dir=None)


def configure(enabled: Any = _UNSET, cache_dir: Any = _UNSET) -> None:
    """Reconfigure the global solver cache (see :class:`SolverCache`)."""
    CACHE.configure(enabled=enabled, cache_dir=cache_dir)


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
            digest = _key_digest(label, canonical)
            hit, value = CACHE.lookup(label, digest)
            if hit:
                return value
            value = func(*args, **kwargs)
            CACHE.store(label, digest, canonical, value)
            return value

        wrapper.__cached_name__ = label  # type: ignore[attr-defined]
        wrapper.__wrapped_solver__ = func  # type: ignore[attr-defined]
        return wrapper  # type: ignore[return-value]

    if fn is not None:
        return wrap(fn)
    return wrap
