"""Content-addressed, resumable result store for predicate sweeps.

Exhaustive Theorem 1.1 campaigns decide P(G_{x,y}) over every pair of a
2^k × 2^k input grid.  The per-instance ``_sweep_memo`` of
:func:`repro.core.family.sweep` dies with the process, so before this
store a crashed (or merely repeated) campaign redid all of its work.
:class:`SweepStore` persists every decision under a content-addressed
key so a sweep can resume mid-grid after a crash and a repeat sweep is
near-free.

Key definition
--------------
A stored decision is keyed on ``(family name, skeleton content_hash,
k_bits, x, y)``:

- the *family name* scopes decisions to one construction class;
- the *skeleton hash* (:meth:`repro.graphs.Graph.content_hash` of the
  input-independent ``build_skeleton()`` graph) captures every
  parameter that shapes the instance — ``k``, covering collections,
  gadget choices — so changing the construction changes the key and
  stale decisions are never resurrected.  Families that do not
  implement the skeleton/delta protocol fall back to the hash of
  ``build(0…0, 0…0)``, tagged so the two can never collide;
- ``(x, y)`` are the input bits themselves.

Invalidation is therefore structural, exactly like the PR 2 solver
cache: mutate the construction and the key moves.  The store only needs
manual clearing (:meth:`SweepStore.clear` or delete the directory) when
a *predicate implementation* changes semantics without changing the
skeleton.

Layout and concurrency
----------------------
One directory per family key (named by its digest) under the store
root (default ``~/.cache/repro/sweeps/``), one JSON file per decided
pair plus a human-readable ``meta.json``.  Writes go through
:func:`repro.solvers.cache.atomic_write_json` (``mkstemp`` +
``os.replace``, shared with the solver cache's disk tier), so
concurrent fork workers draining shards of the same grid can write the
same key simultaneously: readers see a complete old or complete new
entry, never a torn one, and equal workloads write equal values so
last-write-wins is benign.  A killed writer leaves only a ``*.tmp``
file, which startup sweeping removes once it is stale; a corrupt or
truncated entry is dropped (and deleted best-effort) so it degrades to
a recompute, never a crash.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Set, Tuple

from repro.solvers.cache import (
    atomic_write_json,
    default_cache_dir,
    sweep_stale_tmp,
)

Bits = Tuple[int, ...]
Pair = Tuple[Bits, Bits]


def default_sweep_store_dir() -> str:
    """``$XDG_CACHE_HOME/repro/sweeps`` (``~/.cache/repro/sweeps``)."""
    return os.path.join(default_cache_dir(), "sweeps")


def _bits_str(bits: Sequence[int]) -> str:
    return "".join("1" if int(b) else "0" for b in bits)


def _bits_tuple(text: str) -> Bits:
    return tuple(1 if ch == "1" else 0 for ch in text)


@dataclass(frozen=True)
class FamilyKey:
    """The content-addressed identity of one family instance."""

    family: str
    skeleton_hash: str
    k_bits: int

    @property
    def digest(self) -> str:
        raw = f"{self.family}\x00{self.skeleton_hash}\x00{self.k_bits}"
        return hashlib.sha256(raw.encode()).hexdigest()

    def as_tuple(self) -> Tuple[str, str, int]:
        """A picklable flat form for worker payloads."""
        return (self.family, self.skeleton_hash, self.k_bits)


def family_key(family: Any) -> FamilyKey:
    """Compute the store key for a family instance.

    Uses the cached skeleton (one build per instance, hash cached on
    the graph); non-skeleton families hash their all-zeros build under
    a distinct tag so the two schemes never collide.
    """
    try:
        skeleton_hash = "skel:" + family.skeleton().content_hash()
    except NotImplementedError:
        zero = tuple([0] * family.k_bits)
        skeleton_hash = "zero:" + family.build(zero, zero).content_hash()
    return FamilyKey(family=type(family).__name__,
                     skeleton_hash=skeleton_hash,
                     k_bits=int(family.k_bits))


class SweepStore:
    """Persistent ``(family key, x, y) → decision`` store (see module
    docstring for key semantics, layout, and concurrency guarantees).

    ``sweep_stale=True`` (the default) removes stale ``*.tmp`` leftovers
    of killed writers on startup; shard workers pass ``False`` so a
    fleet of forks does not rescan the tree once per shard.
    """

    def __init__(self, root: Optional[str] = None,
                 sweep_stale: bool = True) -> None:
        self.root = os.fspath(root) if root else default_sweep_store_dir()
        self._meta_written: Set[str] = set()
        if sweep_stale and os.path.isdir(self.root):
            for name in os.listdir(self.root):
                fdir = os.path.join(self.root, name)
                if os.path.isdir(fdir):
                    sweep_stale_tmp(fdir)

    # -- paths ---------------------------------------------------------
    def family_dir(self, fkey: FamilyKey) -> str:
        return os.path.join(self.root, fkey.digest)

    @staticmethod
    def _pair_name(x: Sequence[int], y: Sequence[int]) -> str:
        raw = f"{_bits_str(x)}:{_bits_str(y)}"
        return hashlib.sha256(raw.encode()).hexdigest() + ".json"

    # -- read side -----------------------------------------------------
    def _read_entry(self, path: str, k_bits: int) -> Optional[Tuple[Pair, bool]]:
        """Decode one entry file; None (and best-effort deletion) for
        anything corrupt, truncated, or shaped wrong — a damaged store
        degrades to recomputation, never a crash."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            x, y = payload["x"], payload["y"]
            decision = payload["decision"]
            if (not isinstance(x, str) or not isinstance(y, str)
                    or len(x) != k_bits or len(y) != k_bits
                    or (set(x) | set(y)) - {"0", "1"}
                    or not isinstance(decision, bool)):
                raise ValueError("malformed sweep entry")
        except (OSError, ValueError, KeyError, TypeError):
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        return (_bits_tuple(x), _bits_tuple(y)), decision

    def lookup(self, fkey: FamilyKey, x: Sequence[int],
               y: Sequence[int]) -> Optional[bool]:
        """The stored decision for one pair, or None when absent."""
        path = os.path.join(self.family_dir(fkey), self._pair_name(x, y))
        if not os.path.exists(path):
            return None
        entry = self._read_entry(path, fkey.k_bits)
        return None if entry is None else entry[1]

    def load_pairs(self, fkey: FamilyKey) -> Dict[Pair, bool]:
        """Every stored decision for one family key (one directory
        scan; corrupt entries are skipped)."""
        fdir = self.family_dir(fkey)
        out: Dict[Pair, bool] = {}
        try:
            names = os.listdir(fdir)
        except OSError:
            return out
        for fname in names:
            if not fname.endswith(".json") or fname == "meta.json":
                continue
            entry = self._read_entry(os.path.join(fdir, fname), fkey.k_bits)
            if entry is not None:
                out[entry[0]] = entry[1]
        return out

    def coverage(self, fkey: FamilyKey,
                 pairs: Sequence[Pair]) -> int:
        """How many of ``pairs`` already have a stored decision."""
        stored = self.load_pairs(fkey)
        return sum(1 for x, y in pairs
                   if (tuple(x), tuple(y)) in stored)

    # -- write side ----------------------------------------------------
    def _write_meta(self, fkey: FamilyKey, fdir: str) -> None:
        if fdir in self._meta_written:
            return
        self._meta_written.add(fdir)
        path = os.path.join(fdir, "meta.json")
        if os.path.exists(path):
            return
        payload = {"family": fkey.family,
                   "skeleton_hash": fkey.skeleton_hash,
                   "k_bits": fkey.k_bits}
        atomic_write_json(path, payload)

    def store(self, fkey: FamilyKey, x: Sequence[int], y: Sequence[int],
              decision: bool) -> None:
        """Persist one decision atomically; an unwritable store degrades
        to memory-only (the sweep memo still holds the decision)."""
        fdir = self.family_dir(fkey)
        payload = {"x": _bits_str(x), "y": _bits_str(y),
                   "decision": bool(decision)}
        try:
            os.makedirs(fdir, exist_ok=True)
            self._write_meta(fkey, fdir)
            atomic_write_json(
                os.path.join(fdir, self._pair_name(x, y)), payload)
        except OSError:
            pass

    # -- maintenance ---------------------------------------------------
    def clear(self, fkey: Optional[FamilyKey] = None) -> None:
        """Delete every entry (or just one family's), ``*.tmp`` leftovers
        included."""
        if fkey is not None:
            dirs = [self.family_dir(fkey)]
        else:
            try:
                dirs = [os.path.join(self.root, n)
                        for n in os.listdir(self.root)]
            except OSError:
                return
        for fdir in dirs:
            try:
                names = os.listdir(fdir)
            except OSError:
                continue
            for fname in names:
                if fname.endswith(".json") or fname.endswith(".tmp"):
                    try:
                        os.unlink(os.path.join(fdir, fname))
                    except OSError:
                        pass
            try:
                os.rmdir(fdir)
            except OSError:
                pass
        self._meta_written.clear()
