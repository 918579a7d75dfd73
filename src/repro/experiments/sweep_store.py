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
  stale decisions are never resurrected.  A parameter that only the
  deltas read (the covering collection of the directed Steiner family,
  whose collection-dependent arcs are all input arcs) enters through
  the family's ``delta_key()``.  Families that do not
  implement the skeleton/delta protocol fall back to the hash of
  ``build(0…0, 0…0)``, tagged so the two can never collide;
- ``(x, y)`` are the input bits themselves.

Invalidation is therefore structural: mutate the construction and
the key moves.  The store only needs manual clearing
(:meth:`SweepStore.clear` or delete the directory) when a *predicate
implementation* changes semantics without changing the skeleton.

Layout and concurrency
----------------------
One directory per family key (named by its digest) under the store
root (default ``~/.cache/repro/sweeps/``), holding a human-readable
``meta.json`` (written once through :func:`atomic_write_json`) and
append-only decision logs.  Each decision is one line
``<x bits>:<y bits>:<0|1>`` in the writer's own log,
``<pid>-<token>.log``, where the token is drawn once per
:class:`SweepStore` instance.  :meth:`SweepStore.append` writes a batch
of lines with a single ``os.write``; :meth:`SweepStore.store` is its
one-pair case.  Every write opens the log with ``O_APPEND`` and closes
it again, so no descriptor is held and a fork child (same token, new
pid) lands in a file of its own without any bookkeeping; concurrent
fork workers and processes therefore never share a file.  The sweep
appends the decisions of a batch kernel, which are all in memory before
any is stored, as one batch, and every per-pair solve the moment it is
made.  A write reaches the operating system at once (no fsync), so a
killed campaign keeps every completed pair and every completed batch;
a writer killed mid-``write`` can leave at most a torn last line, and
a torn batch loses only the lines after its tear.

:meth:`SweepStore.load_pairs` reads every log once and skips a torn
trailing line (no newline) and any malformed line.  A pair whose lines
disagree is *not* served: it is re-solved, so a damaged or conflicting
store degrades to a recompute, never to a wrong answer or a crash.
Entries of the older one-JSON-file-per-pair layout are not read (they
cost one recompute); :meth:`SweepStore.clear` removes them with the
logs.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Iterable, Optional, Sequence, Set, Tuple

Bits = Tuple[int, ...]
Pair = Tuple[Bits, Bits]

_APPEND = os.O_WRONLY | os.O_CREAT | os.O_APPEND


def default_cache_dir() -> str:
    """``$XDG_CACHE_HOME/repro`` (``~/.cache/repro`` by default)."""
    base = os.environ.get("XDG_CACHE_HOME")
    if not base:
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro")


def default_sweep_store_dir() -> str:
    """``$XDG_CACHE_HOME/repro/sweeps`` (``~/.cache/repro/sweeps``)."""
    return os.path.join(default_cache_dir(), "sweeps")


def atomic_write_json(path: str, payload: Any) -> None:
    """Write ``payload`` as JSON to ``path`` atomically: dump to a
    ``mkstemp`` sibling, then ``os.replace`` it into place, so readers
    see a complete old or complete new file, never a torn one.  The temp
    file is unlinked on failure; a killed writer leaves only a ``*.tmp``
    for :meth:`SweepStore.clear`.  ``OSError`` propagates to the caller.
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

    @cached_property
    def digest(self) -> str:
        """The key's directory name; hashed once per key, since the
        store asks for it on every write."""
        raw = f"{self.family}\x00{self.skeleton_hash}\x00{self.k_bits}"
        return hashlib.sha256(raw.encode()).hexdigest()

    def as_tuple(self) -> Tuple[str, str, int]:
        """A picklable flat form for worker payloads."""
        return (self.family, self.skeleton_hash, self.k_bits)


def family_key(family: Any) -> FamilyKey:
    """Compute the store key for a family instance.

    Uses the cached skeleton (one build per instance, hash cached on
    the graph) plus the family's ``delta_key()`` when it is not empty;
    non-skeleton families hash their all-zeros build under a distinct
    tag so the two schemes never collide.
    """
    try:
        skeleton_hash = "skel:" + family.skeleton().content_hash()
        delta = family.delta_key()
        if delta:
            skeleton_hash += "+delta:" + delta
    except NotImplementedError:
        zero = tuple([0] * family.k_bits)
        skeleton_hash = "zero:" + family.build(zero, zero).content_hash()
    return FamilyKey(family=type(family).__name__,
                     skeleton_hash=skeleton_hash,
                     k_bits=int(family.k_bits))


class SweepStore:
    """Persistent ``(family key, x, y) → decision`` store (see module
    docstring for key semantics, layout, and concurrency guarantees)."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = os.fspath(root) if root else default_sweep_store_dir()
        # with the pid, names this writer's log; a fork child keeps the
        # token but not the pid, so it appends to a log of its own
        self._token = os.urandom(4).hex()

    # -- paths ---------------------------------------------------------
    def family_dir(self, fkey: FamilyKey) -> str:
        return os.path.join(self.root, fkey.digest)

    # -- read side -----------------------------------------------------
    def load_pairs(self, fkey: FamilyKey) -> Dict[Pair, bool]:
        """Every stored decision for one family key: one read of each
        log.  Torn and malformed lines are skipped, and a pair whose
        lines disagree is left out, so the sweep re-solves it."""
        fdir = self.family_dir(fkey)
        try:
            names = os.listdir(fdir)
        except OSError:
            return {}
        k = fkey.k_bits
        pattern = re.compile(rb"^([01]{%d}):([01]{%d}):([01])\n" % (k, k),
                             re.MULTILINE)
        seen: Dict[Tuple[bytes, bytes], bytes] = {}
        conflicts: Set[Tuple[bytes, bytes]] = set()
        for fname in names:
            if not fname.endswith(".log"):
                continue
            try:
                with open(os.path.join(fdir, fname), "rb") as fh:
                    data = fh.read()
            except OSError:
                continue
            # a trailing line without its newline is a torn write
            data = data[:data.rfind(b"\n") + 1]
            for x, y, decision in pattern.findall(data):
                if seen.setdefault((x, y), decision) != decision:
                    conflicts.add((x, y))
        # decode each distinct bit string once, not once per pair
        bits = {s: _bits_tuple(s.decode())
                for s in {s for key in seen for s in key}}
        return {(bits[x], bits[y]): decision == b"1"
                for (x, y), decision in seen.items()
                if (x, y) not in conflicts}

    def lookup(self, fkey: FamilyKey, x: Sequence[int],
               y: Sequence[int]) -> Optional[bool]:
        """The stored decision for one pair, or None when absent or
        conflicting."""
        return self.load_pairs(fkey).get((tuple(x), tuple(y)))

    def coverage(self, fkey: FamilyKey,
                 pairs: Sequence[Pair]) -> int:
        """How many of ``pairs`` already have a stored decision."""
        stored = self.load_pairs(fkey)
        return sum(1 for x, y in pairs
                   if (tuple(x), tuple(y)) in stored)

    # -- write side ----------------------------------------------------
    @staticmethod
    def _write_meta(fkey: FamilyKey, fdir: str) -> None:
        path = os.path.join(fdir, "meta.json")
        if os.path.exists(path):
            return
        payload = {"family": fkey.family,
                   "skeleton_hash": fkey.skeleton_hash,
                   "k_bits": fkey.k_bits}
        atomic_write_json(path, payload)

    def store(self, fkey: FamilyKey, x: Sequence[int], y: Sequence[int],
              decision: bool) -> None:
        """Append one decision: the one-pair case of :meth:`append`."""
        self.append(fkey, [(x, y, decision)])

    def append(self, fkey: FamilyKey,
               entries: Iterable[Tuple[Sequence[int], Sequence[int], bool]]
               ) -> None:
        """Append ``(x, y, decision)`` entries to this writer's log with
        a single ``write``; an unwritable store degrades to memory-only
        (the sweep memo still holds the decisions).  Each distinct bit
        sequence is formatted once per call: a grid's 2^K sides recur
        across its 2^{2K} entries."""
        strs: Dict[Tuple[int, ...], str] = {}

        def fmt(bits: Sequence[int]) -> str:
            key = tuple(bits)
            text = strs.get(key)
            if text is None:
                text = strs[key] = _bits_str(key)
            return text

        data = "".join(f"{fmt(x)}:{fmt(y)}:{int(bool(d))}\n"
                       for x, y, d in entries).encode()
        if not data:
            return
        fdir = self.family_dir(fkey)
        path = os.path.join(fdir, f"{os.getpid()}-{self._token}.log")
        try:
            try:
                fd = os.open(path, _APPEND, 0o644)
            except FileNotFoundError:  # the family's first decision
                os.makedirs(fdir, exist_ok=True)
                self._write_meta(fkey, fdir)
                fd = os.open(path, _APPEND, 0o644)
            try:
                os.write(fd, data)
            finally:
                os.close(fd)
        except OSError:
            pass

    # -- maintenance ---------------------------------------------------
    def clear(self, fkey: Optional[FamilyKey] = None) -> None:
        """Delete every decision (or just one family's): logs, entries
        of the per-pair JSON layout and ``*.tmp`` leftovers alike."""
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
                if fname.endswith((".json", ".tmp", ".log")):
                    try:
                        os.unlink(os.path.join(fdir, fname))
                    except OSError:
                        pass
            try:
                os.rmdir(fdir)
            except OSError:
                pass
