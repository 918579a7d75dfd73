"""Structured tracing for the CONGEST simulator.

The simulator emits a small, stable vocabulary of :class:`TraceEvent`
records; tracers are pluggable sinks.  The layer is designed so that the
*disabled* case costs nothing measurable: :class:`NullTracer` advertises
``enabled = False`` and the simulator skips event construction entirely,
keeping the hot message path identical to an untraced run.

Event vocabulary
----------------
========== ============================================================
kind        data payload
========== ============================================================
run_start   ``n``, ``edges`` (undirected), ``bandwidth``, ``algorithm``
round_start ``active`` (vertices not yet halted)
message     ``sender``, ``receiver``, ``bits``, ``ok`` (bandwidth check)
halt        ``uid``
round_end   ``messages``, ``bits``, ``halted`` (cumulative)
run_end     ``rounds``, ``total_messages``, ``total_bits``,
            ``max_message_bits``
========== ============================================================

``message`` events carry ``round == 0`` for messages produced by
``on_start`` (they are delivered in round 1, matching the simulator's
round accounting).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any, Dict, IO, Iterable, Iterator, List, Optional, Sequence,
)

try:  # Protocol is typing-only sugar; runtime never isinstance-checks it
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - python < 3.8
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


@dataclass(frozen=True)
class TraceEvent:
    """One structured simulator event.

    ``round`` is the simulator's round counter at emission time (0 for
    the ``on_start`` phase); ``data`` is the kind-specific payload.
    """

    kind: str
    round: int
    data: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        flat = {"kind": self.kind, "round": self.round}
        flat.update(self.data)
        return json.dumps(flat, sort_keys=True, default=repr)

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        flat = json.loads(line)
        kind = flat.pop("kind")
        rnd = flat.pop("round")
        return cls(kind=kind, round=rnd, data=flat)


@runtime_checkable
class Tracer(Protocol):
    """Sink for simulator events.  ``enabled = False`` tells the emitter
    to skip event construction altogether."""

    enabled: bool

    def emit(self, event: TraceEvent) -> None: ...

    def flush(self) -> None: ...

    def close(self) -> None: ...


class TracerBase:
    """Convenience base: enabled, with no-op ``flush``/``close``."""

    enabled = True

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def __enter__(self) -> "TracerBase":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class NullTracer(TracerBase):
    """Discards everything; ``enabled = False`` so emitters skip even
    the event construction — an untraced run and a ``NullTracer`` run
    execute the same instructions on the message hot path."""

    enabled = False

    def emit(self, event: TraceEvent) -> None:
        pass


class RecordingTracer(TracerBase):
    """Keeps every event in memory, for tests and the Metrics layer."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)

    def events_of(self, *kinds: str) -> List[TraceEvent]:
        want = set(kinds)
        return [e for e in self.events if e.kind in want]


class JsonlTracer(TracerBase):
    """Streams events as JSON lines to ``path`` (or an open file).

    The file is flushed on every ``run_end`` event, so traces from a
    process killed between runs (timed-out fork-pool workers) keep
    every completed run on disk.
    """

    def __init__(self, path_or_file: Any) -> None:
        if hasattr(path_or_file, "write"):
            self.path: Optional[str] = getattr(path_or_file, "name", None)
            self._file: IO[str] = path_or_file
            self._owns = False
        else:
            self.path = os.fspath(path_or_file)
            self._file = open(self.path, "w", encoding="utf-8")
            self._owns = True

    def emit(self, event: TraceEvent) -> None:
        self._file.write(event.to_json())
        self._file.write("\n")
        if event.kind == "run_end":
            self.flush()

    def flush(self) -> None:
        self._file.flush()

    def close(self) -> None:
        self.flush()
        if self._owns and not self._file.closed:
            self._file.close()


class MultiTracer(TracerBase):
    """Fans events out to several tracers (disabled ones are dropped)."""

    def __init__(self, tracers: Sequence[Tracer]) -> None:
        self.tracers = [t for t in tracers
                        if t is not None and getattr(t, "enabled", True)]
        self.enabled = bool(self.tracers)

    def emit(self, event: TraceEvent) -> None:
        for t in self.tracers:
            t.emit(event)

    def flush(self) -> None:
        for t in self.tracers:
            t.flush()

    def close(self) -> None:
        for t in self.tracers:
            t.close()


def open_tracer(path: Any, fmt: Optional[str] = None) -> "TracerBase":
    """Construct a file tracer for ``path``.

    ``fmt`` is ``"jsonl"``, ``"binary"``, or ``None`` to infer from the
    extension (``.jsonl``/``.json`` → JSONL, anything else → the
    compact binary format of :mod:`repro.obs.binary`).
    """
    if fmt is None:
        fmt = "jsonl" if str(path).endswith((".jsonl", ".json")) \
            else "binary"
    if fmt == "jsonl":
        return JsonlTracer(path)
    if fmt == "binary":
        from repro.obs.binary import BinaryTracer
        return BinaryTracer(path)
    raise ValueError(f"unknown trace format {fmt!r}; "
                     "expected 'jsonl' or 'binary'")


def iter_trace(path_or_file: Any) -> Iterator[TraceEvent]:
    """Lazily yield the events of a trace in either format.

    The format is auto-detected by magic bytes: binary traces (see
    :mod:`repro.obs.binary`) are streamed through an mmap-backed
    reader, everything else is parsed as JSON lines.  File objects in
    binary mode are sniffed the same way; text-mode file objects (and
    any other iterable of lines) are treated as JSONL for backward
    compatibility.  One pass, O(1) memory in the trace length.
    """
    from repro.obs.binary import MAGIC, _iter_buffer

    if hasattr(path_or_file, "read"):
        probe = path_or_file.read(0)
        if isinstance(probe, bytes):
            data = path_or_file.read()
            if data[:len(MAGIC)] == MAGIC:
                yield from _iter_buffer(memoryview(data))
            else:
                for ln in data.decode("utf-8").splitlines():
                    if ln.strip():
                        yield TraceEvent.from_json(ln)
        else:
            for ln in path_or_file:
                if ln.strip():
                    yield TraceEvent.from_json(ln)
        return
    path = os.fspath(path_or_file)
    with open(path, "rb") as fh:
        head = fh.read(len(MAGIC))
    if head == MAGIC:
        from repro.obs.binary import iter_binary_trace
        yield from iter_binary_trace(path)
        return
    with open(path, "r", encoding="utf-8") as fh:
        for ln in fh:
            if ln.strip():
                yield TraceEvent.from_json(ln)


def read_trace(path_or_file: Any) -> List[TraceEvent]:
    """Load a whole trace (JSONL or binary, auto-detected) as a list.

    Prefer :func:`iter_trace` for large traces — it streams; this
    materialises every event.
    """
    return list(iter_trace(path_or_file))


# ----------------------------------------------------------------------
# Ambient default tracer: lets callers like the experiment runner turn
# tracing on for whole code regions without threading a tracer through
# every simulator construction site.
# ----------------------------------------------------------------------
class _TraceDirectory:
    def __init__(self, directory: str, prefix: str,
                 fmt: str = "binary") -> None:
        if fmt not in ("jsonl", "binary"):
            raise ValueError(f"unknown trace format {fmt!r}; "
                             "expected 'jsonl' or 'binary'")
        self.directory = directory
        self.prefix = prefix
        self.fmt = fmt
        self.seq = 0
        self.tracers: List[TracerBase] = []

    def new_tracer(self) -> TracerBase:
        self.seq += 1
        suffix = ".jsonl" if self.fmt == "jsonl" else ".rtb"
        path = os.path.join(self.directory,
                            f"{self.prefix}-{self.seq:04d}{suffix}")
        tracer = open_tracer(path, fmt=self.fmt)
        self.tracers.append(tracer)
        return tracer

    def close(self) -> None:
        for t in self.tracers:
            t.close()


_ACTIVE_TRACE_DIR: Optional[_TraceDirectory] = None


def default_tracer() -> Optional[Tracer]:
    """The tracer a simulator should use when none is passed explicitly
    (one fresh trace file per simulator inside an active
    :func:`trace_to_directory` region; ``None`` otherwise)."""
    if _ACTIVE_TRACE_DIR is None:
        return None
    return _ACTIVE_TRACE_DIR.new_tracer()


@contextmanager
def trace_to_directory(directory: str,
                       prefix: str = "trace",
                       fmt: str = "binary") -> Iterator[str]:
    """Every simulator constructed inside the ``with`` block writes its
    events to ``directory/<prefix>-NNNN.rtb`` (compact binary, the
    default) or ``…-NNNN.jsonl`` with ``fmt="jsonl"``.  Yields the
    directory."""
    global _ACTIVE_TRACE_DIR
    os.makedirs(directory, exist_ok=True)
    previous = _ACTIVE_TRACE_DIR
    _ACTIVE_TRACE_DIR = _TraceDirectory(directory, prefix, fmt=fmt)
    try:
        yield directory
    finally:
        _ACTIVE_TRACE_DIR.close()
        _ACTIVE_TRACE_DIR = previous
