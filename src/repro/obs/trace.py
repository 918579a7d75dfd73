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
round accounting).  On disk, events go to the ``.rtb`` format of
:mod:`repro.obs.binary`.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any, Dict, Iterator, List, Optional, Protocol, Sequence,
    runtime_checkable,
)


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


# ----------------------------------------------------------------------
# Ambient default tracer: lets callers like the experiment runner turn
# tracing on for whole code regions without threading a tracer through
# every simulator construction site.
# ----------------------------------------------------------------------
class _TraceDirectory:
    def __init__(self, directory: str, prefix: str) -> None:
        self.directory = directory
        self.prefix = prefix
        self.seq = 0
        self.tracers: List[TracerBase] = []

    def new_tracer(self) -> TracerBase:
        from repro.obs.binary import BinaryTracer
        self.seq += 1
        path = os.path.join(self.directory,
                            f"{self.prefix}-{self.seq:04d}.rtb")
        tracer = BinaryTracer(path)
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
                       prefix: str = "trace") -> Iterator[str]:
    """Every simulator constructed inside the ``with`` block writes its
    events to ``directory/<prefix>-NNNN.rtb``.  Yields the directory."""
    global _ACTIVE_TRACE_DIR
    os.makedirs(directory, exist_ok=True)
    previous = _ACTIVE_TRACE_DIR
    _ACTIVE_TRACE_DIR = _TraceDirectory(directory, prefix)
    try:
        yield directory
    finally:
        _ACTIVE_TRACE_DIR.close()
        _ACTIVE_TRACE_DIR = previous
