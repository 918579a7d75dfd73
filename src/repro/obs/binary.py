"""Compact binary trace format (``.rtb``) for simulator event streams.

The one on-disk trace format: a versioned, struct-packed record stream
written with one precompiled :mod:`struct` pack per event, plus an
mmap-backed streaming reader that yields
:class:`~repro.obs.trace.TraceEvent` records lazily and never
materialises the full trace.  It is compact because a message event —
the bulk of every trace — is a 9-byte record.

File layout
-----------
``MAGIC`` (8 bytes, version in the last byte) followed by *frames*.
Each frame is a u32-LE payload length followed by that many bytes of
records.  Frames always end on record boundaries, so a partially
written file — a killed worker, a full disk — is readable up to the
last complete frame: the reader stops when fewer bytes remain than the
frame header promises.  :class:`BinaryTracer` seals a frame whenever
its buffer reaches ``frame_bytes`` and on every ``run_end`` event (so
completed runs are durable even if the process dies before ``close``).

Record vocabulary (all little-endian, no padding)
-------------------------------------------------
==== ============== ==================================================
code record         layout after the 1-byte code
==== ============== ==================================================
0    run_start      u32 round, u32 n, u32 edges, f64 bandwidth,
                    u32 algorithm string id
1    round_start    u32 round, u32 active
2    message        u16 round, u16 sender, u16 receiver, u16 bits
     (compact)      (implies ``ok=True``; all fields < 2**16)
3    halt           u32 round, u32 uid
4    round_end      u32 round, u32 messages, u64 bits, u32 halted
5    run_end        u32 round, u32 rounds, u64 total_messages,
                    u64 total_bits, u32 max_message_bits
6    message (wide) u32 round, u32 sender, u32 receiver, u64 bits,
                    u8 ok
7    intern         u32 string id, u16 byte length, UTF-8 bytes
                    (ids are assigned sequentially from 0; an intern
                    record always precedes the first record using it)
8    generic        u32 round, u32 kind string id, u32 byte length,
                    UTF-8 JSON object (the event's ``data`` dict)
9    blob           u32 byte length, UTF-8 JSON of the whole flattened
                    event (absolute fallback, e.g. negative rounds)
==== ============== ==================================================

Versioning rules: the last magic byte is the format version.  Within a
version, new record codes may be *added*; existing layouts never
change.  A reader seeing an unknown magic or record code raises
:class:`TraceFormatError` rather than guessing.

The six standard event kinds are implied by their record codes; only
algorithm names and non-standard kinds go through the string table.
``bandwidth`` is stored as f64 (it may be ``math.inf`` for the LOCAL
model) and decoded back to ``int`` when integral, so round-tripped
events compare equal to the originals.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
from typing import Any, IO, Iterator, List, Optional, Union

from repro.obs.trace import TraceEvent, TracerBase

__all__ = [
    "MAGIC",
    "BinaryTracer",
    "TraceFormatError",
    "iter_trace",
    "read_trace",
]

#: File magic; the final byte is the format version.
MAGIC = b"RPROTRC\x01"

_FRAME = struct.Struct("<I")           # frame payload byte length
_RUN_START = struct.Struct("<BIIIdI")  # code, round, n, edges, bw, alg id
_ROUND_START = struct.Struct("<BII")   # code, round, active
_MSG_COMPACT = struct.Struct("<BHHHH")  # code, round, sender, receiver, bits
_HALT = struct.Struct("<BII")          # code, round, uid
_ROUND_END = struct.Struct("<BIIQI")   # code, round, messages, bits, halted
_RUN_END = struct.Struct("<BIIQQI")    # code, round, rounds, msgs, bits, max
_MSG_WIDE = struct.Struct("<BIIIQB")   # code, round, sender, receiver,
                                       # bits, ok
_INTERN = struct.Struct("<BIH")        # code, string id, byte length
_GENERIC = struct.Struct("<BIII")      # code, round, kind id, byte length
_BLOB = struct.Struct("<BI")           # code, byte length


class TraceFormatError(ValueError):
    """The bytes are not a binary trace this reader understands."""


class _NeedWide(Exception):
    """Internal: the compact message layout cannot hold this event."""


class BinaryTracer(TracerBase):
    """Streams events to ``path`` (or an open binary file) in the
    framed record format described in the module docstring.

    Frames are sealed at ``frame_bytes`` and on every ``run_end``
    event; ``close`` (guaranteed on exceptions via
    ``TracerBase.__exit__``) seals the trailing frame, so a trace is
    readable up to the last completed run even if the writing process
    was killed mid-run.
    """

    def __init__(self, path_or_file: Any, frame_bytes: int = 1 << 16) -> None:
        if hasattr(path_or_file, "write"):
            self.path: Optional[str] = getattr(path_or_file, "name", None)
            self._file: IO[bytes] = path_or_file
            self._owns = False
        else:
            self.path = os.fspath(path_or_file)
            self._file = open(self.path, "wb")
            self._owns = True
        self._frame_bytes = frame_bytes
        self._buf = bytearray()
        self._strings: dict = {}
        self._file.write(MAGIC)

    # -- encoding --------------------------------------------------------
    def emit(self, event: TraceEvent) -> None:
        buf = self._buf
        kind = event.kind
        d = event.data
        try:
            if kind == "message" and len(d) == 4:
                try:
                    if d["ok"] is not True:
                        raise _NeedWide
                    buf += _MSG_COMPACT.pack(2, event.round, d["sender"],
                                             d["receiver"], d["bits"])
                except (_NeedWide, struct.error):
                    buf += _MSG_WIDE.pack(6, event.round, d["sender"],
                                          d["receiver"], d["bits"],
                                          1 if d["ok"] else 0)
            elif kind == "round_start" and len(d) == 1:
                buf += _ROUND_START.pack(1, event.round, d["active"])
            elif kind == "halt" and len(d) == 1:
                buf += _HALT.pack(3, event.round, d["uid"])
            elif kind == "round_end" and len(d) == 3:
                buf += _ROUND_END.pack(4, event.round, d["messages"],
                                       d["bits"], d["halted"])
            elif kind == "run_start" and len(d) == 4:
                buf += _RUN_START.pack(0, event.round, d["n"], d["edges"],
                                       d["bandwidth"],
                                       self._intern(d["algorithm"]))
            elif kind == "run_end" and len(d) == 4:
                buf += _RUN_END.pack(5, event.round, d["rounds"],
                                     d["total_messages"], d["total_bits"],
                                     d["max_message_bits"])
                self.flush()  # completed runs are durable on disk
                return
            else:
                self._emit_generic(event)
        except (KeyError, TypeError, ValueError, struct.error):
            self._emit_generic(event)
        if len(buf) >= self._frame_bytes:
            self._seal_frame()

    def _intern(self, s: str) -> int:
        sid = self._strings.get(s)
        if sid is None:
            raw = s.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise ValueError("string too long to intern")
            sid = self._strings[s] = len(self._strings)
            self._buf += _INTERN.pack(7, sid, len(raw))
            self._buf += raw
        return sid

    def _emit_generic(self, event: TraceEvent) -> None:
        try:
            kid = self._intern(event.kind)
            payload = json.dumps(event.data, sort_keys=True,
                                 default=repr).encode("utf-8")
            self._buf += _GENERIC.pack(8, event.round, kid, len(payload))
            self._buf += payload
        except (TypeError, ValueError, struct.error):
            blob = event.to_json().encode("utf-8")
            self._buf += _BLOB.pack(9, len(blob))
            self._buf += blob

    # -- framing ---------------------------------------------------------
    def _seal_frame(self) -> None:
        if self._buf:
            self._file.write(_FRAME.pack(len(self._buf)))
            self._file.write(self._buf)
            self._buf.clear()

    def flush(self) -> None:
        self._seal_frame()
        self._file.flush()

    def close(self) -> None:
        self.flush()
        if self._owns and not self._file.closed:
            self._file.close()


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------
def _decode_frame(view: Any, pos: int, end: int,
                  strings: List[str]) -> Iterator[TraceEvent]:
    """Decode the records of one complete frame.  ``strings`` is the
    cross-frame intern table (mutated in place)."""
    while pos < end:
        code = view[pos]
        if code == 2:
            __, rnd, s, r, b = _MSG_COMPACT.unpack_from(view, pos)
            pos += _MSG_COMPACT.size
            yield TraceEvent("message", rnd,
                             {"sender": s, "receiver": r, "bits": b,
                              "ok": True})
        elif code == 6:
            __, rnd, s, r, b, ok = _MSG_WIDE.unpack_from(view, pos)
            pos += _MSG_WIDE.size
            yield TraceEvent("message", rnd,
                             {"sender": s, "receiver": r, "bits": b,
                              "ok": bool(ok)})
        elif code == 1:
            __, rnd, active = _ROUND_START.unpack_from(view, pos)
            pos += _ROUND_START.size
            yield TraceEvent("round_start", rnd, {"active": active})
        elif code == 3:
            __, rnd, uid = _HALT.unpack_from(view, pos)
            pos += _HALT.size
            yield TraceEvent("halt", rnd, {"uid": uid})
        elif code == 4:
            __, rnd, msgs, bits, halted = _ROUND_END.unpack_from(view, pos)
            pos += _ROUND_END.size
            yield TraceEvent("round_end", rnd,
                             {"messages": msgs, "bits": bits,
                              "halted": halted})
        elif code == 0:
            __, rnd, n, m, bw, aid = _RUN_START.unpack_from(view, pos)
            pos += _RUN_START.size
            if bw.is_integer():
                bw = int(bw)
            yield TraceEvent("run_start", rnd,
                             {"n": n, "edges": m, "bandwidth": bw,
                              "algorithm": strings[aid]})
        elif code == 5:
            __, rnd, rounds, tm, tb, mmb = _RUN_END.unpack_from(view, pos)
            pos += _RUN_END.size
            yield TraceEvent("run_end", rnd,
                             {"rounds": rounds, "total_messages": tm,
                              "total_bits": tb, "max_message_bits": mmb})
        elif code == 7:
            __, sid, ln = _INTERN.unpack_from(view, pos)
            pos += _INTERN.size
            if sid != len(strings):
                raise TraceFormatError(
                    f"intern id {sid} out of sequence "
                    f"(table has {len(strings)} entries)")
            strings.append(bytes(view[pos:pos + ln]).decode("utf-8"))
            pos += ln
        elif code == 8:
            __, rnd, kid, ln = _GENERIC.unpack_from(view, pos)
            pos += _GENERIC.size
            data = json.loads(bytes(view[pos:pos + ln]).decode("utf-8"))
            pos += ln
            yield TraceEvent(strings[kid], rnd, data)
        elif code == 9:
            __, ln = _BLOB.unpack_from(view, pos)
            pos += _BLOB.size
            yield TraceEvent.from_json(
                bytes(view[pos:pos + ln]).decode("utf-8"))
            pos += ln
        else:
            raise TraceFormatError(f"unknown record code {code}")


def _iter_buffer(view: Any) -> Iterator[TraceEvent]:
    size = len(view)
    if size < len(MAGIC) or bytes(view[:len(MAGIC)]) != MAGIC:
        raise TraceFormatError("not a binary trace (bad magic bytes)")
    strings: List[str] = []
    pos = len(MAGIC)
    while pos + _FRAME.size <= size:
        (length,) = _FRAME.unpack_from(view, pos)
        pos += _FRAME.size
        if pos + length > size:
            break  # truncated trailing frame: stop at the last whole one
        yield from _decode_frame(view, pos, pos + length, strings)
        pos += length


def iter_trace(
        path_or_file: Union[str, os.PathLike, IO[bytes]],
) -> Iterator[TraceEvent]:
    """Lazily yield the events of a ``.rtb`` trace.

    Paths are mmap-ed, so rendering a report from a multi-million-event
    trace touches pages on demand and never materialises the event
    list; binary-mode file objects are read into memory (they may not
    be mmap-able).  A file whose final frame was cut short — a killed
    worker — yields every event of the complete frames and stops.
    Anything else — a text-mode file object, a file of another format —
    raises :class:`TraceFormatError`.
    """
    if hasattr(path_or_file, "read"):
        data = path_or_file.read()
        if isinstance(data, str):
            raise TraceFormatError(
                "binary traces must be opened in binary mode")
        yield from _iter_buffer(memoryview(data))
        return
    fh = open(os.fspath(path_or_file), "rb")
    try:
        try:
            mm: Any = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):  # empty or unmappable file
            yield from _iter_buffer(memoryview(fh.read()))
            return
        view = memoryview(mm)
        try:
            yield from _iter_buffer(view)
        finally:
            view.release()
            mm.close()
    finally:
        fh.close()


def read_trace(path_or_file: Any) -> List[TraceEvent]:
    """Load a whole ``.rtb`` trace as a list.

    Prefer :func:`iter_trace` for large traces — it streams; this
    materialises every event.
    """
    return list(iter_trace(path_or_file))
