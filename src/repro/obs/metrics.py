"""Metric aggregation over simulator trace events.

:class:`Metrics` is itself a tracer, so it can aggregate online
(``CongestSimulator(g, tracer=Metrics())``) or be rebuilt offline from
any recorded/loaded event stream via :meth:`Metrics.from_events`.

:class:`CutBitCounter` specialises the same idea to the Theorem 1.1
accounting: given the Alice side of a vertex bipartition it counts, per
round, the bits carried by messages whose endpoints lie on opposite
sides of the cut — exactly the quantity ``cc/alice_bob.py`` charges the
two-party protocol for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.obs.trace import TraceEvent, TracerBase

DirectedEdge = Tuple[int, int]


@dataclass
class RoundStats:
    """Aggregates for one simulator round."""

    round: int
    messages: int = 0
    bits: int = 0
    active: Optional[int] = None   # vertices not yet halted at round start
    halts: int = 0
    max_message_bits: int = 0


@dataclass
class EdgeStats:
    """Aggregates for one *directed* edge (sender uid, receiver uid)."""

    edge: DirectedEdge
    messages: int = 0
    bits: int = 0
    peak_round_bits: int = 0       # most bits this edge carried in a round
    _current_round: int = field(default=-1, repr=False)
    _current_bits: int = field(default=0, repr=False)

    def add(self, round_no: int, bits: int) -> None:
        self.messages += 1
        self.bits += bits
        if round_no != self._current_round:
            self._current_round = round_no
            self._current_bits = 0
        self._current_bits += bits
        self.peak_round_bits = max(self.peak_round_bits, self._current_bits)


class Metrics(TracerBase):
    """Per-round and per-edge histograms derived from the event stream."""

    def __init__(self) -> None:
        self.n: Optional[int] = None
        self.edges: Optional[int] = None
        self.bandwidth: Optional[float] = None
        self.algorithm: Optional[str] = None
        self.rounds = 0
        self.total_messages = 0
        self.total_bits = 0
        self.per_round: Dict[int, RoundStats] = {}
        self.per_edge: Dict[DirectedEdge, EdgeStats] = {}

    # -- tracer interface ------------------------------------------------
    def emit(self, event: TraceEvent) -> None:
        kind, rnd, d = event.kind, event.round, event.data
        if kind == "run_start":
            self.n = d.get("n")
            self.edges = d.get("edges")
            self.bandwidth = d.get("bandwidth")
            self.algorithm = d.get("algorithm")
        elif kind == "round_start":
            self._round(rnd).active = d.get("active")
        elif kind == "message":
            bits = d["bits"]
            rs = self._round(rnd)
            rs.messages += 1
            rs.bits += bits
            rs.max_message_bits = max(rs.max_message_bits, bits)
            self.total_messages += 1
            self.total_bits += bits
            edge = (d["sender"], d["receiver"])
            es = self.per_edge.get(edge)
            if es is None:
                es = self.per_edge[edge] = EdgeStats(edge)
            es.add(rnd, bits)
        elif kind == "halt":
            self._round(rnd).halts += 1
        elif kind == "run_end":
            self.rounds = d.get("rounds", rnd)

    def _round(self, rnd: int) -> RoundStats:
        rs = self.per_round.get(rnd)
        if rs is None:
            rs = self.per_round[rnd] = RoundStats(rnd)
        return rs

    def consume(self, events: Iterable[TraceEvent]) -> "Metrics":
        """Feed any event iterable through :meth:`emit` — one pass,
        O(rounds + edges) memory, so a lazy ``iter_trace`` stream over a
        multi-million-event binary trace aggregates without ever being
        materialised.  Returns ``self``."""
        emit = self.emit
        for event in events:
            emit(event)
        return self

    @classmethod
    def from_events(cls, events: Iterable[TraceEvent]) -> "Metrics":
        return cls().consume(events)

    # -- derived histograms ---------------------------------------------
    def round_numbers(self) -> List[int]:
        return sorted(self.per_round)

    def round_utilization(self, rnd: int) -> Optional[float]:
        """Fraction of the network's total round capacity
        ``2 · m · bandwidth`` actually used in ``rnd`` (``None`` when the
        capacity is unknown or unbounded)."""
        bw, m = self.bandwidth, self.edges
        if not bw or not m or not math.isfinite(bw):
            return None
        return self.per_round[rnd].bits / (2.0 * m * bw)

    def edge_utilization(self, edge: DirectedEdge) -> Optional[float]:
        """Peak single-round bits on ``edge`` over the bandwidth."""
        bw = self.bandwidth
        if not bw or not math.isfinite(bw):
            return None
        return self.per_edge[edge].peak_round_bits / bw

    def busiest_edges(self, top: int = 5) -> List[EdgeStats]:
        ranked = sorted(self.per_edge.values(),
                        key=lambda e: (-e.bits, e.edge))
        return ranked[:top]

    def active_vertex_counts(self) -> Dict[int, Optional[int]]:
        return {rnd: rs.active for rnd, rs in sorted(self.per_round.items())}

    def summary(self) -> Dict[str, Any]:
        utils = [u for rnd in self.round_numbers()
                 if (u := self.round_utilization(rnd)) is not None]
        return {
            "n": self.n,
            "edges": self.edges,
            "bandwidth": self.bandwidth,
            "algorithm": self.algorithm,
            "rounds": self.rounds,
            "total_messages": self.total_messages,
            "total_bits": self.total_bits,
            "peak_round_bits": max(
                (rs.bits for rs in self.per_round.values()), default=0),
            "mean_round_utilization":
                (sum(utils) / len(utils)) if utils else None,
        }


class CutBitCounter(TracerBase):
    """Counts bits crossing a fixed vertex bipartition, per round.

    ``alice_uids`` is one side of the cut (simulator uids); a message
    counts iff exactly one endpoint is in it.  ``cut_bits`` then equals
    the communication Theorem 1.1 charges the two-party protocol.  The
    simulator keeps the same counts online (``CongestSimulator(cut=...)``);
    this replay over the event stream is their independent oracle in
    ``repro check`` and the offline count for recorded traces.
    """

    def __init__(self, alice_uids: Iterable[int]) -> None:
        self.alice: Set[int] = set(alice_uids)
        self.cut_bits = 0
        self.cut_messages = 0
        self.bits_by_round: Dict[int, int] = {}
        self.messages_by_round: Dict[int, int] = {}

    def emit(self, event: TraceEvent) -> None:
        if event.kind != "message":
            return
        d = event.data
        if (d["sender"] in self.alice) == (d["receiver"] in self.alice):
            return
        bits = d["bits"]
        rnd = event.round
        self.cut_bits += bits
        self.cut_messages += 1
        self.bits_by_round[rnd] = self.bits_by_round.get(rnd, 0) + bits
        self.messages_by_round[rnd] = self.messages_by_round.get(rnd, 0) + 1

    def consume(self, events: Iterable[TraceEvent]) -> "CutBitCounter":
        """One-pass aggregation over any event iterable (O(rounds)
        memory); returns ``self``."""
        emit = self.emit
        for event in events:
            emit(event)
        return self


def cut_bits_from_events(events: Iterable[TraceEvent],
                         alice_uids: Iterable[int]) -> CutBitCounter:
    """Replay ``events`` through a :class:`CutBitCounter` (offline use:
    recorded traces, files streamed with ``iter_trace`` or loaded with
    ``read_trace``)."""
    return CutBitCounter(alice_uids).consume(events)
