"""The Theorem 1.1 simulation argument, executed for real.

Given a family instance with partition (VA, VB), Alice simulates G[VA]
and Bob simulates G[VB]; a T-round CONGEST algorithm costs them at most
2·T·|Ecut|·B bits, B the bandwidth.  Combined with CC(f) ≥ K for the
reduced-from function f, this yields the paper's round lower bound

    T = Ω( CC(f) / (|Ecut| · log n) ).

``simulate_two_party`` runs an actual algorithm and measures the bits that
cross the cut (verifying the 2·T·|Ecut|·B accounting), and
``implied_round_lower_bound`` evaluates the formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Optional, Set, Tuple

from repro.congest.model import CongestSimulator, NodeAlgorithm
from repro.graphs import Graph, Vertex
from repro.obs.trace import Tracer


@dataclass
class TwoPartySimulation:
    """Outcome of co-simulating a CONGEST algorithm across a fixed cut."""

    rounds: int
    cut_bits: int
    cut_messages: int
    ecut_size: int
    bandwidth: int
    outputs: Dict[Vertex, Any] = field(repr=False, default_factory=dict)
    #: bits crossing the cut in each round (round 0 = ``on_start``),
    #: counted by the simulator as each message is sent.
    cut_bits_by_round: Dict[int, int] = field(repr=False, default_factory=dict)

    @property
    def bits_budget(self) -> int:
        """Theorem 1.1's accounting: 2 · rounds · |Ecut| · bandwidth."""
        return 2 * self.rounds * self.ecut_size * self.bandwidth

    @property
    def within_budget(self) -> bool:
        return self.cut_bits <= self.bits_budget


def simulate_two_party(
    graph: Graph,
    va: Iterable[Vertex],
    algorithm_factory: Callable[[], NodeAlgorithm],
    inputs: Optional[Dict[Vertex, Any]] = None,
    bandwidth: Optional[float] = None,
    bandwidth_factor: int = 8,
    max_rounds: int = 100000,
    tracer: Optional[Tracer] = None,
) -> TwoPartySimulation:
    """Run ``algorithm_factory`` on ``graph``, charging only cut traffic.

    ``va`` is Alice's vertex set; everything else is Bob's.  Messages
    within a side are free (each player simulates its side locally);
    messages across the cut are the protocol's communication.

    ``bandwidth``/``bandwidth_factor`` follow the
    :class:`CongestSimulator` convention: ``bandwidth=None`` selects the
    standard CONGEST ``bandwidth_factor·log2 n`` bits, ``math.inf`` the
    LOCAL model, and any other value a custom per-edge bound — so the
    Theorem 1.1 accounting can be measured under every model.

    The cut bits are counted twice, independently, by the simulator
    itself (see :class:`CongestSimulator`): once as each message passes
    the bandwidth check and once from the precomputed cut edges as each
    outbox is delivered.  The two totals are asserted equal, so the
    Theorem 1.1 accounting is cross-checked on every simulation.  Neither
    count needs the event stream, so an untraced run stays on the
    simulator's fast path; an explicit ``tracer`` (e.g. a
    ``BinaryTracer``) receives the full event stream, from which
    :class:`repro.obs.metrics.CutBitCounter` recounts the same numbers.
    """
    va_set: Set[Vertex] = set(va)
    vb_set = set(graph.vertices()) - va_set
    if not va_set or not vb_set:
        raise ValueError("both sides of the partition must be non-empty")
    ecut = [(u, v) for u, v in graph.edges()
            if (u in va_set) != (v in va_set)]

    sim = CongestSimulator(graph, bandwidth=bandwidth,
                           bandwidth_factor=bandwidth_factor,
                           tracer=tracer)
    sim.cut = {sim.uid_of[v] for v in va_set}
    outputs = sim.run(algorithm_factory, inputs=inputs,
                      max_rounds=max_rounds)
    if (sim.cut_bits, sim.cut_messages) != (
            sim.delivery_cut_bits, sim.delivery_cut_messages):
        raise AssertionError(
            "cut accounting mismatch: send side counted "
            f"{sim.cut_bits} bits / {sim.cut_messages} messages, "
            f"delivery side {sim.delivery_cut_bits} / "
            f"{sim.delivery_cut_messages}")
    return TwoPartySimulation(
        rounds=sim.rounds,
        cut_bits=sim.cut_bits,
        cut_messages=sim.cut_messages,
        ecut_size=len(ecut),
        bandwidth=sim.bandwidth,
        outputs=outputs,
        cut_bits_by_round=dict(sim.cut_bits_by_round),
    )


def implied_round_lower_bound(cc_bits: float, ecut_size: int, n: int) -> float:
    """Theorem 1.1: rounds ≥ CC(f) / (2 · |Ecut| · log2 n) (constant 2 for
    the two directions of each cut edge)."""
    if ecut_size <= 0:
        raise ValueError("empty cut")
    return cc_bits / (2.0 * ecut_size * math.log2(max(2, n)))
