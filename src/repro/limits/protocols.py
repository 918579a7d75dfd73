"""Two-party protocols behind the limitation claims (Section 5.1).

Each protocol operates on a :class:`PartitionedInstance` — a graph with
a fixed (VA, VB) split, where Alice sees G[VA] ∪ Ecut and Bob sees
G[VB] ∪ Ecut (as in Definition 1.1) — and routes every cross-player bit
through a :class:`~repro.cc.protocol.Channel`.  The claims bound the
bits; the tests assert both the bit bounds and the approximation
guarantees against exact optima.

Local computation is unbounded (both in CONGEST and in communication
complexity), so the players use the exact solvers on their own sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.cc.protocol import Channel
from repro.graphs import Graph, Vertex, label_sort_key
from repro.solvers.dominating import (
    constrained_min_dominating_set,
    min_dominating_set,
)
from repro.solvers.maxcut import cut_weight, max_cut
from repro.solvers.mis import max_independent_set
from repro.solvers.vertex_cover import is_vertex_cover, min_vertex_cover


@dataclass
class PartitionedInstance:
    """A lower-bound-graph instance as seen by the two players."""

    graph: Graph
    alice: Set[Vertex]

    @property
    def bob(self) -> Set[Vertex]:
        return set(self.graph.vertices()) - self.alice

    def cut_edges(self) -> List[Tuple[Vertex, Vertex]]:
        return [(u, v) for u, v in self.graph.edges()
                if (u in self.alice) != (v in self.alice)]

    def cut_vertices(self) -> Set[Vertex]:
        out: Set[Vertex] = set()
        for u, v in self.cut_edges():
            out.update((u, v))
        return out

    def internal_edges(self, side: Set[Vertex]) -> List[Tuple[Vertex, Vertex]]:
        return [(u, v) for u, v in self.graph.edges()
                if u in side and v in side]

    def side_graph(self, side: Set[Vertex]) -> Graph:
        return self.graph.induced_subgraph(side)


def _exchange_edges(inst: PartitionedInstance, channel: Channel) -> None:
    """Both players learn the whole graph (m·O(log n) bits)."""
    uid = {v: i for i, v in enumerate(sorted(inst.graph.vertices(), key=repr))}
    channel.a_to_b([(uid[u], uid[v])
                    for u, v in inst.internal_edges(inst.alice)])
    channel.b_to_a([(uid[u], uid[v])
                    for u, v in inst.internal_edges(inst.bob)])


# ----------------------------------------------------------------------
# Claims 5.1-5.3: bounded-degree (1 ± ε) protocols
# ----------------------------------------------------------------------
def mvc_bounded_degree_protocol(inst: PartitionedInstance, epsilon: float,
                                channel: Channel) -> List[Vertex]:
    """Claim 5.1: a (1+ε)-approximate MVC with O(|Ecut|·log n/ε) bits on
    bounded-degree instances."""
    g = inst.graph
    m = channel.a_to_b(len(inst.internal_edges(inst.alice))) + \
        len(inst.internal_edges(inst.bob)) + len(inst.cut_edges())
    delta = max(channel.b_to_a(
        max((g.degree(v) for v in inst.bob), default=0)),
        max((g.degree(v) for v in inst.alice), default=0))
    if delta and len(inst.cut_edges()) <= epsilon * m / (2 * delta):
        cover = list(inst.cut_vertices())
        cover += min_vertex_cover(inst.side_graph(inst.alice - set(cover)))
        cover += min_vertex_cover(inst.side_graph(inst.bob - set(cover)))
        # O(log n): confirm completion
        channel.a_to_b(1)
        return cover
    _exchange_edges(inst, channel)
    return min_vertex_cover(g)


def mds_bounded_degree_protocol(inst: PartitionedInstance, epsilon: float,
                                channel: Channel) -> List[Vertex]:
    """Claim 5.2: a (1+ε)-approximate MDS with O(|Ecut|·log n/ε) bits on
    bounded-degree instances."""
    g = inst.graph
    m = channel.a_to_b(len(inst.internal_edges(inst.alice))) + \
        len(inst.internal_edges(inst.bob)) + len(inst.cut_edges())
    delta = max(channel.b_to_a(
        max((g.degree(v) for v in inst.bob), default=0)),
        max((g.degree(v) for v in inst.alice), default=0))
    cut_verts = inst.cut_vertices()
    if delta and len(inst.cut_edges()) <= epsilon * m / (2 * (delta + 1) * delta):
        solution = list(cut_verts)
        for side in (inst.alice, inst.bob):
            internal = side - cut_verts
            __, picked = constrained_min_dominating_set(
                g.induced_subgraph(side), targets=internal)
            solution += picked or []
        channel.a_to_b(1)
        return solution
    _exchange_edges(inst, channel)
    return min_dominating_set(g)


def maxis_bounded_degree_protocol(inst: PartitionedInstance, epsilon: float,
                                  channel: Channel) -> List[Vertex]:
    """Claim 5.3: a (1−ε)-approximate MaxIS with O(|Ecut|·log n/ε) bits
    on bounded-degree instances."""
    g = inst.graph
    m = channel.a_to_b(len(inst.internal_edges(inst.alice))) + \
        len(inst.internal_edges(inst.bob)) + len(inst.cut_edges())
    delta = max(channel.b_to_a(
        max((g.degree(v) for v in inst.bob), default=0)),
        max((g.degree(v) for v in inst.alice), default=0))
    cut_verts = inst.cut_vertices()
    if delta and len(inst.cut_edges()) <= epsilon * m / ((delta + 1) * delta):
        solution: List[Vertex] = []
        for side in (inst.alice, inst.bob):
            internal = side - cut_verts
            solution += max_independent_set(g.induced_subgraph(internal))
        channel.a_to_b(1)
        return solution
    _exchange_edges(inst, channel)
    return max_independent_set(g)


# ----------------------------------------------------------------------
# Claims 5.4-5.5: max-cut protocols on general graphs
# ----------------------------------------------------------------------
def maxcut_unweighted_protocol(inst: PartitionedInstance, epsilon: float,
                               channel: Channel) -> List[Vertex]:
    """Claim 5.4: a (1−ε)-approximate unweighted max-cut."""
    g = inst.graph
    m = channel.a_to_b(len(inst.internal_edges(inst.alice))) + \
        len(inst.internal_edges(inst.bob)) + len(inst.cut_edges())
    if len(inst.cut_edges()) <= epsilon * m / 2:
        __, side_a = max_cut(inst.side_graph(inst.alice))
        __, side_b = max_cut(inst.side_graph(inst.bob))
        channel.a_to_b(1)
        return list(side_a) + list(side_b)
    _exchange_edges(inst, channel)
    __, side = max_cut(g)
    return list(side)


def maxcut_weighted_two_thirds_protocol(inst: PartitionedInstance,
                                        channel: Channel) -> List[Vertex]:
    """Claim 5.5 ([30, §2.3]): a 2/3-approximate weighted max-cut with
    O(|Ecut|·log n) bits.

    Alice solves (V, EA) optimally, Bob solves (V, EB ∪ Ecut); vertices
    outside a player's edge set default to side 0, so only cut-incident
    assignments cross the channel.  One of CA, CB, CA ⊕ CB achieves 2/3.
    """
    g = inst.graph
    cut_verts = sorted(inst.cut_vertices(), key=repr)
    # Alice's cut of her internal edges
    ga = inst.side_graph(inst.alice)
    __, ca_side = max_cut(ga)
    ca = {v: (1 if v in set(ca_side) else 0) for v in inst.alice}
    # Bob's cut of his internal + cut edges
    gb = Graph()
    gb.add_vertices(sorted(inst.bob | inst.cut_vertices(),
                           key=label_sort_key))
    for u, v in inst.internal_edges(inst.bob) + inst.cut_edges():
        gb.add_edge(u, v, weight=g.edge_weight(u, v))
    __, cb_side = max_cut(gb)
    cb = {v: (1 if v in set(cb_side) else 0) for v in gb.vertices()}
    # exchange the cut-incident assignments (O(|Ecut| log n) bits)
    channel.a_to_b([(repr(v), ca.get(v, 0)) for v in cut_verts
                    if v in inst.alice])
    channel.b_to_a([(repr(v), cb.get(v, 0)) for v in cut_verts
                    if v in inst.bob])

    def full_assignment(base: Dict[Vertex, int]) -> Dict[Vertex, int]:
        return {v: base.get(v, 0) for v in g.vertices()}

    cand_a = full_assignment(ca)
    cand_b = full_assignment(cb)
    cand_xor = {v: cand_a[v] ^ cand_b[v] for v in g.vertices()}
    # the players evaluate all three candidates; each evaluation needs
    # only the already-exchanged cut-incident values, plus exchanging
    # the three per-side partial weights (O(log W) bits)
    best = None
    best_w = -1.0
    for cand in (cand_a, cand_b, cand_xor):
        side = [v for v, s in cand.items() if s == 1]
        w = cut_weight(g, side)
        channel.a_to_b(int(w))
        if w > best_w:
            best_w = w
            best = side
    assert best is not None
    return best


# ----------------------------------------------------------------------
# Claims 5.6-5.9: MVC / MDS / MaxIS protocols on general graphs
# ----------------------------------------------------------------------
def mvc_three_halves_protocol(inst: PartitionedInstance,
                              channel: Channel) -> List[Vertex]:
    """Claim 5.6: a 3/2-approximate MVC with O(|Ecut|·log n) bits."""
    g = inst.graph
    opt_a = len(min_vertex_cover(inst.side_graph(inst.alice)))
    opt_b = channel.b_to_a(
        len(min_vertex_cover(inst.side_graph(inst.bob))))
    channel.a_to_b(opt_a)
    small_side, big_side = ((inst.alice, inst.bob) if opt_a <= opt_b
                            else (inst.bob, inst.alice))
    # the small side covers its internal edges optimally; the other
    # player covers everything touching its side (cut edges included)
    cover = list(min_vertex_cover(inst.side_graph(small_side)))
    big = Graph()
    # canonical order: which optimum min_vertex_cover returns depends on
    # vertex insertion order, so set order would make the cover (and the
    # reported ratio) depend on PYTHONHASHSEED
    big.add_vertices(sorted(big_side | inst.cut_vertices(),
                            key=label_sort_key))
    for u, v in inst.internal_edges(big_side) + inst.cut_edges():
        big.add_edge(u, v)
    big_cover = min_vertex_cover(big)
    # announce the chosen cut vertices of the other side (O(|Ecut| log n))
    channel.b_to_a([repr(v) for v in big_cover if v in inst.cut_vertices()])
    return cover + list(big_cover)


def mvc_ptas_protocol(inst: PartitionedInstance, epsilon: float,
                      channel: Channel) -> List[Vertex]:
    """Claim 5.7: a (1+ε)-approximate MVC with
    O(|Ecut|·log n·OPT/ε) bits (after [5])."""
    g = inst.graph
    rough = mvc_three_halves_protocol(inst, channel)
    k = len(rough)  # OPT <= k <= 3/2 OPT
    cut = inst.cut_edges()
    if len(cut) < epsilon * k / 3:
        cover = list(inst.cut_vertices())
        cover += min_vertex_cover(inst.side_graph(inst.alice - set(cover)))
        cover += min_vertex_cover(inst.side_graph(inst.bob - set(cover)))
        return cover
    # high-degree vertices must be in any optimal cover
    forced = [v for v in g.vertices() if g.degree(v) > k]
    channel.a_to_b([repr(v) for v in forced
                    if v in inst.alice and v in inst.cut_vertices()])
    channel.b_to_a([repr(v) for v in forced
                    if v in inst.bob and v in inst.cut_vertices()])
    remaining = Graph()
    remaining.add_vertices(g.vertices())
    forced_set = set(forced)
    for u, v in g.edges():
        if u not in forced_set and v not in forced_set:
            remaining.add_edge(u, v)
    # the remaining graph has ≤ k² edges; both players learn it
    uid = {v: i for i, v in enumerate(sorted(g.vertices(), key=repr))}
    channel.a_to_b([(uid[u], uid[v]) for u, v in remaining.edges()
                    if u in inst.alice and v in inst.alice])
    channel.b_to_a([(uid[u], uid[v]) for u, v in remaining.edges()
                    if u in inst.bob and v in inst.bob])
    return forced + min_vertex_cover(remaining)


def mds_two_approx_protocol(inst: PartitionedInstance,
                            channel: Channel) -> List[Vertex]:
    """Claim 5.8: a 2-approximate weighted MDS with O(|Ecut|·log n) bits.

    Each player dominates its own side optimally, possibly using
    cut-neighbours of the other side (which it sees via the fixed cut);
    it announces those choices.
    """
    g = inst.graph
    solution: List[Vertex] = []
    for side in (inst.alice, inst.bob):
        visible = side | {w for v in side.copy()
                          for w in g.neighbors(v)}
        sub = g.induced_subgraph(visible)
        __, picked = constrained_min_dominating_set(
            sub, targets=side, weighted=True)
        assert picked is not None
        solution += picked
        channel.a_to_b([repr(v) for v in picked if v not in side])
    return solution


def maxis_half_protocol(inst: PartitionedInstance,
                        channel: Channel) -> List[Vertex]:
    """Claim 5.9: a 1/2-approximate weighted MaxIS with O(log n) bits."""
    g = inst.graph
    best_a = max_independent_set(inst.side_graph(inst.alice), weighted=True)
    best_b = max_independent_set(inst.side_graph(inst.bob), weighted=True)
    wa = sum(g.vertex_weight(v) for v in best_a)
    wb = sum(g.vertex_weight(v) for v in best_b)
    channel.a_to_b(int(wa))
    channel.b_to_a(int(wb))
    return best_a if wa >= wb else best_b


# ----------------------------------------------------------------------
# the triangle-detection observation ([16], recalled in Section 5)
# ----------------------------------------------------------------------
def triangle_detection_protocol(inst: PartitionedInstance,
                                channel: Channel) -> bool:
    """Two bits decide triangle existence in the fixed-cut setting.

    Every triangle has at least two vertices on one side; that side's
    player sees all three of its edges (the internal edge plus the two
    fixed cut edges), so each player checks locally and they exchange
    single bits — the [16] argument for why Theorem 1.1 cannot give
    *any* lower bound for triangle detection.
    """
    g = inst.graph

    def side_sees_triangle(side: Set[Vertex]) -> bool:
        visible = [(u, v) for u, v in g.edges()
                   if u in side or v in side]
        adj: Dict[Vertex, Set[Vertex]] = {}
        for u, v in visible:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        for u, v in visible:
            if u in side or v in side:
                common = adj.get(u, set()) & adj.get(v, set())
                for w in common:
                    # the majority side must see all three edges
                    members = [u, v, w]
                    inside = sum(1 for m in members if m in side)
                    if inside >= 2:
                        return True
        return False

    alice_found = side_sees_triangle(inst.alice)
    bob_found = side_sees_triangle(inst.bob)
    channel.a_to_b(alice_found)
    channel.b_to_a(bob_found)
    return alice_found or bob_found


# ----------------------------------------------------------------------
# Claim 3.6: solving DISJ through a bounded-degree MaxIS algorithm
# ----------------------------------------------------------------------
def collected_graph(graph: Graph,
                    edge_records: Sequence[Tuple[int, int, Any]]) -> Graph:
    """The graph the collect-and-solve leader learned, rebuilt over
    ``graph``'s labels (simulator uid ``i`` is the ``i``-th label in
    :func:`label_sort_key` order).

    A correct collection gives a graph with ``graph``'s
    ``content_hash``; a wrong one hashes differently.
    """
    labels = sorted(graph.vertices(), key=label_sort_key)
    g = Graph()
    g.add_vertices(labels)
    for u, v, __ in edge_records:
        g.add_edge(labels[u], labels[v])
    return g


def solve_disjointness_via_bounded_degree_maxis(
    construction, x: Sequence[int], y: Sequence[int],
) -> Tuple[bool, int, int]:
    """The Claim 3.6 simulation: Alice and Bob build G′ on their own
    sides, run a CONGEST MaxIS algorithm across the cut, exchange m_G
    and m_exp, and read DISJ off α(G′).

    Uses the universal exact algorithm as the simulated MaxIS algorithm.
    Returns (disjointness answer, cut bits exchanged, rounds).
    """
    from repro.cc.alice_bob import simulate_two_party
    from repro.congest.algorithms import run_universal_exact
    from repro.congest.algorithms.collect import CollectAndSolve
    from repro.congest.model import message_bits

    instance = construction.build(x, y)
    gprime = instance.graph

    def solver(n, edge_records, vertex_records):
        from repro.solvers.mis import independence_number

        # the leader only needs the independence number (local
        # computation is free; branch-and-reduce keeps it practical)
        alpha = independence_number(collected_graph(gprime, edge_records))
        return alpha, {u: False for u in range(n)}

    sim = simulate_two_party(
        gprime, instance.alice_vertices,
        lambda: CollectAndSolve(solver), bandwidth_factor=40)
    alpha = next(iter(sim.outputs.values()))["global"]
    # exchanging m_G and m_exp costs O(log n) extra bits
    extra_bits = message_bits(instance.m_base_edges) + \
        message_bits(instance.m_expander_clauses)
    target = construction.alpha_target(instance)
    disjoint = alpha < target
    return disjoint, sim.cut_bits + extra_bits, sim.rounds
