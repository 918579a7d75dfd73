"""Section 4.4: hardness of approximating Steiner tree variants
(Theorems 4.6-4.7, Figure 6).

Both families reuse the Figure 5 covering-collection skeleton.

Node-weighted Steiner tree (Theorem 4.6): the 2-MDS graph with weights
0 on {a_j}, {b_j}, a, b, R and input-dependent 1/α on S_i, S̄_i;
terminals A ∪ B.  Lemma 4.5: a Steiner tree of weight 2 exists iff
DISJ = FALSE, else every Steiner tree weighs > r.

Directed Steiner tree (Theorem 4.7): root R, terminals A ∪ B, directed
edges (R,a), (R,b) and (a_j, b_j), (b_j, a_j) of weight 0; (a, S_i),
(b, S̄_i) of weight 1; fallback edges (a, a_j), (b, b_j) of weight α;
and — input-dependently — the *presence* of (S_i, a_j) for j ∈ S_i iff
x_i = 1, of (S̄_i, b_j) for j ∉ S_i iff y_i = 1.  Lemma 4.6: minimum
weight 2 iff DISJ = FALSE, else > r.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence, Set

from repro.core.family import LowerBoundGraphFamily
from repro.core.kmds import (
    A_SPECIAL,
    B_SPECIAL,
    R_SPECIAL,
    avert,
    bvert,
    scomp,
    svert,
)
from repro.covering.designs import CoveringCollection
from repro.graphs import DiGraph, Graph, Vertex
from repro.solvers._bitmask import vertex_weights
from repro.solvers.steiner import min_node_weighted_steiner_cost


class NodeWeightedSteinerFamily(LowerBoundGraphFamily):
    """Theorem 4.6 / Lemma 4.5 family."""

    cli_name = "node-weighted-steiner"

    #: Lemma 4.5's threshold: a Steiner tree of weight 2 iff DISJ = FALSE
    YES_COST = 2

    def __init__(self, collection: CoveringCollection,
                 alpha: int = None) -> None:  # type: ignore[assignment]
        self.collection = collection
        self.alpha = alpha if alpha is not None else collection.r + 1

    @property
    def k_bits(self) -> int:
        return self.collection.T

    @property
    def ell(self) -> int:
        return self.collection.universe_size

    def terminals(self) -> List[Vertex]:
        return [avert(j) for j in range(self.ell)] + \
               [bvert(j) for j in range(self.ell)]

    def build_skeleton(self) -> Graph:
        g = Graph()
        ell, T = self.ell, self.collection.T
        for j in range(ell):
            g.add_vertex(avert(j), weight=0)
            g.add_vertex(bvert(j), weight=0)
            g.add_edge(avert(j), bvert(j))
        for v in (A_SPECIAL, B_SPECIAL, R_SPECIAL):
            g.add_vertex(v, weight=0)
        g.add_edge(R_SPECIAL, A_SPECIAL)
        g.add_edge(R_SPECIAL, B_SPECIAL)
        for i in range(T):
            # weight α, the zero-bit weight, so the skeleton (and with it
            # the sweep-store key) shows α; apply_inputs re-weights
            g.add_vertex(svert(i), weight=self.alpha)
            g.add_vertex(scomp(i), weight=self.alpha)
            g.add_edge(A_SPECIAL, svert(i))
            g.add_edge(B_SPECIAL, scomp(i))
            for j in range(ell):
                if j in self.collection.sets[i]:
                    g.add_edge(svert(i), avert(j))
                else:
                    g.add_edge(scomp(i), bvert(j))
        return g

    def apply_inputs(self, g: Graph, x: Sequence[int], y: Sequence[int]) -> None:
        for i in range(self.collection.T):
            g.set_vertex_weight(svert(i), 1 if x[i] else self.alpha)
            g.set_vertex_weight(scomp(i), 1 if y[i] else self.alpha)

    def alice_vertices(self) -> Set[Vertex]:
        va: Set[Vertex] = {A_SPECIAL}
        va.update(avert(j) for j in range(self.ell))
        va.update(svert(i) for i in range(self.collection.T))
        return va

    def optimum(self, graph: Graph) -> float:
        return min_node_weighted_steiner_cost(graph, self.terminals())

    def predicate(self, graph: Graph) -> bool:
        """P: a node-weighted Steiner tree of weight ≤ 2 exists (iff
        DISJ = FALSE).  Decided at the threshold: the best-first scan
        stops once every subset costing at most 2 is refuted."""
        return min_node_weighted_steiner_cost(
            graph, self.terminals(), cap=self.YES_COST) <= self.YES_COST

    def make_batch_kernel(self, skeleton: Graph):
        """A table of the vertex sets that connect the terminals, read
        once from the skeleton's ``bits()`` adjacency
        (:class:`repro.solvers.batch_kernels.NodeWeightedSteinerBatchKernel`):
        each pair looks up whether one of them costs at most 2 under its
        2T S_i / S̄_i weights, while :meth:`predicate` runs the capped
        scan.  The table is exact only when no three paid vertices fit
        under 2 (α ≥ 1), the paid set is the same for every pair and the
        terminals are free; the kernel refuses otherwise.  It is sound
        only while the deltas are weight-only and the kernel's weights
        are those ``apply_inputs`` installs, so both are checked here on
        three pairs through :meth:`build`: all zeros, all ones, and ones
        against zeros (x and y apart).  The built graph must keep the
        skeleton's vertex order and adjacency, and its vertex weights
        must equal the kernel's.  Where a check fails there is no kernel
        and every pair takes the per-pair path."""
        from repro.solvers.batch_kernels import NodeWeightedSteinerBatchKernel
        T = self.collection.T
        try:
            kernel = NodeWeightedSteinerBatchKernel(
                skeleton, self.terminals(),
                x_vertices=[svert(i) for i in range(T)],
                y_vertices=[scomp(i) for i in range(T)],
                alpha=self.alpha, yes_cost=self.YES_COST)
        except ValueError:  # the table would not be exact
            return None
        base = skeleton.bits()
        zeros, ones = (0,) * T, (1,) * T
        for x, y in ((zeros, zeros), (ones, ones), (ones, zeros)):
            graph = self.build(x, y)
            bg = graph.bits()
            if (bg.vertices != base.vertices or bg.adj != base.adj
                    or kernel.weights(x, y) != vertex_weights(graph)):
                return None
        return kernel


class DirectedSteinerFamily(LowerBoundGraphFamily):
    """Theorem 4.7 / Lemma 4.6 family."""

    cli_name = "directed-steiner"

    #: Lemma 4.6's threshold: a directed Steiner tree of weight 2 iff
    #: DISJ = FALSE
    YES_COST = 2

    def __init__(self, collection: CoveringCollection,
                 alpha: int = None) -> None:  # type: ignore[assignment]
        self.collection = collection
        self.alpha = alpha if alpha is not None else collection.r + 1
        ell = collection.universe_size
        sets = collection.sets
        #: the input arcs of bit i: (S_i, a_j) for j ∈ S_i, installed
        #: iff x_i = 1, and (S̄_i, b_j) for j ∉ S_i, iff y_i = 1
        self._x_arcs = [[(svert(i), avert(j)) for j in range(ell)
                         if j in sets[i]] for i in range(collection.T)]
        self._y_arcs = [[(scomp(i), bvert(j)) for j in range(ell)
                         if j not in sets[i]] for i in range(collection.T)]
        #: the cover read by ``optimum``: per set, its vertex and the
        #: element bit of each terminal it can reach, then the weight-α
        #: fallback of each element
        a_bits = {avert(j): 1 << j for j in range(ell)}
        b_bits = {bvert(j): 1 << j for j in range(ell)}
        self._cover_sides = [side for i in range(collection.T)
                             for side in ((svert(i), a_bits),
                                          (scomp(i), b_bits))]
        self._fallbacks = [(1 << j, float(self.alpha), j)
                           for j in range(ell)]

    @property
    def k_bits(self) -> int:
        return self.collection.T

    @property
    def ell(self) -> int:
        return self.collection.universe_size

    def terminals(self) -> List[Vertex]:
        return [avert(j) for j in range(self.ell)] + \
               [bvert(j) for j in range(self.ell)]

    def delta_key(self) -> str:
        """Digest of the input-arc table: the covering collection shapes
        only arcs that ``apply_inputs`` installs, so the skeleton alone
        does not tell two collections apart."""
        table = repr((self._x_arcs, self._y_arcs)).encode()
        return hashlib.sha256(table).hexdigest()

    def build_skeleton(self) -> DiGraph:
        g = DiGraph()
        ell, T = self.ell, self.collection.T
        g.add_edge(R_SPECIAL, A_SPECIAL, weight=0)
        g.add_edge(R_SPECIAL, B_SPECIAL, weight=0)
        for j in range(ell):
            g.add_edge(avert(j), bvert(j), weight=0)
            g.add_edge(bvert(j), avert(j), weight=0)
            g.add_edge(A_SPECIAL, avert(j), weight=self.alpha)
            g.add_edge(B_SPECIAL, bvert(j), weight=self.alpha)
        for i in range(T):
            g.add_edge(A_SPECIAL, svert(i), weight=1)
            g.add_edge(B_SPECIAL, scomp(i), weight=1)
        return g

    def apply_inputs(self, g: DiGraph, x: Sequence[int],
                     y: Sequence[int]) -> None:
        g.add_edges([arc for bits, table in ((x, self._x_arcs),
                                             (y, self._y_arcs))
                     for bit, arcs in zip(bits, table) if bit
                     for arc in arcs], weight=0)

    def alice_vertices(self) -> Set[Vertex]:
        va: Set[Vertex] = {A_SPECIAL}
        va.update(avert(j) for j in range(self.ell))
        va.update(svert(i) for i in range(self.collection.T))
        return va

    def _graph_masks(self, graph: DiGraph) -> List[int]:
        """The element mask of every cover set, in ``_cover_sides``
        order.  Every element j needs a_j and b_j, which one arc
        (a_j, b_j) / (b_j, a_j) links, so a cover of the elements by the
        sets whose arcs ``graph`` holds (weight 1 each, bought with the
        arc into S_i or S̄_i) and the weight-α fallbacks (a, a_j) is a
        Steiner tree of equal weight, and conversely.  Each set's
        elements are read from its successor set: S_i covers element j
        iff the arc (S_i, a_j) is installed."""
        masks: List[int] = []
        for vert, bits in self._cover_sides:
            mask = 0
            for w in graph.successors(vert):
                mask |= bits.get(w, 0)
            masks.append(mask)
        return masks

    def make_batch_kernel(self, skeleton: DiGraph):
        """The cover masks of both values of every bit: the skeleton's
        (read as ``predicate`` reads a graph) for a 0-bit, and those
        plus the element bits of the bit's input arcs for a 1-bit.  The
        kernel tables, once, every subset of at most two sets (cover
        sets and fallbacks) that covers the universe, and a pair looks
        up whether one of them costs at most 2 under its bits, while
        :meth:`predicate` runs the set-cover search.  The table is exact
        only while every 0-bit mask is empty and no three sets fit under
        2 (α ≥ 1); otherwise there is no kernel.  A pair builds no graph
        and no cover."""
        from repro.solvers.batch_kernels import DirectedSteinerBatchKernel
        base = self._graph_masks(skeleton)
        a_bits, b_bits = self._cover_sides[0][1], self._cover_sides[1][1]

        def sides(offs, table, bits):
            out = []
            for off, arcs in zip(offs, table):
                on = off
                for __, w in arcs:
                    on |= bits[w]
                out.append((off, on))
            return out

        try:
            return DirectedSteinerBatchKernel(
                self.ell, sides(base[0::2], self._x_arcs, a_bits),
                sides(base[1::2], self._y_arcs, b_bits), self._fallbacks,
                self.YES_COST)
        except ValueError:  # the table would not be exact
            return None

    def optimum(self, graph: DiGraph) -> float:
        """Exact directed Steiner cost, as a float, via the cover of
        :meth:`_graph_masks` (the generic reachability solver
        cross-checks it in the tests).  Experiments and tests read this
        value; sweeps decide through :meth:`predicate`, which stops short
        of the optimum."""
        from repro.solvers.batch_kernels import unit_cover_solver
        weight, choice = unit_cover_solver(
            self.ell, self._graph_masks(graph), self._fallbacks).solve()
        assert choice is not None
        return weight

    def predicate(self, graph: DiGraph) -> bool:
        """P: a directed Steiner tree of weight ≤ 2 exists (iff
        DISJ = FALSE).  Decided at the threshold by the set-cover search
        of :func:`repro.solvers.batch_kernels.cover_within_two` over the
        graph's cover sets.  The batch kernel decides from a table of
        covers instead, so a batched sweep rechecked against this
        predicate compares two algorithms."""
        from repro.solvers.batch_kernels import (
            cover_within_two,
            unit_cover_solver,
        )
        return cover_within_two(unit_cover_solver(
            self.ell, self._graph_masks(graph), self._fallbacks))
