"""The Theorem 2.7 family: minimum Steiner tree, via reduction from MDS.

Construction (Section 2.3.2).  From the Figure 1 MDS graph G_{x,y} on
vertex set V = VA ∪ VB, build G'_{x,y} on V ∪ Ṽ (a copy ṽ per vertex)
with four edge groups:

1. *identity* edges (ṽ, v);
2. *original* edges (ũ, v) for every {u, v} ∈ E_{x,y} (both directions of
   each undirected edge);
3. *clique* edges inside ṼA and inside ṼB;
4. exactly two *crossing* edges e₁ = (f̃⁰_{A1}, f̃⁰_{B1}),
   e₂ = (t̃⁰_{A1}, t̃⁰_{B1}).

The terminal set is Term = V.  Claim 2.8: G' has a Steiner tree with
exactly 4k + 16·log k + 1 edges iff G has a dominating set of size
4·log k + 2, i.e. iff DISJ(x, y) = FALSE.

Verification uses the structure the proof establishes: the original
vertices form an independent set, so every Steiner tree normalizes to
one where terminals are leaves, and then

    min Steiner size = |Term| − 1 + min{ |X| : X ⊆ V dominates G_{x,y}
                                         and G'[X̃] is connected }.

X̃ is connected iff X stays within one side or contains both endpoints
of e₁ or of e₂ — four cases, each an instance of constrained minimum
domination, solved exactly.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.family import LowerBoundGraphFamily
from repro.core.mds import MdsFamily, fvert, row, tvert
from repro.graphs import Graph, Vertex
from repro.solvers.dominating import min_size_over_cases
from repro.solvers.steiner import is_steiner_tree


def copy_of(v: Vertex) -> Vertex:
    return ("copy", v)


class SteinerTreeFamily(LowerBoundGraphFamily):
    """Theorem 2.7 / Claim 2.8 family for exact minimum Steiner tree."""

    cli_name = "steiner"

    def __init__(self, k: int) -> None:
        self.k = k
        self.mds = MdsFamily(k)
        self.log_k = self.mds.log_k
        # |Term| = 4k + 12 log k, target tree size 4k + 16 log k + 1
        self.target_edges = 4 * k + 16 * self.log_k + 1
        self.crossing_pairs = [
            (fvert("A1", 0), fvert("B1", 0)),
            (tvert("A1", 0), tvert("B1", 0)),
        ]

    @property
    def k_bits(self) -> int:
        return self.mds.k_bits

    def terminals(self) -> List[Vertex]:
        return self.mds.fixed_graph().vertices()

    def build_skeleton(self) -> Graph:
        # doubled-graph transform of the (input-free) MDS skeleton
        base = self.mds.skeleton()
        g = Graph()
        originals = base.vertices()
        for v in originals:
            g.add_vertex(v)
            g.add_vertex(copy_of(v))
            g.add_edge(copy_of(v), v)                      # identity
        for u, v in base.edges():
            g.add_edge(copy_of(u), v)                       # original
            g.add_edge(copy_of(v), u)
        va = self.mds.alice_vertices()
        g.add_clique(copy_of(v) for v in originals if v in va)      # cliques
        g.add_clique(copy_of(v) for v in originals if v not in va)
        for u, v in self.crossing_pairs:                    # crossing
            g.add_edge(copy_of(u), copy_of(v))
        return g

    def apply_inputs(self, g: Graph, x: Sequence[int], y: Sequence[int]) -> None:
        # the doubled image of the MDS input edges {u, v}: (ũ, v), (ṽ, u)
        k = self.k
        for i in range(k):
            for j in range(k):
                if x[i * k + j]:
                    u, v = row("A1", i), row("A2", j)
                    g.add_edge(copy_of(u), v)
                    g.add_edge(copy_of(v), u)
                if y[i * k + j]:
                    u, v = row("B1", i), row("B2", j)
                    g.add_edge(copy_of(u), v)
                    g.add_edge(copy_of(v), u)

    def alice_vertices(self) -> Set[Vertex]:
        va = self.mds.alice_vertices()
        return va | {copy_of(v) for v in va}

    # ------------------------------------------------------------------
    def _base_graph_from(self, graph: Graph) -> Graph:
        """Recover G_{x,y} (the MDS graph) from a built G'_{x,y}."""
        base = Graph()
        originals = [v for v in graph.vertices()
                     if not (isinstance(v, tuple) and v and v[0] == "copy")]
        base.add_vertices(originals)
        original_set = set(originals)
        for u, v in graph.edges():
            cu = isinstance(u, tuple) and u and u[0] == "copy"
            cv = isinstance(v, tuple) and v and v[0] == "copy"
            if cu != cv:
                plain_u = u[1] if cu else u
                plain_v = v[1] if cv else v
                if plain_u != plain_v and plain_u in original_set \
                        and plain_v in original_set:
                    base.add_edge(plain_u, plain_v)
        return base

    def _cases(self, base) -> List[Tuple[int, List[int]]]:
        """The four ways X̃ stays connected, as ``(candidates mask,
        forced indices)`` over the vertex order of ``base`` (a
        ``bits()`` view of the MDS graph): X within VA, X within VB, or
        X holding both endpoints of e₁ or of e₂."""
        alice = self.mds.alice_vertices()
        va = base.mask_of(v for v in base.vertices if v in alice)
        return [(va, []), (base.full_mask & ~va, [])] + [
            (base.full_mask, [base.index[u], base.index[v]])
            for u, v in self.crossing_pairs]

    def min_steiner_size(self, graph: Graph,
                         budget: Optional[int] = None) -> Optional[int]:
        """Exact minimum Steiner tree size via the structured reduction.

        Returns the size, or None if it exceeds the domination ``budget``
        (budget counts |X|, the copies used).
        """
        base = self._base_graph_from(graph).bits()
        dom_budget = float("inf") if budget is None else budget + 0.5
        size = min_size_over_cases(base.ball_masks(1), self._cases(base),
                                   dom_budget)
        if size is None:
            return None
        return base.n - 1 + size

    def make_batch_kernel(self, skeleton: Graph):
        """The MDS graph's balls and the four cases once; each pair
        patches the two balls of each input edge (bit p = i·k + j adds
        {s^i_{A1}, s^j_{A2}}, likewise for B) and runs the case search
        of :meth:`min_steiner_size`.  That is sound only while the
        search gets what ``predicate`` would give it: the balls and
        cases of ``_base_graph_from(build(x, y))``.  Both are checked
        on three pairs: all zeros, all ones, and ones against zeros (x
        and y apart).  Otherwise there is no kernel and every pair takes
        the per-pair path."""
        from repro.solvers.batch_kernels import SteinerBatchKernel
        base = self._base_graph_from(skeleton).bits()
        k = self.k
        edges = [[(base.index[row(a, i)], base.index[row(b, j)])
                  for i in range(k) for j in range(k)]
                 for a, b in (("A1", "A2"), ("B1", "B2"))]
        cases = self._cases(base)
        kernel = SteinerBatchKernel(
            base.ball_masks(1), edges[0], edges[1], cases,
            max_size=self.target_edges - (base.n - 1),
            budget=4 * self.log_k + 2 + 0.5)
        zeros, ones = (0,) * self.k_bits, (1,) * self.k_bits
        for x, y in ((zeros, zeros), (ones, ones), (ones, zeros)):
            built = self._base_graph_from(self.build(x, y)).bits()
            if (list(built.ball_masks(1)) != kernel.balls(x, y)
                    or self._cases(built) != cases):
                return None
        return kernel

    def predicate(self, graph: Graph) -> bool:
        """P: a Steiner tree with exactly 4k + 16·log k + 1 edges exists
        (iff DISJ(x, y) = FALSE)."""
        size = self.min_steiner_size(graph, budget=4 * self.log_k + 2)
        return size is not None and size <= self.target_edges

    # ------------------------------------------------------------------
    def witness_steiner_tree(self, x: Sequence[int], y: Sequence[int],
                             ) -> List[Tuple[Vertex, Vertex]]:
        """The constructive half of Claim 2.8: an explicit Steiner tree of
        size 4k + 16·log k + 1 for intersecting inputs."""
        dom = self.mds.witness_dominating_set(x, y)
        graph = self.build(x, y)
        base = self.mds.build(x, y)
        va = self.mds.alice_vertices()
        da = [v for v in dom if v in va]
        db = [v for v in dom if v not in va]
        # find the crossing pair inside the witness
        pair = next(p for p in self.crossing_pairs
                    if p[0] in dom and p[1] in dom)
        edges: List[Tuple[Vertex, Vertex]] = []
        # star each side's copies on its crossing endpoint (clique edges)
        for side, anchor in ((da, pair[0]), (db, pair[1])):
            for v in side:
                if v != anchor:
                    edges.append((copy_of(anchor), copy_of(v)))
        edges.append((copy_of(pair[0]), copy_of(pair[1])))
        # attach every terminal as a leaf to one dominating copy
        dom_set = set(dom)
        for v in base.vertices():
            if v in dom_set:
                edges.append((copy_of(v), v))
            else:
                u = next(u for u in base.neighbors(v) if u in dom_set)
                edges.append((copy_of(u), v))
        assert len(edges) == self.target_edges, len(edges)
        assert is_steiner_tree(graph, edges, self.terminals())
        return edges
