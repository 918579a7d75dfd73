"""Sections 4.2-4.3: hardness of approximating weighted k-MDS
(Theorems 4.4-4.5, Figure 5).

Construction.  Fix a covering collection C = S₁…S_T over [ℓ] with the
verified r-covering property (Lemma 4.2).  Vertices a_j, b_j per element
(joined by an edge), set vertices S_i and S̄_i, and specials a, b, R.
S_i – a_j iff j ∈ S_i; S̄_i – b_j iff j ∉ S_i; a – S_i; b – S̄_i;
R – a; R – b.  Weights: element vertices and a, b get α (any integer
> r), R gets 0, and — input-dependently — S_i costs 1 if x_i = 1 else α,
S̄_i costs 1 if y_i = 1 else α.

Lemma 4.3: minimum weight 2-MDS = 2 iff DISJ_T(x, y) = FALSE, and
otherwise every 2-MDS weighs more than r = c·log ℓ — an Ω(log ℓ)
approximation gap.  n = Θ(T), |Ecut| = Θ(ℓ), which instantiated at
ℓ = T^ε gives Ω(n^{1−ε}/log n) for O(log n)-approximation, and at
polylog ℓ gives Ω̃(n) for O(log log n)-approximation (Theorem 4.4).

For k > 2 each S_i–a_j and S̄_i–b_j edge becomes a path with k−2
internal α-weight vertices (Lemma 4.4 / Theorem 4.5).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.core.family import LowerBoundGraphFamily
from repro.covering.designs import CoveringCollection
from repro.graphs import Graph, Vertex
from repro.solvers.dominating import min_dominating_set_weight

A_SPECIAL = ("special", "a")
B_SPECIAL = ("special", "b")
R_SPECIAL = ("special", "R")


def avert(j: int) -> Vertex:
    return ("a", j)


def bvert(j: int) -> Vertex:
    return ("b", j)


def svert(i: int) -> Vertex:
    return ("S", i)


def scomp(i: int) -> Vertex:
    return ("Sbar", i)


class KMdsFamily(LowerBoundGraphFamily):
    """Figure 5 / Theorems 4.4-4.5 family for approximate k-MDS."""

    cli_name = "kmds"

    def __init__(self, collection: CoveringCollection, k: int = 2,
                 alpha: Optional[int] = None) -> None:
        if k < 2:
            raise ValueError("the construction needs k >= 2")
        self.collection = collection
        self.k = k
        self.alpha = alpha if alpha is not None else collection.r + 1
        if self.alpha <= collection.r:
            raise ValueError("alpha must exceed r")

    @property
    def k_bits(self) -> int:
        return self.collection.T

    @property
    def ell(self) -> int:
        return self.collection.universe_size

    @property
    def yes_weight(self) -> int:
        return 2

    @property
    def no_weight_exceeds(self) -> int:
        """Lemma 4.3/4.4: on TRUE (disjoint) instances the optimum exceeds
        r; with our integer weights it is in fact ≥ min(α, 3)."""
        return self.collection.r

    def _path_edges(self, g: Graph, u: Vertex, v: Vertex, tag: Tuple) -> None:
        """u–v for k = 2, else a path with k−2 internal α vertices."""
        if self.k == 2:
            g.add_edge(u, v)
            return
        prev = u
        for step in range(self.k - 2):
            mid = ("path", tag, step)
            g.add_vertex(mid, weight=self.alpha)
            g.add_edge(prev, mid)
            prev = mid
        g.add_edge(prev, v)

    def build_skeleton(self) -> Graph:
        g = Graph()
        ell, T = self.ell, self.collection.T
        for j in range(ell):
            g.add_vertex(avert(j), weight=self.alpha)
            g.add_vertex(bvert(j), weight=self.alpha)
            g.add_edge(avert(j), bvert(j))
        g.add_vertex(A_SPECIAL, weight=self.alpha)
        g.add_vertex(B_SPECIAL, weight=self.alpha)
        g.add_vertex(R_SPECIAL, weight=0)
        g.add_edge(R_SPECIAL, A_SPECIAL)
        g.add_edge(R_SPECIAL, B_SPECIAL)
        for i in range(T):
            g.add_vertex(svert(i))
            g.add_vertex(scomp(i))
            g.add_edge(A_SPECIAL, svert(i))
            g.add_edge(B_SPECIAL, scomp(i))
            for j in range(ell):
                if j in self.collection.sets[i]:
                    self._path_edges(g, svert(i), avert(j), ("a", i, j))
                else:
                    self._path_edges(g, scomp(i), bvert(j), ("b", i, j))
        return g

    def apply_inputs(self, g: Graph, x: Sequence[int], y: Sequence[int]) -> None:
        # weight-only deltas: the copy's adjacency-derived caches survive
        for i in range(self.collection.T):
            g.set_vertex_weight(svert(i), 1 if x[i] else self.alpha)
            g.set_vertex_weight(scomp(i), 1 if y[i] else self.alpha)

    def alice_vertices(self) -> Set[Vertex]:
        va: Set[Vertex] = {A_SPECIAL}
        va.update(avert(j) for j in range(self.ell))
        va.update(svert(i) for i in range(self.collection.T))
        if self.k > 2:
            # internal path vertices follow their S_i / a_j side
            base = self.skeleton()
            va.update(v for v in base.vertices()
                      if isinstance(v, tuple) and v[0] == "path"
                      and v[1][0] == "a")
        return va

    def predicate(self, graph: Graph) -> bool:
        """P: a k-MDS of weight ≤ 2 exists (iff DISJ = FALSE)."""
        return min_dominating_set_weight(graph, k=self.k) <= self.yes_weight

    def make_batch_kernel(self, skeleton: Graph):
        """The set-cover index of the distance-k balls once; each pair
        fills 2T weights and solves over it.  That is sound only while
        the deltas are weight-only and the kernel's weights are those
        ``apply_inputs`` installs, so both are checked here on three
        pairs through :meth:`build`: all zeros, all ones, and ones
        against zeros (x and y apart).  The built graph must keep the
        skeleton's vertex order and radius-k balls, and its vertex
        weights must equal the kernel's table; otherwise there is no
        kernel and every pair takes the per-pair path."""
        from repro.solvers.batch_kernels import WeightedDominationBatchKernel
        T = self.collection.T
        kernel = WeightedDominationBatchKernel(
            skeleton,
            x_vertices=[svert(i) for i in range(T)],
            y_vertices=[scomp(i) for i in range(T)],
            alpha=self.alpha, k=self.k, yes_weight=self.yes_weight)
        base = skeleton.bits()
        zeros, ones = (0,) * T, (1,) * T
        for x, y in ((zeros, zeros), (ones, ones), (ones, zeros)):
            graph = self.build(x, y)
            bg = graph.bits()
            if (bg.vertices != base.vertices
                    or bg.ball_masks(self.k) != base.ball_masks(self.k)
                    or kernel.weights(x, y) != [graph.vertex_weight(v)
                                                for v in bg.vertices]):
                return None
        return kernel

    def optimum(self, graph: Graph) -> float:
        return min_dominating_set_weight(graph, k=self.k)

    def gap_ratio(self) -> float:
        """The approximation factor ruled out: (r/2, i.e. Ω(log ℓ))."""
        return self.no_weight_exceeds / self.yes_weight
