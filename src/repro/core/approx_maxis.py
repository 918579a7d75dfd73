"""Section 4.1: hardness of approximating MaxIS (Theorems 4.1-4.3).

The code gadget.  Parameters: k (a power of two) rows per set, t = log k,
ℓ ≈ log²k chosen so that q = ℓ + t + 1 is prime, and a Reed-Solomon code
C with parameters (ℓ+t, t, ℓ+1, q).  Each row vertex S^i is represented
by the codeword g(i); distinct rows differ in ≥ ℓ coordinates, which is
what turns the ±1 slack of the exact constructions into a Θ(ℓ) gap.

Weighted family (Theorem 4.3): rows A1, A2, B1, B2 are k-cliques of
weight-ℓ vertices.  Per set S, coordinate j ∈ [ℓ+t] and symbol α ∈ F_q a
weight-1 gadget vertex α^S_j; row(j, S) is a clique; row(j, Az) and
row(j, Bz) are joined by a complete bipartite graph minus the perfect
matching (same-α pairs stay independent).  S^i is adjacent to every
gadget vertex of its set *except* its own codeword positions.  Input
edges (a^i_1, a^{i'}_2) iff x_{i,i'} = 0 (and b-rows via y).

Lemma 4.1:  max-weight IS = 8ℓ + 4t iff DISJ = FALSE, else ≤ 7ℓ + 4t
(the ceiling is attained whenever a player's input contains a 1) —
a 7/8 + ε gap with |Ecut| = O((ℓ+t)²) = O(log⁴ n), giving Ω̃(n²)
(Theorem 4.3).  The unweighted family (Theorem 4.1) blows each row
vertex up into a batch of ℓ unit-weight twins.  The linear family
(Theorem 4.2) drops the A1/B1 side for batches batch(v_A), batch(v_B)
joined to the remaining rows by DISJ_k, giving a 5/6 + ε gap at Ω̃(n).

Verification: the structured exact solver below enumerates the ≤ 1
row-per-clique choices and solves each gadget column independently
(justified by Claim 4.1, which tests re-verify against the generic
branch-and-bound solver on the smallest instances).  It reads a graph
only through which row pairs are adjacent, and an input edge joins a
row pair exactly when its bit is 0, so the batch kernel runs the same
solver on the input bits themselves.
"""

from __future__ import annotations

import math
from abc import abstractmethod
from typing import List, Sequence, Set, Tuple

from repro.codes.gf import PrimeField, next_prime
from repro.codes.reed_solomon import ReedSolomonCode
from repro.core.family import LowerBoundGraphFamily
from repro.core.mds import _check_power_of_two
from repro.graphs import Graph, Vertex

SETS = ("A1", "A2", "B1", "B2")


def row(set_name: str, i: int) -> Vertex:
    return ("row", set_name, i)


def batch_row(set_name: str, i: int, xi: int) -> Vertex:
    return ("batch", set_name, i, xi)


def gadget(set_name: str, j: int, alpha: int) -> Vertex:
    return ("cg", set_name, j, alpha)


def choose_code_params(k: int) -> Tuple[int, int, int]:
    """Pick (ℓ, t, q): t = log k, ℓ the smallest value ≥ max(2, log²k)
    with q = ℓ + t + 1 prime (the paper fixes q = ℓ + t + 1 and adjusts
    the constant in ℓ = c·log²k)."""
    log_k = _check_power_of_two(k)
    t = log_k
    ell = max(2, log_k * log_k)
    while not _is_prime(ell + t + 1):
        ell += 1
    return ell, t, ell + t + 1


def _is_prime(n: int) -> bool:
    from repro.codes.gf import is_prime

    return is_prime(n)


class _CodeGadgetFamily(LowerBoundGraphFamily):
    """What the three Section 4.1 families share: the code parameters,
    the structured solver's column values, the predicate and the batch
    kernel.

    A subclass reads a graph's row adjacency with :meth:`free_rows` --
    per side a bit tuple shaped like that side's input, bit p being 1
    iff the row pair of input bit p is *not* adjacent -- and maximises
    over row choices with :meth:`max_weight_of_rows`.  On a family graph
    the free bits are the input bits themselves (an input edge is added
    exactly for a 0-bit), which is what the batch kernel feeds the same
    solver.
    """

    def __init__(self, k: int) -> None:
        self.k = k
        self.ell, self.t, self.q = choose_code_params(k)
        self.field = PrimeField(self.q)
        self.code = ReedSolomonCode(self.field, n=self.ell + self.t, k=self.t)
        if self.code.size < k:
            raise ValueError("code too small to name all rows")
        self.codewords = [self.code.encode_int(i) for i in range(k)]

    @property
    def n_coords(self) -> int:
        return self.ell + self.t

    def column_values(self) -> List[List[int]]:
        """``[a][b]``: the gadget columns' weight when the A-side clique
        takes row a and the B-side clique row b (index k: no row).  A
        column adds 2 if the allowed symbols of its two sides meet, else
        1.  It depends on the codewords only, so it is computed once."""
        table = getattr(self, "_column_values", None)
        if table is None:
            n = self.n_coords
            words = self.codewords + [None]
            table = self._column_values = [
                [n + sum(a is None or b is None or a[j] == b[j]
                         for j in range(n)) for b in words]
                for a in words]
        return table

    @abstractmethod
    def free_rows(self, graph: Graph) -> Tuple[Tuple[int, ...], ...]:
        """Per side (A, then B), the free bit of each input position."""

    @abstractmethod
    def max_weight_of_rows(self, a_free: Sequence[int],
                           b_free: Sequence[int]) -> int:
        """The maximum weight of an independent set when only the row
        pairs whose free bit is 1 may be taken together."""

    def structured_max_weight(self, graph: Graph) -> int:
        """Exact maximum weight of an independent set of a family graph:
        :meth:`max_weight_of_rows` over the graph's :meth:`free_rows`."""
        return self.max_weight_of_rows(*self.free_rows(graph))

    def predicate(self, graph: Graph) -> bool:
        """P: an independent set of weight :attr:`alpha_yes` exists (iff
        DISJ = FALSE)."""
        return self.structured_max_weight(graph) >= self.alpha_yes

    def gap_ratio(self) -> float:
        """The inapproximability ratio alpha_no / alpha_yes."""
        return self.alpha_no / self.alpha_yes

    def make_batch_kernel(self, skeleton: Graph):
        """The structured solver on the input bits: a pair's free row
        bits are its input bits, with no graph built.  That holds only
        while :meth:`free_rows` of a built graph returns its inputs, so
        this is checked on three pairs through :meth:`build`: all zeros,
        all ones, and ones against zeros (x and y apart); otherwise there
        is no kernel and every pair takes the per-pair path."""
        from repro.solvers.batch_kernels import RowChoiceBatchKernel
        zeros, ones = (0,) * self.k_bits, (1,) * self.k_bits
        for x, y in ((zeros, zeros), (ones, ones), (ones, zeros)):
            if self.free_rows(self.build(x, y)) != (x, y):
                return None
        return RowChoiceBatchKernel(self.max_weight_of_rows, self.alpha_yes)


class WeightedApproxMaxISFamily(_CodeGadgetFamily):
    """Theorem 4.3 family: (7/8 + ε)-approximate weighted MaxIS."""

    cli_name = "approx-maxis"

    def __init__(self, k: int) -> None:
        super().__init__(k)
        self.alpha_yes = 8 * self.ell + 4 * self.t
        #: ceiling for DISJOINT inputs (attained when some x- or y-bit is 1)
        self.alpha_no = 7 * self.ell + 4 * self.t

    @property
    def k_bits(self) -> int:
        return self.k * self.k

    # ------------------------------------------------------------------
    def build_skeleton(self) -> Graph:
        g = Graph()
        k = self.k
        for s in SETS:
            g.add_clique([row(s, i) for i in range(k)])
            for i in range(k):
                g.set_vertex_weight(row(s, i), self.ell)
            for j in range(self.n_coords):
                col = [gadget(s, j, a) for a in range(self.q)]
                g.add_clique(col)
                for v in col:
                    g.set_vertex_weight(v, 1)
        # complete bipartite minus perfect matching between matching columns
        for z in ("1", "2"):
            a, b = "A" + z, "B" + z
            for j in range(self.n_coords):
                for alpha in range(self.q):
                    for alpha2 in range(self.q):
                        if alpha != alpha2:
                            g.add_edge(gadget(a, j, alpha), gadget(b, j, alpha2))
        # rows to everything except their own codeword
        for s in SETS:
            for i in range(k):
                word = self.codewords[i]
                for j in range(self.n_coords):
                    for alpha in range(self.q):
                        if alpha != word[j]:
                            g.add_edge(row(s, i), gadget(s, j, alpha))
        return g

    def apply_inputs(self, g: Graph, x: Sequence[int], y: Sequence[int]) -> None:
        k = self.k
        for i in range(k):
            for i2 in range(k):
                if not x[i * k + i2]:
                    g.add_edge(row("A1", i), row("A2", i2))
                if not y[i * k + i2]:
                    g.add_edge(row("B1", i), row("B2", i2))

    def alice_vertices(self) -> Set[Vertex]:
        va: Set[Vertex] = set()
        for s in ("A1", "A2"):
            va.update(row(s, i) for i in range(self.k))
            va.update(gadget(s, j, a) for j in range(self.n_coords)
                      for a in range(self.q))
        return va

    # ------------------------------------------------------------------
    # structured exact solver (Claim 4.1 + Lemma 4.1 decomposition)
    # ------------------------------------------------------------------
    def _row_vertex(self, set_name: str, i: int) -> Vertex:
        """The vertex whose adjacency stands for row i of ``set_name``."""
        return row(set_name, i)

    def free_rows(self, graph: Graph) -> Tuple[Tuple[int, ...], ...]:
        """Per side (A, then B), bit i·k + j is 1 iff rows (·1, i) and
        (·2, j) are not adjacent in ``graph``."""
        k = self.k
        has_edge = graph.has_edge
        rv = self._row_vertex
        return tuple(
            tuple(0 if has_edge(rv(s1, i), rv(s2, j)) else 1
                  for i in range(k) for j in range(k))
            for s1, s2 in (("A1", "A2"), ("B1", "B2")))

    def max_weight_of_rows(self, a_free: Sequence[int],
                           b_free: Sequence[int]) -> int:
        """Enumerates one-or-no row per clique (row pairs of a side only
        where their bit in ``a_free``/``b_free`` is 1); given the row
        choices the gadget columns decompose independently
        (:meth:`column_values`)."""
        values = self.column_values()
        b_choices = self._row_choices(b_free)
        best = 0
        for ia1, ia2, wa in self._row_choices(a_free):
            v1, v2 = values[ia1], values[ia2]
            for ib1, ib2, wb in b_choices:
                val = wa + wb + v1[ib1] + v2[ib2]
                if val > best:
                    best = val
        return best

    def _row_choices(self, free: Sequence[int]) -> List[Tuple[int, int, int]]:
        """``(row of ·1, row of ·2, their weight)`` for every choice of at
        most one row per clique of a side (index k: no row)."""
        k, ell = self.k, self.ell
        out = [(k, k, 0)]
        out += [(i, k, ell) for i in range(k)]
        out += [(k, j, ell) for j in range(k)]
        out += [(i, j, 2 * ell) for i in range(k) for j in range(k)
                if free[i * k + j]]
        return out


class UnweightedApproxMaxISFamily(WeightedApproxMaxISFamily):
    """Theorem 4.1: replace each row vertex by a batch of ℓ unit twins."""

    cli_name = "approx-maxis-unweighted"

    def build_skeleton(self) -> Graph:
        weighted = super().build_skeleton()
        g = Graph()

        def copies(v: Vertex) -> List[Vertex]:
            if isinstance(v, tuple) and v[0] == "row":
                return [batch_row(v[1], v[2], xi) for xi in range(self.ell)]
            return [v]

        for v in weighted.vertices():
            for c in copies(v):
                g.add_vertex(c, weight=1)
        for u, v in weighted.edges():
            for cu in copies(u):
                for cv in copies(v):
                    g.add_edge(cu, cv)
        return g

    def apply_inputs(self, g: Graph, x: Sequence[int], y: Sequence[int]) -> None:
        # the blown-up image of the weighted input edges: ℓ×ℓ twin pairs
        k, ell = self.k, self.ell
        for i in range(k):
            for i2 in range(k):
                if not x[i * k + i2]:
                    for cu in range(ell):
                        for cv in range(ell):
                            g.add_edge(batch_row("A1", i, cu),
                                       batch_row("A2", i2, cv))
                if not y[i * k + i2]:
                    for cu in range(ell):
                        for cv in range(ell):
                            g.add_edge(batch_row("B1", i, cu),
                                       batch_row("B2", i2, cv))

    def alice_vertices(self) -> Set[Vertex]:
        va: Set[Vertex] = set()
        for s in ("A1", "A2"):
            va.update(batch_row(s, i, xi)
                      for i in range(self.k) for xi in range(self.ell))
            va.update(gadget(s, j, a) for j in range(self.n_coords)
                      for a in range(self.q))
        return va

    def _row_vertex(self, set_name: str, i: int) -> Vertex:
        """Batches behave exactly like weight-ℓ vertices (all twins share
        their neighbourhood), so the weighted solver carries over, with
        row-row adjacency read off the batch representatives."""
        return batch_row(set_name, i, 0)


class LinearApproxMaxISFamily(_CodeGadgetFamily):
    """Theorem 4.2: a (5/6 + ε) gap already at Ω̃(n), from DISJ_k.

    Only the A2/B2 sides and their code gadgets remain; batches
    batch(v_A), batch(v_B) connect to a^i_2 / b^i_2 iff x_i = 0 / y_i = 0.
    Max IS = 6ℓ + 2t iff DISJ_k(x, y) = FALSE, else ≤ 5ℓ + 2t.
    """

    V_A = "vA"
    V_B = "vB"

    cli_name = "approx-maxis-linear"

    def __init__(self, k: int) -> None:
        super().__init__(k)
        self.alpha_yes = 6 * self.ell + 2 * self.t
        #: ceiling for DISJOINT inputs
        self.alpha_no = 5 * self.ell + 2 * self.t

    @property
    def k_bits(self) -> int:
        return self.k

    def _batch(self, tag: str) -> List[Vertex]:
        return [("batch", tag, xi) for xi in range(self.ell)]

    def build_skeleton(self) -> Graph:
        g = Graph()
        k = self.k
        for s in ("A2", "B2"):
            g.add_clique([row(s, i) for i in range(k)])
            for i in range(k):
                g.set_vertex_weight(row(s, i), self.ell)
            for j in range(self.n_coords):
                col = [gadget(s, j, a) for a in range(self.q)]
                g.add_clique(col)
                for v in col:
                    g.set_vertex_weight(v, 1)
            for i in range(k):
                word = self.codewords[i]
                for j in range(self.n_coords):
                    for alpha in range(self.q):
                        if alpha != word[j]:
                            g.add_edge(row(s, i), gadget(s, j, alpha))
        for j in range(self.n_coords):
            for alpha in range(self.q):
                for alpha2 in range(self.q):
                    if alpha != alpha2:
                        g.add_edge(gadget("A2", j, alpha),
                                   gadget("B2", j, alpha2))
        for v in self._batch(self.V_A) + self._batch(self.V_B):
            g.add_vertex(v, weight=1)
        return g

    def apply_inputs(self, g: Graph, x: Sequence[int], y: Sequence[int]) -> None:
        for i in range(self.k):
            if not x[i]:
                for v in self._batch(self.V_A):
                    g.add_edge(v, row("A2", i))
            if not y[i]:
                for v in self._batch(self.V_B):
                    g.add_edge(v, row("B2", i))

    def alice_vertices(self) -> Set[Vertex]:
        va: Set[Vertex] = set(self._batch(self.V_A))
        va.update(row("A2", i) for i in range(self.k))
        va.update(gadget("A2", j, a) for j in range(self.n_coords)
                  for a in range(self.q))
        return va

    def free_rows(self, graph: Graph) -> Tuple[Tuple[int, ...], ...]:
        """Per side (A, then B), bit i is 1 iff the batch of v_A (v_B)
        is not adjacent to row A2 (B2) i in ``graph``."""
        has_edge = graph.has_edge
        return tuple(
            tuple(0 if has_edge(("batch", tag, 0), row(s, i)) else 1
                  for i in range(self.k))
            for tag, s in ((self.V_A, "A2"), (self.V_B, "B2")))

    def max_weight_of_rows(self, a_free: Sequence[int],
                           b_free: Sequence[int]) -> int:
        """One-or-no row per side and whether to take its batch (only
        beside a row whose bit in ``a_free``/``b_free`` is 1); the gadget
        columns then decompose as in the weighted family."""
        values = self.column_values()
        b_choices = self._row_choices(b_free)
        best = 0
        for ia, wa in self._row_choices(a_free):
            va = values[ia]
            for ib, wb in b_choices:
                val = wa + wb + va[ib]
                if val > best:
                    best = val
        return best

    def _row_choices(self, free: Sequence[int]) -> List[Tuple[int, int]]:
        """``(row, weight of the row and the batch taken)`` for every
        choice on a side (index k: no row)."""
        k, ell = self.k, self.ell
        out = [(k, 0), (k, ell)]
        out += [(i, ell) for i in range(k)]
        out += [(i, 2 * ell) for i in range(k) if free[i]]
        return out
