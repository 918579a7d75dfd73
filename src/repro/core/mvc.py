"""A CKP-style MVC / MaxIS lower-bound family (the base of Sections 3-4).

Sections 3.2 and 4.1 build on the vertex-cover family of [10]
(Censor-Hillel, Khoury, Paz 2017), which this paper uses but does not
restate.  We implement a faithful equivalent with the same interface
(see DESIGN.md, substitutions):

- rows A1, A2, B1, B2, each a k-clique;
- per set S and bit h, gadget vertices f^h_S and t^h_S; per (h, ℓ) the
  4-cycle f^h_{Aℓ} – t^h_{Aℓ} – f^h_{Bℓ} – t^h_{Bℓ} – f^h_{Aℓ}, whose
  maximum independent sets are exactly the *consistent* pairs
  {f^h_{Aℓ}, f^h_{Bℓ}} and {t^h_{Aℓ}, t^h_{Bℓ}};
- row s^i adjacent to the complement coding cobin(s^i) = {f^h : i_h = 1}
  ∪ {t^h : i_h = 0}, so s^i is compatible exactly with the gadget pairs
  spelling i;
- input edges (a^i_1, a^j_2) iff x_{i,j} = 0 and (b^i_1, b^j_2) iff
  y_{i,j} = 0 (an *absent* edge lets both rows join the IS);
- two low-degree connectors: c_A adjacent to a⁰_1 and a⁰_2 with a
  pendant p_A, and symmetrically c_B, p_B.  They make the graph
  connected with constant diameter; by the standard pendant-swap
  argument they shift α by exactly +2 and never touch the cut, and they
  keep every degree small enough for the Section 3 expander gadgets to
  be exactly verifiable.

Then α(G_{x,y}) = 4·log k + 6 iff DISJ(x, y) = FALSE, and otherwise
α ≤ 4·log k + 5 (dense inputs, which add many edges, can push α lower
still — the iff is what the reduction uses).  Equivalently
MVC = n − α.  n = Θ(k), |Ecut| = Θ(log k), row degrees Θ(n), diameter
O(1) — the exact interface Section 3.2 requires of the [10]
construction.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from repro.core.family import LowerBoundGraphFamily
from repro.core.mds import _check_power_of_two
from repro.graphs import Graph, Vertex
from repro.solvers.mis import independence_number, is_independent_set

SETS = ("A1", "A2", "B1", "B2")
W_A = ("conn", "A")
W_B = ("conn", "B")
WP_A = ("pendant", "A")
WP_B = ("pendant", "B")


def row(set_name: str, i: int) -> Vertex:
    return ("row", set_name, i)


def fvert(set_name: str, h: int) -> Vertex:
    return ("f", set_name, h)


def tvert(set_name: str, h: int) -> Vertex:
    return ("t", set_name, h)


def cobin(set_name: str, i: int, log_k: int) -> List[Vertex]:
    """cobin(s^i): f^h for one bits, t^h for zero bits (conflict coding)."""
    return [fvert(set_name, h) if (i >> h) & 1 else tvert(set_name, h)
            for h in range(log_k)]


def bin_pairs(set_name: str, i: int, log_k: int) -> List[Vertex]:
    """The gadget vertices compatible with s^i: f^h for zero bits, t^h
    for one bits."""
    return [tvert(set_name, h) if (i >> h) & 1 else fvert(set_name, h)
            for h in range(log_k)]


class MvcMaxISFamily(LowerBoundGraphFamily):
    """CKP-style family: α = 4·log k + 6 iff DISJ = FALSE."""

    cli_name = "mvc"

    def __init__(self, k: int) -> None:
        self.k = k
        self.log_k = _check_power_of_two(k)
        self.alpha_yes = 4 * self.log_k + 6
        #: upper bound on α for DISJOINT inputs (attained by sparse ones)
        self.alpha_no = 4 * self.log_k + 5

    @property
    def k_bits(self) -> int:
        return self.k * self.k

    @property
    def mvc_target(self) -> int:
        return self.n_vertices() - self.alpha_yes

    # ------------------------------------------------------------------
    def build_skeleton(self) -> Graph:
        g = Graph()
        k, log_k = self.k, self.log_k
        for s in SETS:
            g.add_clique(row(s, i) for i in range(k))
            g.add_vertices(fvert(s, h) for h in range(log_k))
            g.add_vertices(tvert(s, h) for h in range(log_k))
        for ell in ("1", "2"):
            a, b = "A" + ell, "B" + ell
            for h in range(log_k):
                cyc = [fvert(a, h), tvert(a, h), fvert(b, h), tvert(b, h)]
                for i in range(4):
                    g.add_edge(cyc[i], cyc[(i + 1) % 4])
        for s in SETS:
            for i in range(k):
                for v in cobin(s, i, log_k):
                    g.add_edge(row(s, i), v)
        # connectivity connectors + pendants (cut untouched)
        for side, w, wp in (("A", W_A, WP_A), ("B", W_B, WP_B)):
            g.add_edge(w, wp)
            g.add_edge(w, row(side + "1", 0))
            g.add_edge(w, row(side + "2", 0))
        return g

    def apply_inputs(self, g: Graph, x: Sequence[int], y: Sequence[int]) -> None:
        k = self.k
        for i in range(k):
            for j in range(k):
                if not x[i * k + j]:
                    g.add_edge(row("A1", i), row("A2", j))
                if not y[i * k + j]:
                    g.add_edge(row("B1", i), row("B2", j))

    def alice_vertices(self) -> Set[Vertex]:
        va: Set[Vertex] = {W_A, WP_A}
        for s in ("A1", "A2"):
            va.update(row(s, i) for i in range(self.k))
            va.update(fvert(s, h) for h in range(self.log_k))
            va.update(tvert(s, h) for h in range(self.log_k))
        return va

    def predicate(self, graph: Graph) -> bool:
        """P: α(G) = 4·log k + 6 (iff DISJ = FALSE)."""
        return independence_number(graph) >= self.alpha_yes

    # ------------------------------------------------------------------
    def witness_independent_set(self, x: Sequence[int], y: Sequence[int],
                                ) -> List[Vertex]:
        """The explicit MaxIS of size 4·log k + 6 for intersecting inputs."""
        k, log_k = self.k, self.log_k
        idx = next(p for p in range(k * k) if x[p] == 1 and y[p] == 1)
        i, j = divmod(idx, k)
        witness = [row("A1", i), row("B1", i), row("A2", j), row("B2", j),
                   WP_A, WP_B]
        for s, val in (("A1", i), ("B1", i), ("A2", j), ("B2", j)):
            witness += bin_pairs(s, val, log_k)
        graph = self.build(x, y)
        assert len(witness) == self.alpha_yes
        assert is_independent_set(graph, witness)
        return witness
