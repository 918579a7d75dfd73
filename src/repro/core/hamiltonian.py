"""The Figure 2 family: directed Hamiltonian path and cycle
(Theorems 2.2 and 2.3, Claims 2.1-2.6).

Construction (Section 2.2.1).  k a power of two; K = k².  Special
vertices start, end, s¹₁, s²₁, s¹₂, s²₂; rows a^i_1, a^i_2, b^i_1, b^i_2.
For each box c ∈ [2·log k] there are vertices g_c, r_c and, per track
q ∈ {t, f} and slot d ∈ [k], a gadget of launch ℓ, skip σ and burn β
vertices.  The *wheel* vertex of gadget (c, d, q) is not new — it is a
reoccurrence of a row vertex:

- boxes c < log k host rows with subscript 1, boxes c ≥ log k subscript 2;
- track t hosts the rows whose relevant bit is 1, track f those with 0;
- slots d < k/2 are a-rows, slots d ≥ k/2 are b-rows (d-th in index order).

Edges: g_c → ℓ^{c,0}_q; ℓ → {σ, wheel}; wheel → β; σ ↔ β;
σ, β → next (ℓ^{c,d+1}_q, g_{c+1}, or r_{2log k−1});
β → prev (ℓ^{c,d−1}_q, r_{c−1}, or s¹₁); r_c → ℓ^{c,k−1}_q;
start → g_0; s¹₁ → a^i_1; a^i_2 → s²₁ → s¹₂ → b^i_1; b^i_2 → s²₂ → end;
input edges a^i_1 → a^j_2 iff x_{i,j} = 1 and b^i_1 → b^j_2 iff y_{i,j} = 1.

Claims 2.1/2.2: a directed Hamiltonian path exists iff
DISJ(x, y) = FALSE.  n = Θ(k·log k), |Ecut| = O(log k); Theorem 1.1 gives
Ω(n²/log⁴ n) (Theorem 2.2).  Claim 2.6 adds a ``middle`` vertex with
end → middle → start, turning the path family into a cycle family
(Theorem 2.3).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.family import LowerBoundGraphFamily
from repro.core.mds import _check_power_of_two
from repro.graphs import DiGraph, Vertex
from repro.solvers.hamilton import (
    find_hamiltonian_cycle,
    find_hamiltonian_path,
    is_hamiltonian_cycle,
    is_hamiltonian_path,
)

START = "start"
END = "end"
MIDDLE = "middle"
S11 = ("s", 1, 1)
S21 = ("s", 2, 1)
S12 = ("s", 1, 2)
S22 = ("s", 2, 2)


def arow(ell: int, i: int) -> Vertex:
    return ("row", f"A{ell}", i)


def brow(ell: int, i: int) -> Vertex:
    return ("row", f"B{ell}", i)


def launch(c: int, d: int, q: str) -> Vertex:
    return ("l", c, d, q)


def skip(c: int, d: int, q: str) -> Vertex:
    return ("sigma", c, d, q)


def burn(c: int, d: int, q: str) -> Vertex:
    return ("beta", c, d, q)


class HamiltonianPathFamily(LowerBoundGraphFamily):
    """Figure 2 / Theorem 2.2 family for directed Hamiltonian path."""

    cli_name = "hamiltonian-path"

    def __init__(self, k: int) -> None:
        self.k = k
        self.log_k = _check_power_of_two(k)
        self.n_boxes = 2 * self.log_k

    @property
    def k_bits(self) -> int:
        return self.k * self.k

    # ------------------------------------------------------------------
    def wheel(self, c: int, d: int, q: str) -> Vertex:
        """The row vertex serving as wheel^{c,d}_q."""
        k = self.k
        ell = 1 if c < self.log_k else 2
        bit_pos = c if c < self.log_k else c - self.log_k
        want = 1 if q == "t" else 0
        matching = [i for i in range(k) if (i >> bit_pos) & 1 == want]
        if d < k // 2:
            return arow(ell, matching[d])
        return brow(ell, matching[d - k // 2])

    def _forward_target(self, c: int, d: int, q: str) -> Vertex:
        if d != self.k - 1:
            return launch(c, d + 1, q)
        if c != self.n_boxes - 1:
            return ("g", c + 1)
        return ("r", self.n_boxes - 1)

    def _backward_target(self, c: int, d: int, q: str) -> Vertex:
        if d != 0:
            return launch(c, d - 1, q)
        if c != 0:
            return ("r", c - 1)
        return S11

    def build_skeleton(self) -> DiGraph:
        g = DiGraph()
        k = self.k
        for v in (START, END, S11, S21, S12, S22):
            g.add_vertex(v)
        for ell in (1, 2):
            for i in range(k):
                g.add_vertex(arow(ell, i))
                g.add_vertex(brow(ell, i))
        # special-vertex wiring
        for i in range(k):
            g.add_edge(S11, arow(1, i))
            g.add_edge(arow(2, i), S21)
            g.add_edge(S12, brow(1, i))
            g.add_edge(brow(2, i), S22)
        g.add_edge(S21, S12)
        g.add_edge(S22, END)
        g.add_edge(START, ("g", 0))
        # boxes
        for c in range(self.n_boxes):
            g.add_vertex(("g", c))
            g.add_vertex(("r", c))
            for q in ("t", "f"):
                g.add_edge(("g", c), launch(c, 0, q))
                g.add_edge(("r", c), launch(c, k - 1, q))
                for d in range(k):
                    l, s, b = launch(c, d, q), skip(c, d, q), burn(c, d, q)
                    w = self.wheel(c, d, q)
                    g.add_edge(l, s)
                    g.add_edge(l, w)
                    g.add_edge(w, b)
                    g.add_edge(s, b)
                    g.add_edge(b, s)
                    fwd = self._forward_target(c, d, q)
                    g.add_edge(s, fwd)
                    g.add_edge(b, fwd)
                    g.add_edge(b, self._backward_target(c, d, q))
        return g

    def apply_inputs(self, g: DiGraph, x: Sequence[int],
                     y: Sequence[int]) -> None:
        k = self.k
        for i in range(k):
            for j in range(k):
                if x[i * k + j]:
                    g.add_edge(arow(1, i), arow(2, j))
                if y[i * k + j]:
                    g.add_edge(brow(1, i), brow(2, j))

    def alice_vertices(self) -> Set[Vertex]:
        """A-rows, their gadget slots (d < k/2), and the box scaffolding."""
        k = self.k
        va: Set[Vertex] = {START, S11, S21}
        for ell in (1, 2):
            va.update(arow(ell, i) for i in range(k))
        for c in range(self.n_boxes):
            va.add(("g", c))
            va.add(("r", c))
            for q in ("t", "f"):
                for d in range(k // 2):
                    va.update({launch(c, d, q), skip(c, d, q), burn(c, d, q)})
        return va

    def predicate(self, graph: DiGraph) -> bool:
        """P: a directed Hamiltonian path exists (iff DISJ = FALSE)."""
        return find_hamiltonian_path(graph) is not None

    def _input_arcs(self) -> Tuple[List[Tuple[Vertex, Vertex]],
                                   List[Tuple[Vertex, Vertex]]]:
        """The per-bit input arcs, in bit order p = i·k + j (mirrors
        :meth:`apply_inputs`)."""
        k = self.k
        x_arcs = [(arow(1, i), arow(2, j))
                  for i in range(k) for j in range(k)]
        y_arcs = [(brow(1, i), brow(2, j))
                  for i in range(k) for j in range(k)]
        return x_arcs, y_arcs

    def make_batch_kernel(self, skeleton: DiGraph):
        """Successor/predecessor bitmask rows plus the hub of
        :func:`repro.solvers.hamilton.with_hub`, once; each pair ORs its
        input-arc bits and runs the cycle search that :meth:`predicate`
        runs through :func:`find_hamiltonian_path`."""
        from repro.solvers.batch_kernels import HamiltonianPathBatchKernel
        x_arcs, y_arcs = self._input_arcs()
        return HamiltonianPathBatchKernel(skeleton, x_arcs, y_arcs)

    # ------------------------------------------------------------------
    def witness_path(self, x: Sequence[int], y: Sequence[int]) -> List[Vertex]:
        """The explicit Hamiltonian path of Claim 2.1 (DISJ = FALSE)."""
        k, log_k = self.k, self.log_k
        idx = next(p for p in range(k * k) if x[p] == 1 and y[p] == 1)
        i, j = divmod(idx, k)
        # chooses: at box c take track f if the relevant bit of i (or j)
        # is 1, else track t, so the special rows are never wheel-visited
        choose: List[str] = []
        for c in range(self.n_boxes):
            bit_pos = c if c < log_k else c - log_k
            val = i if c < log_k else j
            choose.append("f" if (val >> bit_pos) & 1 else "t")

        path: List[Vertex] = [START]
        visited_rows: Set[Vertex] = set()
        # forward sweep over the chosen tracks
        for c in range(self.n_boxes):
            path.append(("g", c))
            q = choose[c]
            for d in range(k):
                l, s, b = launch(c, d, q), skip(c, d, q), burn(c, d, q)
                w = self.wheel(c, d, q)
                path.append(l)
                if w not in visited_rows:
                    visited_rows.add(w)
                    path.extend([w, b, s])   # wheel-forward-step
                else:
                    path.extend([s, b])      # beta-forward-step
        path.append(("r", self.n_boxes - 1))
        # backward sweep over the opposite tracks
        for c in range(self.n_boxes - 1, -1, -1):
            q = "f" if choose[c] == "t" else "t"
            for d in range(k - 1, -1, -1):
                path.extend([launch(c, d, q), skip(c, d, q), burn(c, d, q)])
            path.append(("r", c - 1) if c != 0 else S11)
        # the four special rows and the tail
        path.extend([arow(1, i), arow(2, j), S21, S12,
                     brow(1, i), brow(2, j), S22, END])
        # explicitly the *path* graph, even when self is a cycle family
        graph = HamiltonianPathFamily.build_skeleton(self)
        self.apply_inputs(graph, x, y)
        assert is_hamiltonian_path(graph, path), "witness path invalid"
        return path


class HamiltonianCycleFamily(HamiltonianPathFamily):
    """Claim 2.6 / Theorem 2.3: add ``middle`` with end → middle → start."""

    cli_name = "hamiltonian-cycle"

    def build_skeleton(self) -> DiGraph:
        g = super().build_skeleton()
        g.add_edge(END, MIDDLE)
        g.add_edge(MIDDLE, START)
        return g

    def alice_vertices(self) -> Set[Vertex]:
        return super().alice_vertices() | {MIDDLE}

    def predicate(self, graph: DiGraph) -> bool:
        """P: a directed Hamiltonian cycle exists (iff DISJ = FALSE)."""
        return find_hamiltonian_cycle(graph) is not None

    def make_batch_kernel(self, skeleton: DiGraph):
        from repro.solvers.batch_kernels import HamiltonianCycleBatchKernel
        x_arcs, y_arcs = self._input_arcs()
        return HamiltonianCycleBatchKernel(skeleton, x_arcs, y_arcs)

    def witness_cycle(self, x: Sequence[int], y: Sequence[int]) -> List[Vertex]:
        path = self.witness_path(x, y)
        cycle = path + [MIDDLE]
        assert is_hamiltonian_cycle(self.build(x, y), cycle)
        return cycle
