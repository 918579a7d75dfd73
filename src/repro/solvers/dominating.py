"""Exact minimum (weighted, distance-k) dominating sets via set cover.

Domination is solved as weighted set cover over closed neighbourhoods
(distance-``k`` balls for k-MDS, Section 4.2/4.3 of the paper).  The set
cover branch-and-bound supports two extensions the Steiner-tree experiment
(Theorem 2.7) needs:

- ``candidates``: restrict which vertices may be picked;
- ``forced``: vertices that must be part of the solution.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.graphs import Graph, Vertex
from repro.solvers._bitmask import BitGraph, popcount
from repro.solvers.cache import cached
from repro.obs.profile import profiled

_INF = float("inf")


def is_dominating_set(graph: Graph, vs: Sequence[Vertex], k: int = 1) -> bool:
    """True iff every vertex is within distance ``k`` of some vertex in ``vs``.

    Ball masks are served by the graph kernel, so repeated calls on the
    same graph (e.g. validating several candidate sets) reuse one
    truncated-BFS sweep.
    """
    kern = graph.kernel()
    balls = kern.ball_masks(k)
    dominated = 0
    for v in vs:
        dominated |= balls[kern.index[v]]
    return dominated == (1 << kern.n) - 1


class _SetCoverSolver:
    """Branch-and-bound minimum-weight set cover over bitmask sets."""

    def __init__(self, n_elements: int, sets: List[Tuple[int, float, int]]):
        self.n = n_elements
        self.sets = sets  # (mask, weight, set id)
        self.full = (1 << n_elements) - 1
        self.best_weight = _INF
        self.best_choice: Optional[List[int]] = None
        # element -> list of set indices covering it
        self.coverers: List[List[int]] = [[] for __ in range(n_elements)]
        for idx, (mask, __, ___) in enumerate(sets):
            # inlined iter_bits: this runs once per (set, element) pair
            while mask:
                low = mask & -mask
                self.coverers[low.bit_length() - 1].append(idx)
                mask ^= low

    def solve(self, budget: float = _INF) -> Tuple[float, Optional[List[int]]]:
        self.best_weight = budget
        self.best_choice = None
        self._search(0, [], 0.0)
        return self.best_weight, self.best_choice

    def _lower_bound(self, covered: int) -> float:
        """Fractional density bound: every uncovered element costs at least
        the best weight-per-new-element density among remaining sets."""
        uncovered = self.full & ~covered
        if not uncovered:
            return 0.0
        best_density = _INF
        for mask, weight, __ in self.sets:
            band = mask & uncovered
            if band:
                density = weight / popcount(band)
                if density < best_density:
                    best_density = density
        if best_density is _INF:
            return _INF
        return popcount(uncovered) * best_density

    def _search(self, covered: int, chosen: List[int], weight: float) -> None:
        if weight + self._lower_bound(covered) >= self.best_weight:
            return
        uncovered = self.full & ~covered
        if uncovered == 0:
            self.best_weight = weight
            self.best_choice = list(chosen)
            return
        # branch on the uncovered element with fewest remaining coverers
        pivot = -1
        pivot_opts: Optional[List[int]] = None
        coverers = self.coverers
        sets = self.sets
        best_weight = self.best_weight
        m = uncovered
        while m:
            low = m & -m
            e = low.bit_length() - 1
            m ^= low
            opts = [i for i in coverers[e]
                    if sets[i][1] + weight < best_weight]
            if pivot_opts is None or len(opts) < len(pivot_opts):
                pivot, pivot_opts = e, opts
                if len(opts) <= 1:
                    break
        if not pivot_opts:
            return
        # prefer cheap, high-coverage sets first
        pivot_opts.sort(key=lambda i: (self.sets[i][1],
                                       -popcount(self.sets[i][0] & uncovered)))
        for i in pivot_opts:
            mask, w, __ = self.sets[i]
            chosen.append(i)
            self._search(covered | mask, chosen, weight + w)
            chosen.pop()


@profiled
def min_set_cover(
    n_elements: int,
    sets: Sequence[Tuple[Iterable[int], float]],
    budget: float = _INF,
) -> Tuple[float, Optional[List[int]]]:
    """Minimum weight set cover of ``0..n_elements-1``.

    ``sets`` is a sequence of ``(elements, weight)`` pairs.  Returns
    ``(weight, indices)`` or ``(budget, None)`` if no cover below ``budget``
    exists.
    """
    masks = []
    for idx, (elements, weight) in enumerate(sets):
        mask = 0
        for e in elements:
            if not 0 <= e < n_elements:
                raise ValueError(f"element {e} out of range")
            mask |= 1 << e
        masks.append((mask, float(weight), idx))
    solver = _SetCoverSolver(n_elements, masks)
    return solver.solve(budget)


def _ball_masks(graph: Graph, bg: BitGraph, k: int) -> List[int]:
    """Distance-``k`` closed ball of each vertex index, as element masks.

    Served by the graph kernel's cached truncated-BFS sweep (kernel
    indexing matches ``BitGraph`` indexing), instead of a dict-based BFS
    per vertex per call.
    """
    return graph.kernel().ball_masks(k)


@profiled(name="dominating.solve_domination")
@cached(name="dominating.solve_domination")
def _solve_domination(
    graph: Graph,
    k: int,
    weighted: bool,
    candidates: Optional[Iterable[Vertex]],
    forced: Optional[Iterable[Vertex]],
    budget: float,
    targets: Optional[Iterable[Vertex]] = None,
) -> Tuple[float, Optional[List[Vertex]]]:
    bg = BitGraph(graph)
    balls = _ball_masks(graph, bg, k)
    cand = set(candidates) if candidates is not None else set(bg.vertices)
    forced = list(forced) if forced is not None else []
    target_mask = bg.full_mask
    if targets is not None:
        target_mask = bg.mask_of(list(targets))
    covered = ~target_mask & bg.full_mask
    base_weight = 0.0
    for v in forced:
        i = bg.index[v]
        covered |= balls[i]
        base_weight += bg.weights[i] if weighted else 1.0
    sets = []
    for i, v in enumerate(bg.vertices):
        if v in cand and v not in forced:
            w = bg.weights[i] if weighted else 1.0
            sets.append((balls[i] & ~covered, w, i))
    remaining = bg.full_mask & ~covered
    # re-index remaining elements compactly (inlined iter_bits: this is
    # once per (set, element) pair on the hot solver path)
    remap = {}
    j = 0
    m = remaining
    while m:
        low = m & -m
        remap[low.bit_length() - 1] = j
        j += 1
        m ^= low
    compact_sets = []
    for mask, w, i in sets:
        cmask = 0
        while mask:
            low = mask & -mask
            cmask |= 1 << remap[low.bit_length() - 1]
            mask ^= low
        compact_sets.append((cmask, w, i))
    solver = _SetCoverSolver(len(remap), compact_sets)
    weight, choice = solver.solve(budget - base_weight)
    if choice is None:
        return budget, None
    picked = forced + [bg.vertices[compact_sets[i][2]] for i in choice]
    return base_weight + weight, picked


def constrained_min_dominating_set(
    graph: Graph,
    candidates: Optional[Iterable[Vertex]] = None,
    forced: Optional[Iterable[Vertex]] = None,
    budget: float = _INF,
    weighted: bool = False,
    k: int = 1,
    targets: Optional[Iterable[Vertex]] = None,
) -> Tuple[float, Optional[List[Vertex]]]:
    """Minimum (weight) distance-``k`` dominating set restricted to
    ``candidates``, containing ``forced``, covering ``targets`` (default:
    every vertex); ``(budget, None)`` if none exists below ``budget``
    (including infeasible candidate sets)."""
    return _solve_domination(graph, k, weighted, candidates, forced, budget,
                             targets=targets)


def min_dominating_set(
    graph: Graph,
    candidates: Optional[Iterable[Vertex]] = None,
    forced: Optional[Iterable[Vertex]] = None,
) -> List[Vertex]:
    """A minimum cardinality dominating set (optionally constrained)."""
    __, picked = _solve_domination(graph, 1, False, candidates, forced, _INF)
    assert picked is not None
    return picked


def min_dominating_set_weight(graph: Graph, k: int = 1) -> float:
    """Minimum total vertex weight of a distance-``k`` dominating set."""
    weight, picked = _solve_domination(graph, k, True, None, None, _INF)
    assert picked is not None
    return weight


def min_k_dominating_set_weight(graph: Graph, k: int) -> float:
    """Minimum weight k-MDS (Section 4.2/4.3)."""
    return min_dominating_set_weight(graph, k=k)


def has_dominating_set_of_size(graph: Graph, size: int) -> bool:
    """Decide whether a dominating set of cardinality ≤ ``size`` exists."""
    __, picked = _solve_domination(graph, 1, False, None, None, size + 0.5)
    return picked is not None
