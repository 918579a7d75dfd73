"""Exact minimum (weighted, distance-k) dominating sets via set cover.

Domination is solved as weighted set cover over closed neighbourhoods
(distance-``k`` balls for k-MDS, Section 4.2/4.3 of the paper).  The set
cover branch-and-bound supports two extensions the Steiner-tree experiment
(Theorem 2.7) needs:

- ``candidates``: restrict which vertices may be picked;
- ``forced``: vertices that must be part of the solution.

The search prunes a node when its weight plus a lower bound on covering
the still-uncovered elements reaches the best cover so far (or the
budget).  Two bounds, both valid only for weights >= 0 (negative weights
raise ``ValueError``):

- packing, tried first: take uncovered elements in ascending order, each
  adding its cheapest covering set's weight and removing every element
  that shares a set with it; the taken elements pairwise share no set, so
  every cover pays for each separately;
- density, when packing does not prune: the uncovered count times the
  best weight per newly covered element.  With integral weights every
  cover costs an integer, so this is computed exactly and rounded up.

Both bounds range only over the sets cheaper than the budget of the
solve: a set at or above it is in no cover strictly below it, so an
element whose every coverer is priced out makes the bound infinite.
The pivot is the uncovered element with the fewest sets the node can
still afford, counted as the popcount of its coverer mask against the
affordable mask.

A valid bound only cuts subtrees that hold no strictly better cover, so
tightening one leaves the visit order, the pivots and the sequence of
improving covers -- and hence every ``(weight, choice)`` -- unchanged.
Float sums depend on the order sets are added (a cover equal in reals
may have a smaller float sum), so with non-integral weights the packing
bound prunes only past a relative slack; the density bound uses the
float quotient as it is.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.graphs import Graph, Vertex
from repro.solvers._bitmask import popcount, vertex_weights
from repro.obs.profile import profiled

_INF = float("inf")


def is_dominating_set(graph: Graph, vs: Sequence[Vertex], k: int = 1) -> bool:
    """True iff every vertex is within distance ``k`` of some vertex in ``vs``.

    Ball masks are cached on the graph's bitmask view, so repeated calls
    on the same graph (e.g. validating several candidate sets) reuse one
    truncated-BFS sweep.
    """
    bg = graph.bits()
    balls = bg.ball_masks(k)
    dominated = 0
    for v in vs:
        dominated |= balls[bg.index[v]]
    return dominated == bg.full_mask


class _SetCoverSolver:
    """Branch-and-bound minimum-weight set cover over bitmask sets, with
    the two lower bounds of the module docstring (weights must be >= 0).

    The state comes in three parts.  The element index -- ``n``,
    ``full``, the set ``masks`` and, per element, the indices of its
    ``coverers`` (and, filled on first use, the same as a mask) --
    depends only on the sets, so solvers made by :meth:`reweighted`
    share it.  The weights (the check, the integer flag and the best
    cover) are per solver and set up by :meth:`_set_weights`.  The
    bound tables are per budget: :meth:`solve` keeps only the sets
    cheaper than its budget (the *affordable* ones) for them, since a
    set at or above the budget is in no cover strictly below it.
    """

    def __init__(self, n_elements: int, sets: List[Tuple[int, float, int]]):
        self.n = n_elements
        self.full = (1 << n_elements) - 1
        # element -> indices of the sets covering it
        coverers: List[List[int]] = [[] for __ in range(n_elements)]
        masks = []
        weights = []
        for idx, (mask, w, __) in enumerate(sets):
            masks.append(mask)
            weights.append(w)
            # inlined iter_bits: this runs once per (set, element) pair
            while mask:
                low = mask & -mask
                coverers[low.bit_length() - 1].append(idx)
                mask ^= low
        self.masks: Tuple[int, ...] = tuple(masks)
        self.coverers: Tuple[Tuple[int, ...], ...] = tuple(
            map(tuple, coverers))
        # per element, the mask of its coverers' indices, filled on first
        # use by the pivot choice (most batch-kernel solves end within a
        # few nodes); it depends only on the sets, so reweighted solvers
        # share the list
        self.coverer_masks: List[Optional[int]] = [None] * n_elements
        self._set_weights(weights)

    def reweighted(self, weights: List[float]) -> "_SetCoverSolver":
        """A solver over the same sets with set ``i`` weighing
        ``weights[i]`` (one weight per set; the solver keeps the list):
        it shares this one's element index and checks the weights as
        the constructor does."""
        solver = object.__new__(type(self))
        solver.n = self.n
        solver.full = self.full
        solver.masks = self.masks
        solver.coverers = self.coverers
        solver.coverer_masks = self.coverer_masks
        solver._set_weights(weights)
        return solver

    def _set_weights(self, weights: List[float]) -> None:
        """Check each weight, note whether all are integral, and reset
        the per-solve state; the solver keeps ``weights`` as it is."""
        # one builtin pass over the weights; a grid's weights take few
        # distinct values, so the checks below see only those
        integral = True
        isfinite = math.isfinite
        distinct = set(weights)
        for w in distinct:
            if w < 0:
                raise ValueError(f"set weight {w} is negative; the set "
                                 "cover bounds need weights >= 0")
            if integral and not (isfinite(w) and w == int(w)):
                integral = False
        self.weights = weights
        # integral weights whose total is below 2**53 (so every float sum
        # of them is exact): every cover costs an integer, so the bounds
        # are exact integers (the density bound rounds up).  Other weights
        # (fractions, inf, nan, or a total past 2**53) keep the float
        # density bound, and the packing bound gets a relative slack so
        # that no rounding can prune a cover whose float sum beats the
        # best one
        self.int_weights: Optional[List[int]] = None
        self.slack = 1.0 - 1e-9
        if integral and sum(weights) < 2 ** 53:
            self.int_weights = list(map(int, weights))
            self.slack = 1.0
        self.best_weight = _INF
        self.best_choice: Optional[List[int]] = None
        self._distinct = distinct
        self._budget: Optional[float] = None

    def solve(self, budget: float = _INF) -> Tuple[float, Optional[List[int]]]:
        self.best_weight = budget
        self.best_choice = None
        if budget != self._budget:
            self._budget = budget
            self._set_budget(budget)
        self._search(0, [], 0.0)
        return self.best_weight, self.best_choice

    def _set_budget(self, budget: float) -> None:
        """The bound tables over the sets cheaper than ``budget``: their
        mask (``affordable``), the density bound's ``(mask, weight)``
        list, the weight levels of the pivot choice, and the packing
        tables, filled per element on first use."""
        weights = self.weights
        bound_weights = self.int_weights or weights
        cheap = sorted(w for w in self._distinct if w < budget)
        if len(cheap) == len(self._distinct):
            affordable = (1 << len(weights)) - 1
            self.priced = list(zip(self.masks, bound_weights))
        else:
            affordable = 0
            for i, w in enumerate(weights):
                if w < budget:
                    affordable |= 1 << i
            self.priced = [(self.masks[i], bound_weights[i])
                           for i in range(len(weights))
                           if affordable >> i & 1]
        self.affordable = affordable
        # ascending distinct weights, each with the mask of the
        # affordable sets weighing at most it: the sets a node can still
        # afford are one of these masks, since fl(w + weight) grows with w
        if len(cheap) == 1:
            self.levels = [(cheap[0], affordable)]
        else:
            by_weight = dict.fromkeys(cheap, 0)
            for i, w in enumerate(weights):
                if affordable >> i & 1:
                    by_weight[w] |= 1 << i
            upto = 0
            self.levels = []
            for w in cheap:
                upto |= by_weight[w]
                self.levels.append((w, upto))
        self.conflict: List[Optional[int]] = [None] * self.n
        self.min_weight: List[float] = [_INF] * self.n

    def _element(self, e: int) -> int:
        """Fill element ``e``'s conflict mask (every element sharing an
        affordable set with it, itself included) and its cheapest
        affordable coverer's weight."""
        masks = self.masks
        weights = self.int_weights or self.weights
        affordable = self.affordable
        conflict = 1 << e
        cheapest = _INF
        for i in self.coverers[e]:
            if affordable >> i & 1:
                conflict |= masks[i]
                if weights[i] < cheapest:
                    cheapest = weights[i]
        self.conflict[e] = conflict
        self.min_weight[e] = cheapest
        return conflict

    def _coverer_mask(self, e: int) -> int:
        """Fill element ``e``'s coverer mask: bit i for set i covering it."""
        mask = 0
        for i in self.coverers[e]:
            mask |= 1 << i
        self.coverer_masks[e] = mask
        return mask

    def _packing_bound(self, uncovered: int) -> float:
        """Greedy packing: pairwise set-disjoint uncovered elements need
        distinct sets, each costing at least its cheapest coverer."""
        conflict = self.conflict
        min_weight = self.min_weight
        bound = 0
        while uncovered:
            e = (uncovered & -uncovered).bit_length() - 1
            c = conflict[e]
            if c is None:
                c = self._element(e)
            bound += min_weight[e]
            uncovered &= ~c
        return bound

    def _density_bound(self, uncovered: int) -> float:
        """Fractional density bound: every uncovered element costs at least
        the best weight-per-new-element density among affordable sets."""
        if self.int_weights is None:
            best_density = _INF
            for mask, weight in self.priced:
                band = mask & uncovered
                if band:
                    density = weight / popcount(band)
                    if density < best_density:
                        best_density = density
            if best_density is _INF:
                return _INF
            return popcount(uncovered) * best_density
        # best density best_w / best_b by cross-multiplying; 1/0 stands
        # for "no set meets the uncovered elements"
        best_w, best_b = 1, 0
        for mask, weight in self.priced:
            band = mask & uncovered
            if band:
                b = popcount(band)
                if weight * best_b < best_w * b:
                    best_w, best_b = weight, b
        if not best_b:
            return _INF
        return -(-(popcount(uncovered) * best_w) // best_b)

    def _search(self, covered: int, chosen: List[int], weight: float) -> None:
        uncovered = self.full & ~covered
        best_weight = self.best_weight
        if not uncovered:
            if weight < best_weight:
                self.best_weight = weight
                self.best_choice = list(chosen)
            return
        if (weight + self._packing_bound(uncovered)) * self.slack >= best_weight:
            return
        if weight + self._density_bound(uncovered) >= best_weight:
            return
        # the sets this node can afford: those with weight + w below the
        # best, a prefix of the weight levels
        afford = 0
        for w, upto in self.levels:
            if w + weight < best_weight:
                afford = upto
            else:
                break
        # branch on the uncovered element with fewest affordable coverers
        coverer_masks = self.coverer_masks
        pivot = -1
        fewest = -1
        m = uncovered
        while m:
            low = m & -m
            m ^= low
            e = low.bit_length() - 1
            c = coverer_masks[e]
            if c is None:
                c = self._coverer_mask(e)
            count = popcount(c & afford)
            if fewest < 0 or count < fewest:
                pivot, fewest = e, count
                if count <= 1:
                    break
        if not fewest:
            return
        # prefer cheap, high-coverage sets first (the sort is stable, so
        # ties keep the ascending index order of the coverers)
        weights = self.weights
        masks = self.masks
        opts = [i for i in self.coverers[pivot] if afford >> i & 1]
        opts.sort(key=lambda i: (weights[i], -popcount(masks[i] & uncovered)))
        for i in opts:
            chosen.append(i)
            self._search(covered | masks[i], chosen, weight + weights[i])
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


@profiled(name="dominating.solve_domination")
def _solve_domination(
    graph: Graph,
    k: int,
    weighted: bool,
    candidates: Optional[Iterable[Vertex]],
    forced: Optional[Iterable[Vertex]],
    budget: float,
    targets: Optional[Iterable[Vertex]] = None,
) -> Tuple[float, Optional[List[Vertex]]]:
    """The graph wrapper of :func:`dominate_masks`: vertices to indices
    of ``graph.bits()`` and back."""
    bg = graph.bits()
    weights = vertex_weights(graph) if weighted else [1.0] * bg.n
    cand_mask = bg.full_mask
    if candidates is not None:
        index = bg.index
        cand_mask = bg.mask_of([v for v in set(candidates) if v in index])
    target_mask = bg.full_mask
    if targets is not None:
        target_mask = bg.mask_of(list(targets))
    forced_idx = [bg.index[v] for v in forced] if forced is not None else []
    weight, picked = dominate_masks(bg.ball_masks(k), weights, cand_mask,
                                    forced_idx, budget, target_mask)
    if picked is None:
        return weight, None
    return weight, [bg.vertices[i] for i in picked]


def dominate_masks(
    balls: Sequence[int],
    weights: Sequence[float],
    candidates: int,
    forced: Sequence[int],
    budget: float,
    targets: Optional[int] = None,
) -> Tuple[float, Optional[List[int]]]:
    """Minimum weight domination over vertex indices: ``balls[i]`` is
    the mask vertex ``i`` dominates, ``candidates`` the mask of indices
    that may be picked, ``forced`` the indices that must be, and
    ``targets`` (default: every vertex) the mask to dominate.  Returns
    ``(weight, forced + picked indices)``, or ``(budget, None)`` when no
    such set weighs less than ``budget``.  The search behind
    :func:`constrained_min_dominating_set` and the Steiner batch kernel
    alike."""
    full = (1 << len(balls)) - 1
    target_mask = full if targets is None else targets
    covered = ~target_mask & full
    base_weight = 0.0
    for i in forced:
        covered |= balls[i]
        base_weight += weights[i]
    forced_set = set(forced)
    sets = []
    for i, ball in enumerate(balls):
        if candidates >> i & 1 and i not in forced_set:
            sets.append((ball & ~covered, weights[i], i))
    remaining = full & ~covered
    if remaining == full:
        # nothing is covered yet: the compact index is the identity
        compact_sets = sets
    else:
        # re-index remaining elements compactly (inlined iter_bits: this
        # is once per (set, element) pair on the hot solver path)
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
    solver = _SetCoverSolver(popcount(remaining), compact_sets)
    weight, choice = solver.solve(budget - base_weight)
    if choice is None:
        return budget, None
    return base_weight + weight, list(forced) + [compact_sets[i][2]
                                                 for i in choice]


def min_size_over_cases(balls: Sequence[int],
                        cases: Sequence[Tuple[int, Sequence[int]]],
                        budget: float = _INF) -> Optional[int]:
    """The fewest vertices that dominate under any of ``cases``, each a
    ``(candidates mask, forced indices)`` pair of :func:`dominate_masks`
    with unit weights, or None when every case needs at least
    ``budget``.  Each case searches below the best size so far."""
    weights = [1.0] * len(balls)
    best = _INF
    for candidates, forced in cases:
        __, picked = dominate_masks(balls, weights, candidates, forced,
                                    min(budget, best))
        if picked is not None:
            best = min(best, len(picked))
    return None if best == _INF else int(best)


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
