"""Exact maximum (weight) independent set, and the independence number.

:func:`max_independent_set` is a branch-and-bound over bitmasks with
three ingredients that matter on the paper's instances:

- *component decomposition*: the bounded-degree graphs of Section 3 fall
  apart quickly once high-degree vertices are branched on;
- *greedy clique-cover upper bound*: the code-gadget graphs of Section 4.1
  and the row cliques of Section 2 are unions of large cliques, where a
  clique cover bound of "max weight per clique" is nearly tight;
- *weighted dominance reduction* for degree-≤1 vertices.

All weights must be non-negative.

:func:`independence_number` returns α(G) alone, by a bitmask
branch-and-reduce (:func:`_alpha`) over the neighbour masks of
:meth:`Graph.bits` and an ``alive`` mask passed down the recursion.  At
each search node:

- *reductions*, driven by a worklist of vertices whose degree fell:
  a vertex of degree 0 or 1 is taken; a degree-2 vertex whose neighbours
  are adjacent is taken; a degree-2 vertex v with non-adjacent
  neighbours u, w is *folded*: {u, v, w} contract into v, adjacent to
  N(u) ∪ N(w), and α drops by exactly 1.  The mask list is copied only
  when a fold rewrites it;
- *components* are solved separately;
- *pruning*: ``_alpha(adj, alive, dirty, lower)`` returns α exactly when
  α > ``lower`` and otherwise any value ≤ ``lower``.  A node returns at
  once when a greedy clique cover of ``alive`` has at most ``lower``
  cliques, since any clique cover bounds α.  The top call passes −1, so
  its answer is always exact;
- *mirror branching* (Fomin–Grandoni–Kratsch) on a maximum-degree
  vertex v: either v is in a maximum independent set, or one exists
  that avoids v and all its mirrors, the vertices u at distance 2 with
  N(v) ∖ N(u) a clique.

Every rule preserves α exactly and the bound only cuts subtrees that
cannot beat ``lower``, so the order in which rules fire changes the
search's cost but never its answer.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.graphs import BitGraph, Graph, Vertex
from repro.solvers._bitmask import lowest_bit, popcount, vertex_weights
from repro.obs.profile import profiled


def is_independent_set(graph: Graph, vs: Sequence[Vertex]) -> bool:
    """True iff no two vertices of ``vs`` are adjacent in ``graph``."""
    vs = list(vs)
    vset = set(vs)
    if len(vset) != len(vs):
        return False
    for v in vs:
        if graph.neighbors(v) & vset:
            return False
    return True


class _MisSolver:
    def __init__(self, bg: BitGraph, weights: List[float]) -> None:
        self.bg = bg
        self.weights = weights
        self.best_weight = -1.0
        self.best_mask = 0

    # -- upper bound ---------------------------------------------------
    def _clique_cover_bound(self, mask: int) -> float:
        """Greedy clique cover: each clique contributes its max weight."""
        bg, weights = self.bg, self.weights
        bound = 0.0
        remaining = mask
        while remaining:
            i = lowest_bit(remaining)
            clique = 1 << i
            best_w = weights[i]
            # grow a clique greedily among remaining vertices adjacent to
            # everything picked so far
            cands = remaining & bg.adj[i]
            while cands:
                j = lowest_bit(cands)
                clique |= 1 << j
                if weights[j] > best_w:
                    best_w = weights[j]
                cands &= bg.adj[j]
            bound += best_w
            remaining &= ~clique
        return bound

    # -- reductions ----------------------------------------------------
    def _reduce(self, mask: int, acc: int, acc_w: float) -> Tuple[int, int, float]:
        """Apply weighted degree-0/1 dominance reductions exhaustively."""
        bg, weights = self.bg, self.weights
        changed = True
        while changed:
            changed = False
            m = mask
            while m:
                i = lowest_bit(m)
                m &= m - 1
                if not (mask >> i) & 1:
                    continue  # removed earlier in this sweep
                nbrs = bg.adj[i] & mask
                if nbrs == 0:
                    if weights[i] > 0:
                        acc |= 1 << i
                        acc_w += weights[i]
                    mask &= ~(1 << i)
                    changed = True
                elif popcount(nbrs) == 1:
                    j = lowest_bit(nbrs)
                    if weights[i] >= weights[j]:
                        # taking i dominates taking j
                        acc |= 1 << i
                        acc_w += weights[i]
                        mask &= ~((1 << i) | (1 << j))
                        changed = True
        return mask, acc, acc_w

    # -- search --------------------------------------------------------
    def solve(self, mask: int) -> Tuple[float, int]:
        """Return (best weight, best mask) of an MIS within ``mask``."""
        self._search(mask, 0, 0.0)
        return self.best_weight, self.best_mask

    def _search(self, mask: int, acc: int, acc_w: float) -> None:
        mask, acc, acc_w = self._reduce(mask, acc, acc_w)
        if mask == 0:
            if acc_w > self.best_weight:
                self.best_weight = acc_w
                self.best_mask = acc
            return
        if acc_w + self._clique_cover_bound(mask) <= self.best_weight:
            return
        # component decomposition
        comps = self._components(mask)
        if len(comps) > 1:
            total_w = acc_w
            total_mask = acc
            # solve each component independently (optimal per component)
            for comp in comps:
                sub = _MisSolver(self.bg, self.weights)
                sub.best_weight = -1.0
                sub._search(comp, 0, 0.0)
                total_w += sub.best_weight
                total_mask |= sub.best_mask
            if total_w > self.best_weight:
                self.best_weight = total_w
                self.best_mask = total_mask
            return
        # branch on a maximum-degree vertex
        bg = self.bg
        pivot = -1
        pivot_deg = -1
        m = mask
        while m:
            i = lowest_bit(m)
            m &= m - 1
            d = popcount(bg.adj[i] & mask)
            if d > pivot_deg:
                pivot_deg = d
                pivot = i
        # include pivot
        self._search(mask & ~bg.closed(pivot), acc | (1 << pivot),
                     acc_w + self.weights[pivot])
        # exclude pivot
        self._search(mask & ~(1 << pivot), acc, acc_w)

    def _components(self, mask: int) -> List[int]:
        comps = []
        while mask:
            comps.append(_component(self.bg.adj, mask))
            mask &= ~comps[-1]
        return comps


@profiled
def max_independent_set(graph: Graph, weighted: bool = False) -> List[Vertex]:
    """Return a maximum (weight) independent set of ``graph``.

    With ``weighted=False`` every vertex counts 1 regardless of its stored
    weight; with ``weighted=True`` the stored vertex weights are used.
    """
    if graph.n == 0:
        return []
    bg = graph.bits()
    weights = vertex_weights(graph) if weighted else [1.0] * bg.n
    for w in weights:
        if w < 0:
            raise ValueError("negative vertex weights are not supported")
    solver = _MisSolver(bg, weights)
    __, best_mask = solver.solve(bg.full_mask)
    return bg.unmask(best_mask)


def _clique_cover(adj: Sequence[int], alive: int) -> int:
    """Number of cliques in a greedy clique cover of ``alive``.

    An independent set meets each clique at most once, so any clique
    cover bounds α from above.  Each clique is grown from a vertex of
    least remaining degree, which on sparse graphs covers far tighter
    than growing from the lowest index.
    """
    degree = [0] * len(adj)
    by_degree = [0] * 8                   # vertex mask per remaining degree
    m = alive
    while m:
        x = m & -m
        m ^= x
        i = x.bit_length() - 1
        d = popcount(adj[i] & alive)
        degree[i] = d
        if d >= len(by_degree):
            by_degree.extend([0] * (d + 1 - len(by_degree)))
        by_degree[d] |= x
    cliques = 0
    d = 0
    while alive:
        while not by_degree[d]:
            d += 1
        low = by_degree[d] & -by_degree[d]
        clique = low
        cands = adj[low.bit_length() - 1] & alive
        while cands:
            x = cands & -cands
            clique |= x
            cands &= adj[x.bit_length() - 1]
        alive &= ~clique
        cliques += 1
        touched = 0
        m = clique
        while m:
            x = m & -m
            m ^= x
            i = x.bit_length() - 1
            by_degree[degree[i]] ^= x
            touched |= adj[i]
        touched &= alive
        while touched:
            x = touched & -touched
            touched ^= x
            i = x.bit_length() - 1
            nd = popcount(adj[i] & alive)
            by_degree[degree[i]] ^= x
            by_degree[nd] |= x
            degree[i] = nd
            if nd < d:
                d = nd
    return cliques


def _component(adj: Sequence[int], alive: int) -> int:
    """The connected component of ``alive``'s lowest vertex."""
    comp = frontier = alive & -alive
    while frontier:
        reach = 0
        while frontier:
            x = frontier & -frontier
            frontier ^= x
            reach |= adj[x.bit_length() - 1]
        frontier = reach & alive & ~comp
        comp |= frontier
    return comp


def _alpha(adj: Sequence[int], alive: int, dirty: int, lower: int) -> int:
    """α of the graph that ``adj`` induces on ``alive``, if it exceeds
    ``lower``; otherwise some value ≤ ``lower``.

    ``dirty`` holds the vertices whose degree may have fallen to ≤ 2
    since the caller last reduced; only they are examined.  ``adj`` is
    shared with the caller and copied before a fold rewrites it.
    """
    acc = 0
    owned = False
    dirty &= alive
    while dirty:
        low = dirty & -dirty
        dirty ^= low
        if not alive & low:
            continue
        nbrs = adj[low.bit_length() - 1] & alive
        if not nbrs:                      # degree 0: take it
            alive ^= low
            acc += 1
            continue
        low_u = nbrs & -nbrs
        low_w = nbrs ^ low_u
        if not low_w:                     # degree 1: take it, drop u
            alive &= ~(low | low_u)
            dirty |= adj[low_u.bit_length() - 1] & alive
            acc += 1
            continue
        if low_w & (low_w - 1):           # degree ≥ 3
            continue
        u = low_u.bit_length() - 1
        w = low_w.bit_length() - 1
        if adj[u] & low_w:                # degree 2 in a triangle: take it
            alive &= ~(low | nbrs)
            dirty |= (adj[u] | adj[w]) & alive
        else:                             # degree 2 fold: {u, v, w} -> v
            if not owned:
                adj = list(adj)
                owned = True
            alive &= ~nbrs
            merged = (adj[u] | adj[w]) & alive & ~low
            adj[low.bit_length() - 1] = merged
            m = merged
            while m:
                x = m & -m
                m ^= x
                adj[x.bit_length() - 1] |= low
            dirty |= merged | low
        acc += 1
    if not alive:
        return acc
    need = lower - acc

    comp = _component(adj, alive)
    if comp != alive:                     # α adds up over components
        while alive:
            acc += _alpha(adj, comp, 0, -1)
            alive ^= comp
            comp = _component(adj, alive)
        return acc

    if need >= 1:
        bound = _clique_cover(adj, alive)
        if bound <= need:
            return acc + bound

    # branch on a maximum-degree vertex v
    v, best_deg = -1, -1
    m = alive
    while m:
        x = m & -m
        m ^= x
        i = x.bit_length() - 1
        d = popcount(adj[i] & alive)
        if d > best_deg:
            v, best_deg = i, d
    bit_v = 1 << v
    nv = adj[v] & alive
    rest = alive & ~(nv | bit_v)
    second = 0                            # N(N(v)) outside N[v]
    m = nv
    while m:
        x = m & -m
        m ^= x
        second |= adj[x.bit_length() - 1]
    second &= rest
    # mirrors: u at distance 2 with N(v) \ N(u) a clique
    drop = bit_v
    m = second
    while m:
        x = m & -m
        m ^= x
        missing = nv & ~adj[x.bit_length() - 1]
        r = missing
        while r:
            y = r & -r
            r ^= y
            if missing & ~y & ~adj[y.bit_length() - 1]:
                break
        else:
            drop |= x
    # include v; then exclude v and its mirrors
    best = 1 + _alpha(adj, rest, second, need - 1)
    alive &= ~drop
    touched = 0
    m = drop
    while m:
        x = m & -m
        m ^= x
        touched |= adj[x.bit_length() - 1]
    best = max(best, _alpha(adj, alive, touched, max(best, need)))
    return acc + best


@profiled
def independence_number(graph: Graph) -> int:
    """α(G) of an unweighted graph.

    Much faster than :func:`max_independent_set` on the large sparse
    graphs of Section 3; returns only the number.
    """
    if graph.n == 0:
        return 0
    bg = graph.bits()
    return _alpha(bg.adj, bg.full_mask, bg.full_mask, -1)


def max_independent_set_weight(graph: Graph) -> float:
    """Weight of a maximum-weight independent set (the unweighted α is
    :func:`independence_number`)."""
    mis = max_independent_set(graph, weighted=True)
    return sum(graph.vertex_weight(v) for v in mis)
