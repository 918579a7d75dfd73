"""Exact minimum Steiner tree (Dreyfus–Wagner dynamic program).

Edge-weighted, undirected; O(3^t · n + 2^t · n²) for t terminals, which is
what the generic cross-checks in the test-suite need.  The Theorem 2.7
family itself is verified through the structured solver in
``repro.core.steiner`` (its terminal count makes Dreyfus–Wagner
infeasible); the two solvers are cross-validated on small random graphs.
"""

from __future__ import annotations

import heapq
import math
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.graphs import Graph, Vertex
from repro.solvers._bitmask import vertex_weights
from repro.obs.profile import profiled

_INF = float("inf")


def is_steiner_tree(graph: Graph, edges: Sequence[Tuple[Vertex, Vertex]],
                    terminals: Sequence[Vertex]) -> bool:
    """Check that ``edges`` forms a tree (in ``graph``) spanning ``terminals``."""
    tree = Graph()
    for u, v in edges:
        if not graph.has_edge(u, v):
            return False
        if tree.has_edge(u, v):
            return False
        tree.add_edge(u, v)
    if tree.n == 0:
        return len(set(terminals)) <= 1
    if not tree.is_connected() or tree.m != tree.n - 1:
        return False
    return set(terminals) <= set(tree.vertices())


def _all_pairs_dijkstra(graph: Graph) -> Dict[Vertex, Dict[Vertex, float]]:
    dist = {}
    for s in graph.vertices():
        d = {s: 0.0}
        heap = [(0.0, id(s), s)]
        while heap:
            du, __, u = heapq.heappop(heap)
            if du > d.get(u, _INF):
                continue
            for v in graph.neighbors(u):
                alt = du + graph.edge_weight(u, v)
                if alt < d.get(v, _INF):
                    d[v] = alt
                    heapq.heappush(heap, (alt, id(v), v))
        dist[s] = d
    return dist


@profiled
def steiner_tree_cost(graph: Graph, terminals: Sequence[Vertex]) -> float:
    """Minimum total edge weight of a tree spanning ``terminals``."""
    terminals = list(dict.fromkeys(terminals))
    t = len(terminals)
    if t <= 1:
        return 0.0
    if t > 14:
        raise ValueError("Dreyfus-Wagner limited to 14 terminals")
    verts = graph.vertices()
    dist = _all_pairs_dijkstra(graph)
    base = terminals[:-1]
    root = terminals[-1]
    full = (1 << len(base)) - 1
    # dp[(mask, v)] = min cost of a tree spanning base[mask] ∪ {v}
    dp: Dict[Tuple[int, Vertex], float] = {}
    for i, term in enumerate(base):
        for v in verts:
            dp[(1 << i, v)] = dist[term].get(v, _INF)
    for size in range(2, len(base) + 1):
        for subset in combinations(range(len(base)), size):
            mask = 0
            for i in subset:
                mask |= 1 << i
            # merge step
            merged: Dict[Vertex, float] = {}
            sub = (mask - 1) & mask
            while sub:
                if sub < mask ^ sub:  # avoid double counting partitions
                    sub = (sub - 1) & mask
                    continue
                rest = mask ^ sub
                for v in verts:
                    c = dp.get((sub, v), _INF) + dp.get((rest, v), _INF)
                    if c < merged.get(v, _INF):
                        merged[v] = c
                sub = (sub - 1) & mask
            # propagate step (one Dijkstra-like relaxation over shortest paths)
            for v in verts:
                best = merged.get(v, _INF)
                for u in verts:
                    c = merged.get(u, _INF)
                    if c < _INF:
                        alt = c + dist[u].get(v, _INF)
                        if alt < best:
                            best = alt
                dp[(mask, v)] = best
    return dp.get((full, root), _INF)


@profiled
def steiner_tree(graph: Graph, terminals: Sequence[Vertex]) -> Tuple[float, List[Tuple[Vertex, Vertex]]]:
    """Minimum Steiner tree cost plus one optimal edge set.

    The edge set is recovered by re-solving on candidate vertex subsets; it
    is intended for small instances (tests and examples).
    """
    cost = steiner_tree_cost(graph, terminals)
    terminals = list(dict.fromkeys(terminals))
    if len(terminals) <= 1:
        return 0.0, []
    if cost == _INF:
        # terminals in different components: no spanning tree exists
        return _INF, []
    # brute-force the Steiner vertex subset guided by the known optimum
    others = [v for v in graph.vertices() if v not in set(terminals)]
    for extra in range(len(others) + 1):
        for subset in combinations(others, extra):
            vs = set(terminals) | set(subset)
            sub = graph.induced_subgraph(vs)
            if not sub.is_connected():
                continue
            tree_edges = _min_spanning_tree(sub)
            tree_cost = sum(graph.edge_weight(u, v) for u, v in tree_edges)
            tree_cost, tree_edges = _prune_leaves(graph, tree_edges,
                                                  set(terminals), tree_cost)
            if abs(tree_cost - cost) < 1e-9:
                return cost, tree_edges
    raise RuntimeError("failed to recover an optimal Steiner tree")


def _reach(adj: List[int], allowed: int, start: int) -> int:
    """Vertices reachable from the mask ``start`` inside ``allowed``,
    one whole BFS frontier per step."""
    seen = frontier = start
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & allowed & ~seen
        seen |= frontier
    return seen


@profiled
def min_node_weighted_steiner_cost(graph: Graph, terminals: Sequence[Vertex],
                                   limit_candidates: int = 16,
                                   cap: float = _INF) -> float:
    """Minimum total *vertex* weight of a connected subgraph spanning
    ``terminals`` (terminal weights are charged too, matching §4.4), or
    ``inf`` when it exceeds ``cap``: the graph wrapper of
    :func:`node_weighted_steiner_masks` over :meth:`Graph.bits`."""
    terminals = list(dict.fromkeys(terminals))
    if not terminals:
        return 0.0
    bg = graph.bits()
    return node_weighted_steiner_masks(
        bg.adj, vertex_weights(graph), [bg.index[t] for t in terminals],
        limit_candidates, cap)


def node_weighted_steiner_masks(adj: Sequence[int], weights: Sequence[float],
                                terminals: Sequence[int],
                                limit_candidates: int = 16,
                                cap: float = _INF) -> float:
    """The scan behind :func:`min_node_weighted_steiner_cost`, over
    vertex indices: ``adj[i]`` is the neighbour mask of vertex i,
    ``weights[i]`` its weight and ``terminals`` a nonempty list of
    distinct terminal indices.

    Zero-weight vertices are free and always available; the enumeration
    ranges over the positive-weight optional vertices p_0 < … < p_{m-1}.
    Uncapped, it takes at most ``limit_candidates`` paid vertices.
    Subsets are scanned best-first in cost order; the first whose
    vertices (with the free ones and the terminals) connect every
    terminal is optimal, so the scan stops there.  Connectivity is a
    bitmask BFS.

    The scan walks a tree over the subsets: a subset's parent is the
    subset without its highest-index paid vertex, and its cost is the
    parent's cost plus that vertex's weight, starting from the int 0.
    So a cost is the sum of its weights in vertex order, whatever order
    the scan visits subsets in, and int weights give an int.  Weights
    are positive, so a child never costs less than its parent and has a
    larger subset index (bit j for p_j).  A heap ordered by (cost,
    subset index) therefore pops every subset in nondecreasing cost,
    ties in index order: the value returned, type included, is that of
    the first connecting subset in that order, as it was when the whole
    cost table was built and stably sorted.

    With a finite ``cap`` the scan decides "optimum <= cap" instead: a
    subset costing more than ``cap`` is never pushed, so the heap pops
    the same subsets up to the cap, in the same order, and the first
    connecting one is the optimum as above; if none connects, the
    optimum exceeds the cap and the answer is ``inf``.  The refusal then
    comes from the cap: a subset within it has at most
    s = ⌊cap / w_min⌋ of the m paid vertices, so the scan refuses only
    when Σ_{i ≤ s} C(m, i) exceeds the 2^``limit_candidates`` subsets
    the uncapped scan may take.
    """
    paid = [i for i, w in enumerate(weights) if w > 0]
    m = len(paid)
    if cap == _INF or not paid:
        refused = m > limit_candidates
    else:
        w_min = min(weights[i] for i in paid)
        most = m if cap >= m * w_min else math.floor(cap / w_min)
        refused = sum(math.comb(m, s) for s in range(most + 1)) \
            > 1 << limit_candidates
    if refused:
        raise ValueError("too many positive-weight vertices to enumerate")
    terms = 0
    for t in terminals:
        terms |= 1 << t
    start = 1 << terminals[0]
    base_cost = sum(w for w in (weights[t] for t in terminals) if w > 0)
    paid_optional = [i for i in paid if not terms >> i & 1]
    fixed = terms  # always allowed: terminals and zero-weight vertices
    for i, w in enumerate(weights):
        if w == 0:
            fixed |= 1 << i
    everything = fixed
    for i in paid_optional:
        everything |= 1 << i
    if _reach(adj, everything, start) & terms != terms:
        return _INF
    # heap entries (cost, allowed mask, j of the highest paid vertex in
    # the subset); the masks of two subsets compare as their subset
    # indices do, because paid_optional is increasing
    bits = [1 << i for i in paid_optional]
    paid_w = [weights[i] for i in paid_optional]
    m = len(bits)
    heap = [(0, fixed, -1)]
    while heap:
        cost, allowed, top = heapq.heappop(heap)
        if _reach(adj, allowed, start) & terms == terms:
            return base_cost + cost
        for j in range(top + 1, m):
            child = cost + paid_w[j]
            if base_cost + child <= cap:
                heapq.heappush(heap, (child, allowed | bits[j], j))
    if cap == _INF:
        raise AssertionError("unreachable: the full subset connects")
    return _INF


@profiled
def min_directed_steiner_reachability_cost(dgraph, root, terminals,
                                           limit_paid: int = 16) -> float:
    """Minimum total *edge* weight of a sub-digraph in which every
    terminal is reachable from ``root`` — equal to the directed Steiner
    tree cost (a reachability subgraph prunes to a tree at no extra
    cost).  Zero-weight edges are free; enumeration ranges over the
    positive-weight edges."""
    from itertools import combinations as _comb

    free = [(u, v) for u, v in dgraph.edges()
            if dgraph.edge_weight(u, v) == 0]
    paid = [(u, v) for u, v in dgraph.edges()
            if dgraph.edge_weight(u, v) > 0]
    if len(paid) > limit_paid:
        raise ValueError("too many positive-weight edges to enumerate")
    targets = set(terminals)
    best = _INF
    for size in range(0, len(paid) + 1):
        for subset in _comb(paid, size):
            cost = sum(dgraph.edge_weight(u, v) for u, v in subset)
            if cost >= best:
                continue
            succ = {}
            for u, v in free + list(subset):
                succ.setdefault(u, []).append(v)
            seen = {root}
            stack = [root]
            while stack:
                u = stack.pop()
                for v in succ.get(u, ()):
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            if targets <= seen:
                best = cost
    return best


def _min_spanning_tree(graph: Graph) -> List[Tuple[Vertex, Vertex]]:
    edges = sorted(graph.edges(), key=lambda e: graph.edge_weight(*e))
    parent: Dict[Vertex, Vertex] = {v: v for v in graph.vertices()}

    def find(v: Vertex) -> Vertex:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    out = []
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            out.append((u, v))
    return out


def _prune_leaves(graph: Graph, edges: List[Tuple[Vertex, Vertex]],
                  terminals: Set[Vertex], cost: float) -> Tuple[float, List[Tuple[Vertex, Vertex]]]:
    edges = list(edges)
    changed = True
    while changed:
        changed = False
        degree: Dict[Vertex, int] = {}
        for u, v in edges:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        for u, v in list(edges):
            for leaf, other in ((u, v), (v, u)):
                if degree.get(leaf, 0) == 1 and leaf not in terminals:
                    edges.remove((u, v))
                    cost -= graph.edge_weight(u, v)
                    changed = True
                    break
            if changed:
                break
    return cost, edges
