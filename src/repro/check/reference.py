"""Naive reference implementations of every exact solver.

Each function here re-answers a question that a production solver in
:mod:`repro.solvers` answers, using the most direct algorithm that can
be written: subset or permutation enumeration, plain sets and
dictionaries, no bitmask tricks, no branch-and-bound, no memoization
across calls.  Within one call a question may build its fixed inputs
once: the domination references build every vertex's closed ball once
per question and then enumerate subsets plainly, taking the union of
the chosen balls.  They share *no code* with the production solvers
(only the :class:`repro.graphs.Graph` substrate), so an agreement
between the two is evidence that both are right, and a disagreement is
a bug in one of them.

Everything is exponential and intended for the fuzzer's instance sizes
(n ≲ 10, m ≲ 20); callers gate applicability by size.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.graphs import DiGraph, Graph, Vertex

_INF = float("inf")
AnyGraph = Union[Graph, DiGraph]


# ----------------------------------------------------------------------
# independence / cover / domination
# ----------------------------------------------------------------------
def _independent(graph: Graph, subset: Sequence[Vertex]) -> bool:
    return not any(graph.has_edge(u, v) for u, v in combinations(subset, 2))


def ref_independence_number(graph: Graph) -> int:
    """α(G) by enumerating all vertex subsets."""
    vs = graph.vertices()
    best = 0
    for r in range(len(vs), 0, -1):
        if r <= best:
            break
        for subset in combinations(vs, r):
            if _independent(graph, subset):
                best = r
                break
    return best


def ref_max_independent_set_weight(graph: Graph) -> float:
    """Maximum total vertex weight over all independent sets."""
    vs = graph.vertices()
    best = 0.0
    for r in range(len(vs) + 1):
        for subset in combinations(vs, r):
            if _independent(graph, subset):
                best = max(best, sum(graph.vertex_weight(v) for v in subset))
    return best


def ref_min_vertex_cover_size(graph: Graph) -> int:
    """τ(G) by enumerating subsets in ascending size."""
    vs = graph.vertices()
    edges = graph.edges()
    for r in range(len(vs) + 1):
        for subset in combinations(vs, r):
            s = set(subset)
            if all(u in s or v in s for u, v in edges):
                return r
    raise AssertionError("unreachable: V itself is a cover")


def _ball(graph: Graph, v: Vertex, k: int) -> Set[Vertex]:
    """Distance-≤k closed ball, by k rounds of neighbourhood expansion."""
    ball = {v}
    for __ in range(k):
        grown = set(ball)
        for u in ball:
            grown |= graph.neighbors(u)
        if grown == ball:
            break
        ball = grown
    return ball


def _balls(graph: Graph, k: int) -> List[Set[Vertex]]:
    """Every vertex's closed k-ball, in ``graph.vertices()`` order."""
    return [_ball(graph, v, k) for v in graph.vertices()]


def ref_min_dominating_set_size(graph: Graph, k: int = 1) -> int:
    balls = _balls(graph, k)
    n = len(balls)
    for r in range(n + 1):
        for chosen in combinations(balls, r):
            if len(set().union(*chosen)) == n:
                return r
    raise AssertionError("unreachable: V dominates itself")


def ref_min_dominating_set_weight(graph: Graph, k: int = 1) -> float:
    vs = graph.vertices()
    balls = _balls(graph, k)
    n = len(vs)
    best = _INF
    for r in range(n + 1):
        for subset in combinations(range(n), r):
            if len(set().union(*(balls[i] for i in subset))) == n:
                best = min(best, sum(graph.vertex_weight(vs[i])
                                     for i in subset))
    return best


def ref_has_dominating_set_of_size(graph: Graph, size: int) -> bool:
    """Bounded-size domination decision (the Lemma 2.1 predicate shape);
    enumerating only up to ``size`` keeps the paper-family instances
    (n = 20 at k = 2, target 6) within reach of a reference check."""
    balls = _balls(graph, 1)
    n = len(balls)
    for r in range(min(size, n) + 1):
        for chosen in combinations(balls, r):
            if len(set().union(*chosen)) == n:
                return True
    return False


# ----------------------------------------------------------------------
# cuts
# ----------------------------------------------------------------------
def ref_max_cut_value(graph: Graph) -> float:
    """Maximum cut weight by enumerating every bipartition."""
    vs = graph.vertices()
    edges = [(u, v, graph.edge_weight(u, v)) for u, v in graph.edges()]
    best = 0.0
    for r in range(len(vs) + 1):
        for subset in combinations(vs, r):
            s = set(subset)
            best = max(best, sum(w for u, v, w in edges
                                 if (u in s) != (v in s)))
    return best


# ----------------------------------------------------------------------
# matching
# ----------------------------------------------------------------------
def ref_max_matching_size(graph: Graph) -> int:
    """ν(G) by recursion over the edge list (take or skip each edge)."""
    edges = graph.edges()

    def best_from(i: int, used: Set[Vertex]) -> int:
        if i >= len(edges):
            return 0
        u, v = edges[i]
        skip = best_from(i + 1, used)
        if u in used or v in used:
            return skip
        used.add(u)
        used.add(v)
        take = 1 + best_from(i + 1, used)
        used.discard(u)
        used.discard(v)
        return max(take, skip)

    return best_from(0, set())


# ----------------------------------------------------------------------
# hamiltonicity
# ----------------------------------------------------------------------
def _has_arc(graph: AnyGraph, u: Vertex, v: Vertex) -> bool:
    return graph.has_edge(u, v)


def ref_has_hamiltonian_path(graph: AnyGraph) -> bool:
    """Permutation scan; directed graphs respect arc orientation."""
    vs = list(graph.vertices())
    if len(vs) == 0:
        return False
    if len(vs) == 1:
        return True
    for perm in permutations(vs):
        if all(_has_arc(graph, a, b) for a, b in zip(perm, perm[1:])):
            return True
    return False


def ref_has_hamiltonian_cycle(graph: AnyGraph) -> bool:
    vs = list(graph.vertices())
    if len(vs) < 2:
        return False
    first = vs[0]
    for perm in permutations(vs[1:]):
        cycle = (first,) + perm
        if (all(_has_arc(graph, a, b) for a, b in zip(cycle, cycle[1:]))
                and _has_arc(graph, cycle[-1], first)):
            return True
    return False


# ----------------------------------------------------------------------
# Steiner trees
# ----------------------------------------------------------------------
def _connected(vertices: Sequence[Vertex],
               edges: Sequence[Tuple[Vertex, Vertex]]) -> bool:
    vs = list(vertices)
    if not vs:
        return True
    adj: Dict[Vertex, List[Vertex]] = {v: [] for v in vs}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {vs[0]}
    stack = [vs[0]]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vs)


def _mst_cost(graph: Graph, vs: Set[Vertex]) -> float:
    """Prim over the induced subgraph (inf if disconnected)."""
    vs = set(vs)
    if len(vs) <= 1:
        return 0.0
    start = next(iter(vs))
    in_tree = {start}
    cost = 0.0
    while in_tree != vs:
        best = _INF
        best_v: Optional[Vertex] = None
        for u in in_tree:
            for w in graph.neighbors(u):
                if w in vs and w not in in_tree:
                    c = graph.edge_weight(u, w)
                    if c < best:
                        best, best_v = c, w
        if best_v is None:
            return _INF
        in_tree.add(best_v)
        cost += best
    return cost


def ref_steiner_tree_cost(graph: Graph, terminals: Sequence[Vertex]) -> float:
    """Minimum Steiner cost: over every Steiner-vertex subset S, the MST
    of G[terminals ∪ S] is an upper bound, and the optimal tree's own
    vertex set makes the bound tight."""
    terms = list(dict.fromkeys(terminals))
    if len(terms) <= 1:
        return 0.0
    others = [v for v in graph.vertices() if v not in set(terms)]
    best = _INF
    for r in range(len(others) + 1):
        for subset in combinations(others, r):
            best = min(best, _mst_cost(graph, set(terms) | set(subset)))
    return best


def _reaches_all(graph: Graph, vs: Set[Vertex],
                 terms: Sequence[Vertex]) -> bool:
    """Whether every terminal is reachable from the first inside G[vs]."""
    seen = {terms[0]}
    queue = [terms[0]]
    while queue:
        u = queue.pop()
        for w in graph.neighbors(u):
            if w in vs and w not in seen:
                seen.add(w)
                queue.append(w)
    return all(t in seen for t in terms)


def ref_node_weighted_steiner_cost(graph: Graph,
                                   terminals: Sequence[Vertex]) -> float:
    """Minimum vertex weight of a terminal-connecting vertex set: over
    every non-terminal subset S, the weight of terminals ∪ S if the
    terminals lie in one component of G[terminals ∪ S]."""
    terms = list(dict.fromkeys(terminals))
    if not terms:
        return 0.0
    others = [v for v in graph.vertices() if v not in set(terms)]
    best = _INF
    for r in range(len(others) + 1):
        for subset in combinations(others, r):
            vs = set(terms) | set(subset)
            if _reaches_all(graph, vs, terms):
                best = min(best, sum(graph.vertex_weight(v) for v in vs))
    return best


# ----------------------------------------------------------------------
# 2-edge-connected spanning subgraphs
# ----------------------------------------------------------------------
def _two_edge_connected(vertices: Sequence[Vertex],
                        edges: Sequence[Tuple[Vertex, Vertex]]) -> bool:
    """Spanning, connected, and still connected after any one deletion."""
    if len(vertices) < 2:
        return False
    if not _connected(vertices, edges):
        return False
    for i in range(len(edges)):
        if not _connected(vertices, edges[:i] + edges[i + 1:]):
            return False
    return True


def ref_min_two_ecss_edges(graph: Graph) -> Optional[int]:
    """Minimum 2-ECSS size by edge-subset enumeration (None if G itself
    is not 2-edge-connected)."""
    vs = graph.vertices()
    edges = list(graph.edges())
    if not _two_edge_connected(vs, edges):
        return None
    for size in range(len(vs), len(edges) + 1):
        for subset in combinations(edges, size):
            if _two_edge_connected(vs, list(subset)):
                return size
    return None


# ----------------------------------------------------------------------
# flows and distances
# ----------------------------------------------------------------------
def ref_max_flow_value(graph: AnyGraph, s: Vertex, t: Vertex) -> float:
    """Max flow by the *other* side of strong duality: minimum s-t cut
    capacity over every vertex bipartition.  Completely independent of
    any augmenting-path computation."""
    others = [v for v in graph.vertices() if v not in (s, t)]
    directed = isinstance(graph, DiGraph)
    arcs = []
    for u, v in graph.edges():
        w = graph.edge_weight(u, v)
        arcs.append((u, v, w))
        if not directed:
            arcs.append((v, u, w))
    best = _INF
    for r in range(len(others) + 1):
        for subset in combinations(others, r):
            side = {s} | set(subset)
            cap = sum(w for u, v, w in arcs if u in side and v not in side)
            best = min(best, cap)
    return best


def ref_distance(graph: AnyGraph, s: Vertex, t: Vertex) -> float:
    """Weighted s-t distance by Bellman–Ford relaxation (no heap)."""
    directed = isinstance(graph, DiGraph)
    arcs = []
    for u, v in graph.edges():
        w = graph.edge_weight(u, v)
        arcs.append((u, v, w))
        if not directed:
            arcs.append((v, u, w))
    dist: Dict[Vertex, float] = {v: _INF for v in graph.vertices()}
    dist[s] = 0.0
    for __ in range(max(0, graph.n - 1)):
        changed = False
        for u, v, w in arcs:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            break
    return dist[t]
