"""2-edge-connectivity and minimum 2-edge-connected spanning subgraph.

Claim 2.7 of the paper: a graph on n vertices has a 2-edge-connected
spanning subgraph with exactly n edges iff it has a Hamiltonian cycle.
``has_two_ecss_with_edges`` exploits that for the n-edge case and falls
back to subset enumeration otherwise, which is also what
``min_two_ecss_edges`` uses on small graphs.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Optional, Sequence, Set, Tuple

from repro.graphs import Graph, Vertex
from repro.solvers.hamilton import has_hamiltonian_cycle


def bridges(graph: Graph) -> List[Tuple[Vertex, Vertex]]:
    """All bridge edges, via the classic low-link DFS."""
    disc = {}
    low = {}
    out = []
    counter = [0]

    def dfs(root: Vertex) -> None:
        stack = [(root, None, iter(graph.neighbors(root)))]
        disc[root] = low[root] = counter[0]
        counter[0] += 1
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if w not in disc:
                    disc[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append((w, v, iter(graph.neighbors(w))))
                    advanced = True
                    break
                if w != parent:
                    low[v] = min(low[v], disc[w])
            if not advanced:
                stack.pop()
                if parent is not None:
                    low[parent] = min(low[parent], low[v])
                    if low[v] > disc[parent]:
                        out.append((parent, v))

    for v in graph.vertices():
        if v not in disc:
            dfs(v)
    return out


def is_two_edge_connected(graph: Graph) -> bool:
    """Connected, spanning, and bridgeless."""
    if graph.n < 2:
        return False
    return graph.is_connected() and not bridges(graph)


def has_two_ecss_with_edges(graph: Graph, n_edges: int) -> bool:
    """Decide whether a 2-edge-connected spanning subgraph with exactly
    ``n_edges`` edges exists.

    For ``n_edges == n`` this is Hamiltonicity (Claim 2.7); other budgets
    enumerate edge subsets and are only meant for small instances.
    """
    n = graph.n
    if n_edges < n:
        return False  # 2-edge-connected spanning needs min degree 2
    if n_edges > graph.m:
        return False
    if n_edges == n:
        return has_hamiltonian_cycle(graph)
    return _subset_search(graph, n_edges) is not None


def min_two_ecss_edges(graph: Graph, limit_edges: int = 18) -> Optional[int]:
    """Minimum number of edges of a 2-ECSS, by subset enumeration.

    Only for small graphs (``graph.m`` ≤ ``limit_edges``); returns None if
    the graph has no 2-edge-connected spanning subgraph at all.
    """
    if graph.m > limit_edges:
        raise ValueError("min_two_ecss_edges is exponential; graph too large")
    if not is_two_edge_connected(graph):
        return None
    for size in range(graph.n, graph.m + 1):
        if _subset_search(graph, size) is not None:
            return size
    return None


def _subset_search(graph: Graph, size: int) -> Optional[List[Tuple[Vertex, Vertex]]]:
    edges = graph.edges()
    vertices = graph.vertices()
    for subset in combinations(edges, size):
        sub = Graph()
        sub.add_vertices(vertices)
        for u, v in subset:
            sub.add_edge(u, v)
        if min(sub.degree(v) for v in vertices) < 2:
            continue
        if is_two_edge_connected(sub):
            return list(subset)
    return None
