"""Max flow / min s-t cut (Edmonds–Karp) on directed or undirected graphs.

Used by the Claim 5.11 nondeterministic protocols: the max-flow witness is
a feasible flow, the min-cut witness is a vertex bipartition; both are
checked against these exact computations.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.graphs import DiGraph, Graph, Vertex
from repro.obs.profile import profiled

AnyGraph = Union[Graph, DiGraph]


def _capacity_map(graph: AnyGraph) -> Dict[Tuple[Vertex, Vertex], float]:
    cap: Dict[Tuple[Vertex, Vertex], float] = {}
    if isinstance(graph, DiGraph):
        for u, v in graph.edges():
            cap[(u, v)] = cap.get((u, v), 0.0) + graph.edge_weight(u, v)
    else:
        for u, v in graph.edges():
            w = graph.edge_weight(u, v)
            cap[(u, v)] = cap.get((u, v), 0.0) + w
            cap[(v, u)] = cap.get((v, u), 0.0) + w
    return cap


@profiled
def max_flow(graph: AnyGraph, s: Vertex, t: Vertex) -> Tuple[float, Dict[Tuple[Vertex, Vertex], float]]:
    """Return ``(value, flow)`` of a maximum s-t flow.

    Edge weights are the capacities (default 1).  ``flow`` maps directed
    arcs to non-negative flow amounts.
    """
    if s == t:
        raise ValueError("source equals sink")
    cap = _capacity_map(graph)
    residual: Dict[Tuple[Vertex, Vertex], float] = dict(cap)
    adj: Dict[Vertex, Set[Vertex]] = {v: set() for v in graph.vertices()}
    for (u, v) in cap:
        adj[u].add(v)
        adj[v].add(u)  # residual back arcs

    def bfs_path() -> Optional[List[Vertex]]:
        parent: Dict[Vertex, Vertex] = {s: s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in parent and residual.get((u, v), 0.0) > 1e-12:
                    parent[v] = u
                    if v == t:
                        path = [t]
                        while path[-1] != s:
                            path.append(parent[path[-1]])
                        return path[::-1]
                    queue.append(v)
        return None

    value = 0.0
    while True:
        path = bfs_path()
        if path is None:
            break
        bottleneck = min(residual.get((u, v), 0.0)
                         for u, v in zip(path, path[1:]))
        for u, v in zip(path, path[1:]):
            residual[(u, v)] = residual.get((u, v), 0.0) - bottleneck
            residual[(v, u)] = residual.get((v, u), 0.0) + bottleneck
        value += bottleneck

    flow: Dict[Tuple[Vertex, Vertex], float] = {}
    for arc, c in cap.items():
        used = c - residual.get(arc, 0.0)
        if used > 1e-12:
            flow[arc] = used
    # cancel opposite flows on undirected edges for a clean witness
    for (u, v) in list(flow):
        if (v, u) in flow and flow.get((u, v), 0.0) > 0 and flow.get((v, u), 0.0) > 0:
            m = min(flow[(u, v)], flow[(v, u)])
            flow[(u, v)] -= m
            flow[(v, u)] -= m
    flow = {arc: f for arc, f in flow.items() if f > 1e-12}
    return value, flow


def min_st_cut(graph: AnyGraph, s: Vertex, t: Vertex) -> Tuple[float, Set[Vertex]]:
    """Return ``(value, S)`` with s ∈ S, t ∉ S, and cut capacity = value."""
    cap = _capacity_map(graph)
    value, flow = max_flow(graph, s, t)
    residual: Dict[Tuple[Vertex, Vertex], float] = dict(cap)
    for arc, f in flow.items():
        residual[arc] = residual.get(arc, 0.0) - f
        back = (arc[1], arc[0])
        residual[back] = residual.get(back, 0.0) + f
    adj: Dict[Vertex, Set[Vertex]] = {v: set() for v in graph.vertices()}
    for (u, v) in residual:
        adj.setdefault(u, set()).add(v)
    side = {s}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for v in adj.get(u, ()):
            if v not in side and residual.get((u, v), 0.0) > 1e-12:
                side.add(v)
                queue.append(v)
    assert t not in side
    return value, side
