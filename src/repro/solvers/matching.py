"""Maximum cardinality matching and Tutte–Berge witnesses.

The matching is Edmonds' blossom algorithm for maximum cardinality
(tests check it against networkx and a naive recursion); on top of it sits
the *Tutte–Berge witness* used by the proof labeling scheme of Claim 5.12:
a set U with  ν(G) = (n + |U| − odd(G − U)) / 2, obtained from the
Gallai–Edmonds decomposition.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from repro.graphs import Graph, Vertex
from repro.obs.profile import profiled


@profiled
def max_matching(graph: Graph) -> List[Tuple[Vertex, Vertex]]:
    """A maximum cardinality matching, as ``(u, v)`` pairs.

    Edmonds' blossom algorithm over vertex indices: from each exposed
    root, grow an alternating BFS forest; an edge closing an odd cycle
    contracts it into its base (``base``), and reaching an exposed
    vertex flips the augmenting path found through the ``parent``
    pointers.  O(n³), after a greedy start.
    """
    verts = graph.vertices()
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    adj: List[List[int]] = [[] for _ in range(n)]
    for u, v in graph.edges():
        i, j = index[u], index[v]
        adj[i].append(j)
        adj[j].append(i)
    match = [-1] * n
    for i in range(n):
        if match[i] < 0:
            for j in adj[i]:
                if match[j] < 0:
                    match[i], match[j] = j, i
                    break

    def lca(a: int, b: int, base: List[int], parent: List[int]) -> int:
        # lowest common base of a and b on their alternating root paths
        on_path = [False] * n
        while True:
            a = base[a]
            on_path[a] = True
            if match[a] < 0:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if on_path[b]:
                return b
            b = parent[match[b]]

    def augment(root: int) -> None:
        # BFS from ``root``; on reaching an exposed vertex, flip the
        # augmenting path back to the root through parent and match
        base = list(range(n))
        parent = [-1] * n
        outer = [False] * n
        outer[root] = True
        queue = [root]
        for v in queue:
            for w in adj[v]:
                if base[v] == base[w] or match[v] == w:
                    continue
                if w == root or (match[w] >= 0 and parent[match[w]] >= 0):
                    # v–w closes an odd cycle: contract its blossom
                    b = lca(v, w, base, parent)
                    in_blossom = [False] * n
                    for x, child in ((v, w), (w, v)):
                        while base[x] != b:
                            in_blossom[base[x]] = True
                            in_blossom[base[match[x]]] = True
                            parent[x] = child
                            child = match[x]
                            x = parent[child]
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = b
                            if not outer[i]:
                                outer[i] = True
                                queue.append(i)
                elif parent[w] < 0:
                    parent[w] = v
                    if match[w] < 0:
                        while w >= 0:
                            p = parent[w]
                            nxt = match[p]
                            match[w], match[p] = p, w
                            w = nxt
                        return
                    outer[match[w]] = True
                    queue.append(match[w])

    for root in range(n):
        if match[root] < 0:
            augment(root)
    return [(verts[i], verts[j]) for i, j in enumerate(match) if i < j]


def max_matching_size(graph: Graph) -> int:
    return len(max_matching(graph))


def _odd_components(graph: Graph, removed: Set[Vertex]) -> int:
    rest = [v for v in graph.vertices() if v not in removed]
    sub = graph.induced_subgraph(rest)
    return sum(1 for comp in sub.connected_components() if len(comp) % 2 == 1)


def tutte_berge_value(graph: Graph, witness: Sequence[Vertex]) -> int:
    """The matching upper bound (n + |U| − odd(G−U)) / 2 for U=``witness``.

    By the Tutte–Berge formula ν(G) ≤ this value for every U, with
    equality for some U.
    """
    u_set = set(witness)
    n = graph.n
    return (n + len(u_set) - _odd_components(graph, u_set)) // 2


@profiled
def tutte_berge_witness(graph: Graph) -> List[Vertex]:
    """A set U achieving equality in the Tutte–Berge formula.

    Uses the Gallai–Edmonds decomposition: D = vertices missed by some
    maximum matching, A = N(D) \\ D; then U = A is tight.  D is found by
    |V| extra matching computations (fine at test scale).
    """
    nu = max_matching_size(graph)
    d_set = []
    for v in graph.vertices():
        rest = [u for u in graph.vertices() if u != v]
        if max_matching_size(graph.induced_subgraph(rest)) == nu:
            # some maximum matching misses v
            d_set.append(v)
    d = set(d_set)
    a = set()
    for v in d:
        a.update(graph.neighbors(v) - d)
    witness = list(a)
    assert tutte_berge_value(graph, witness) == nu, (
        "Gallai-Edmonds witness is not tight")
    return witness
