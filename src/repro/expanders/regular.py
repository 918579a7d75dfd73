"""3-regular expanders with a computed (not assumed) expansion certificate.

Claim 3.2 cites the explicit recursive construction of Ajtai [2].  We
substitute deterministic seeded search over random cubic graphs and
*certify* each instance spectrally: for a d-regular graph with adjacency
second eigenvalue λ₂, the edge expansion satisfies h(G) ≥ (d − λ₂)/2
(Cheeger), and the vertex expansion c ≥ h/d.  The search retries seeds
until the certificate clears the requested threshold, so downstream code
never relies on an unverified expander.

The random cubic graphs come from :func:`random_regular_edges`, an
in-repo port of networkx 3.x's ``random_regular_graph`` (Steger–Wormald
pairing, BSD-licensed): for one seed it yields the same edges in the
same order, so every gadget is the graph networkx would have sampled.
"""

from __future__ import annotations

import random
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.graphs import Graph


def random_regular_edges(d: int, n: int, seed: int) -> List[Tuple[int, int]]:
    """The edges of a random ``d``-regular simple graph on ``0..n-1``.

    Steger–Wormald pairing: shuffle the ``n·d`` stubs, pair them off,
    keep the pairs that are new non-loop edges and re-pair the stubs of
    the rest, restarting when no suitable pair is left.  A port of
    networkx 3.x's ``random_regular_graph(d, n, seed)`` on
    ``random.Random(seed)``: same random draws, same edge set, and the
    edges come out in the order networkx's ``Graph.edges()`` lists them
    (``(u, v)`` with ``u < v``, ``u`` ascending).
    """
    if (n * d) % 2:
        raise ValueError("n * d must be even")
    if not 0 <= d < n:
        raise ValueError("the 0 <= d < n inequality must be satisfied")
    rng = random.Random(seed)

    def suitable(edges: Set[Tuple[int, int]],
                 potential: Dict[int, int]) -> bool:
        # is some unpaired stub pair still a new edge?  (The swap below
        # rebinds s1 for the rest of the inner loop, as upstream does.)
        if not potential:
            return True
        for s1 in potential:
            for s2 in potential:
                if s1 == s2:
                    break
                if s1 > s2:
                    s1, s2 = s2, s1
                if (s1, s2) not in edges:
                    return True
        return False

    def try_creation():
        edges: Set[Tuple[int, int]] = set()
        stubs = list(range(n)) * d
        while stubs:
            potential: Dict[int, int] = {}
            rng.shuffle(stubs)
            it = iter(stubs)
            for s1, s2 in zip(it, it):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and (s1, s2) not in edges:
                    edges.add((s1, s2))
                else:
                    potential[s1] = potential.get(s1, 0) + 1
                    potential[s2] = potential.get(s2, 0) + 1
            if not suitable(edges, potential):
                return None
            stubs = [node for node, count in potential.items()
                     for _ in range(count)]
        return edges

    edges = try_creation()
    while edges is None:
        edges = try_creation()
    # networkx inserts the set into its adjacency dicts in set order (int
    # tuples hash alike in every process) and lists each edge once, from
    # its lower endpoint
    nbrs: List[List[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return [(u, v) for u in range(n) for v in nbrs[u] if v > u]


def spectral_expansion(graph: Graph, degree: int = 3) -> float:
    """Certified vertex expansion from the spectral gap.

    Returns c such that every S with |S| ≤ n/2 has |N(S) \\ S| ≥ c·|S|.
    The adjacency matrix is indexed in ``graph.vertices()`` order and
    holds the edge weights (1.0 when unweighted).
    """
    verts = graph.vertices()
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    adj = np.zeros((n, n))
    for u, v in graph.edges():
        adj[index[u], index[v]] = adj[index[v], index[u]] = \
            graph.edge_weight(u, v)
    eigs = np.linalg.eigvalsh(adj)
    lambda2 = float(sorted(eigs)[-2]) if n >= 2 else 0.0
    edge_expansion = max(0.0, (degree - lambda2) / 2.0)
    return edge_expansion / degree


def certified_cubic_expander(n: int, min_expansion: float = 0.1,
                             seed: int = 0, max_tries: int = 200,
                             ) -> Tuple[Graph, float]:
    """A connected 3-regular graph on ``n`` vertices (n even, n ≥ 4) with
    certified vertex expansion ≥ ``min_expansion``.

    Deterministic given ``seed``: seeds are tried in order until the
    spectral certificate clears the threshold.
    """
    if n % 2 or n < 4:
        raise ValueError("3-regular graphs need an even n >= 4")
    for attempt in range(max_tries):
        g = Graph()
        for u, v in random_regular_edges(3, n, seed + attempt):
            g.add_edge(("x", u), ("x", v))
        if not g.is_connected():
            continue
        c = spectral_expansion(g, degree=3)
        if c >= min_expansion:
            return g, c
    raise RuntimeError(
        f"no cubic expander with expansion {min_expansion} found in "
        f"{max_tries} seeds at n={n}")
