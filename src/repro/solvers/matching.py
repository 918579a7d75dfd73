"""Maximum cardinality matching and Tutte–Berge witnesses.

The matching itself uses networkx's blossom implementation (a verified
standard component); what the paper needs on top of it — and what we build
here — is the *Tutte–Berge witness* used by the proof labeling scheme of
Claim 5.12: a set U with  ν(G) = (n + |U| − odd(G − U)) / 2, obtained from
the Gallai–Edmonds decomposition.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from repro.graphs import Graph, Vertex
from repro.obs.profile import profiled


@profiled
def max_matching(graph: Graph) -> List[Tuple[Vertex, Vertex]]:
    """A maximum cardinality matching."""
    import networkx as nx

    nxg = graph.to_networkx()
    matching = nx.max_weight_matching(nxg, maxcardinality=True, weight=None)
    return [tuple(e) for e in matching]


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
