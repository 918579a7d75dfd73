#!/usr/bin/env python3
"""Proof labeling schemes (Section 5.2) end to end.

Builds a random graph, proves and locally verifies several predicates
from Lemma 5.1 and Claims 5.12-5.13, shows a corrupted label being
caught, and compiles a PLS into the Theorem 5.1 nondeterministic
two-party protocol over the MDS family.

Run:  python examples/pls_showcase.py
"""

import random

from repro import MdsFamily
from repro.cc.functions import random_input_pairs
from repro.experiments.limits import bfs_tree_edges
from repro.graphs import random_graph
from repro.pls import (
    AcyclicityPls,
    ConnectivityPls,
    DistanceAtLeastPls,
    MatchingAtLeastPls,
    MatchingLessThanPls,
    SpanningTreePls,
    check_completeness,
    pls_to_nondeterministic_protocol,
)
from repro.pls.scheme import PlsInstance, edge_key
from repro.solvers import max_matching_size, weighted_distance


def main() -> None:
    rng = random.Random(51)
    g = random_graph(14, 0.3, rng)
    while not g.is_connected():
        g = random_graph(14, 0.3, rng)
    root = sorted(g.vertices(), key=repr)[0]
    tree = bfs_tree_edges(g, root)
    tree_inst = PlsInstance(graph=g, subgraph=frozenset(
        edge_key(u, v) for u, v in tree))

    print("== proving and verifying (n = 14) ==")
    nu = max_matching_size(g)
    for u, v in g.edges():
        g.set_edge_weight(u, v, rng.randint(1, 9))
    vs = g.vertices()
    d = weighted_distance(g, vs[0], vs[-1])
    schemes = [
        (SpanningTreePls(), tree_inst),
        (AcyclicityPls(), tree_inst),
        (ConnectivityPls(), tree_inst),
        (MatchingAtLeastPls(), PlsInstance(graph=g, k=nu)),
        (MatchingLessThanPls(), PlsInstance(graph=g, k=nu + 1)),
        (DistanceAtLeastPls(), PlsInstance(graph=g, s=vs[0], t=vs[-1], k=d)),
    ]
    for scheme, inst in schemes:
        bits = check_completeness(scheme, inst)
        print(f"  {scheme.name:<22} accepted everywhere; "
              f"proof size {bits:4d} bits")

    print("\n== a corrupted label is caught locally ==")
    scheme = SpanningTreePls()
    labels = scheme.prove(tree_inst)
    victim = sorted(g.vertices(), key=repr)[3]
    labels[victim] = {"t_root": victim, "t_parent": None, "t_dist": 0}
    rejecting = [v for v in g.vertices()
                 if not scheme.vertex_accepts(tree_inst, labels, v)]
    print(f"  forged a second root at {victim!r}: "
          f"{len(rejecting)} vertices reject -> labeling refused")

    print("\n== Theorem 5.1: compiling the PLS into a 2-party protocol ==")
    fam = MdsFamily(4)

    def build_instance(x, y):
        gg = fam.build(x, y)
        r = sorted(gg.vertices(), key=repr)[0]
        t = bfs_tree_edges(gg, r)
        return PlsInstance(graph=gg, subgraph=frozenset(
            edge_key(a, b) for a, b in t))

    proto = pls_to_nondeterministic_protocol(
        SpanningTreePls(), build_instance, fam.alice_vertices())
    x, y = random_input_pairs(fam.k_bits, 2, rng)[0]
    res = proto.check_completeness(x, y)
    print(f"  honest certificates accepted with {res.bits} bits "
          f"(|Ecut| = {len(fam.cut_edges())})")
    print("  => Theorem 1.1 cannot beat O(pls-size·|Ecut|/log n) for "
          "spanning-tree verification (Lemma 5.1).")


if __name__ == "__main__":
    main()
