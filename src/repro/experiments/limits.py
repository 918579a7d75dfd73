"""Experiments for Theorem 1.1 mechanics and the Section 5 limitations."""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.cc.alice_bob import implied_round_lower_bound, simulate_two_party
from repro.cc.functions import DISJ, EQ, random_input_pairs
from repro.cc.nondeterministic import gamma
from repro.cc.protocol import Channel
from repro.congest.algorithms.basic import FloodMinId
from repro.core.maxcut import MaxCutFamily
from repro.core.mds import MdsFamily
from repro.experiments.runner import ExperimentRecord, experiment
from repro.graphs import Graph, Vertex, random_graph
from repro.limits import (
    PartitionedInstance,
    max_flow_at_least_protocol,
    max_flow_less_than_protocol,
    maxcut_weighted_two_thirds_protocol,
    maxis_half_protocol,
    mds_two_approx_protocol,
    mvc_three_halves_protocol,
)
from repro.pls import (
    MatchingAtLeastPls,
    SpanningTreePls,
    check_completeness,
    pls_to_nondeterministic_protocol,
)
from repro.pls.scheme import PlsInstance, edge_key
from repro.solvers import (
    cut_weight,
    is_dominating_set,
    is_independent_set,
    is_vertex_cover,
    max_cut_value,
    max_flow,
    max_independent_set,
    min_dominating_set,
    min_vertex_cover_size,
)


@experiment("E-T1.1-simulation")
def run_theorem11(quick: bool = True) -> ExperimentRecord:
    """Run a real CONGEST algorithm through the Alice-Bob simulation and
    check the 2·T·|Ecut|·B accounting, then evaluate the implied bound."""
    fam = MdsFamily(4)
    rng = random.Random(0x11)
    x, y = random_input_pairs(fam.k_bits, 2, rng)[0]
    g = fam.build(x, y)
    sim = simulate_two_party(g, fam.alice_vertices(), FloodMinId)
    assert sim.within_budget
    bound = implied_round_lower_bound(fam.function.cc(fam.k_bits),
                                      sim.ecut_size, g.n)
    return ExperimentRecord(
        experiment_id="E-T1.1-simulation",
        paper_claim="T-round algorithms cost Alice+Bob ≤ 2T·|Ecut|·B "
                    "bits; rounds ≥ CC(f)/(|Ecut| log n) (Thm 1.1)",
        parameters={"family": "MdsFamily", "k": 4},
        measured={
            "rounds": sim.rounds,
            "cut_bits": sim.cut_bits,
            "budget": sim.bits_budget,
            "within_budget": sim.within_budget,
            "implied_round_bound": round(bound, 3),
        },
        passed=sim.within_budget,
    )


@experiment("E-C5.4-C5.9-protocol-limits")
def run_protocol_limits(quick: bool = True) -> ExperimentRecord:
    """General-graph approximation protocols cap what Theorem 1.1 can
    prove (Claims 5.4-5.9): measure their bits on family instances."""
    rng = random.Random(0x54)
    fam = MaxCutFamily(2)
    x, y = random_input_pairs(4, 2, rng)[1]
    g = fam.build(x, y)
    inst = PartitionedInstance(graph=g, alice=fam.alice_vertices())
    measured: Dict[str, object] = {"ecut": len(inst.cut_edges())}

    ch = Channel()
    side = maxcut_weighted_two_thirds_protocol(inst, ch)
    opt = max_cut_value(g)
    measured["maxcut_2/3_bits"] = ch.bits
    measured["maxcut_2/3_ratio"] = round(cut_weight(g, side) / opt, 3)
    assert cut_weight(g, side) >= (2 / 3) * opt - 1e-9

    ch = Channel()
    cover = mvc_three_halves_protocol(inst, ch)
    assert is_vertex_cover(g, cover)
    mvc_ratio = len(set(cover)) / min_vertex_cover_size(g)
    assert mvc_ratio <= 3 / 2 + 1e-9
    measured["mvc_3/2_bits"] = ch.bits
    measured["mvc_3/2_ratio"] = round(mvc_ratio, 3)

    ch = Channel()
    ds = mds_two_approx_protocol(inst, ch)
    assert is_dominating_set(g, ds)
    mds_ratio = len(set(ds)) / len(min_dominating_set(g))
    assert mds_ratio <= 2 + 1e-9
    measured["mds_2_bits"] = ch.bits
    measured["mds_2_ratio"] = round(mds_ratio, 3)

    ch = Channel()
    mis = maxis_half_protocol(inst, ch)
    alpha = len(max_independent_set(g))
    assert is_independent_set(g, mis)
    assert len(mis) >= alpha / 2
    measured["maxis_1/2_bits"] = ch.bits
    measured["maxis_1/2_ratio"] = round(len(mis) / max(1, alpha), 3)
    return ExperimentRecord(
        experiment_id="E-C5.4-C5.9-protocol-limits",
        paper_claim="cheap 2-party protocols: (1−ε)/2-3 max-cut, 3/2 & "
                    "(1+ε) MVC, 2 MDS, 1/2 MaxIS (Claims 5.4-5.9)",
        parameters={"instance": "MaxCutFamily(k=2)"},
        measured=measured,
    )


@experiment("E-C5.10-C5.11-nondeterminism")
def run_nondeterminism(quick: bool = True) -> ExperimentRecord:
    rng = random.Random(0x51)
    # Γ(f) values (Claim 5.10 and the discussion around it)
    gammas = {f"gamma(DISJ)@K={K}": round(gamma(DISJ, K), 3)
              for K in (64, 1024)}
    gammas.update({f"gamma(EQ)@K={K}": round(gamma(EQ, K), 3)
                   for K in (64, 1024)})
    # max-flow ND protocols on random partitioned instances (Claim 5.11)
    bits_at_least = bits_less = 0
    checks = 0
    for __ in range(3 if quick else 8):
        g = random_graph(8, 0.5, rng)
        if not g.is_connected():
            continue
        for u, v in g.edges():
            g.set_edge_weight(u, v, rng.randint(1, 5))
        vs = g.vertices()
        inst = PartitionedInstance(graph=g, alice=set(vs[:4]))
        s, t = vs[0], vs[-1]
        mf, __f = max_flow(g, s, t)
        proto = max_flow_at_least_protocol(inst, s, t, mf)
        res = proto.check_completeness(None, None)
        bits_at_least = max(bits_at_least, res.bits)
        proto2 = max_flow_less_than_protocol(inst, s, t, mf + 1)
        res2 = proto2.check_completeness(None, None)
        bits_less = max(bits_less, res2.bits)
        checks += 1
    return ExperimentRecord(
        experiment_id="E-C5.10-C5.11-nondeterminism",
        paper_claim="CCN certificates cap Thm 1.1 at Ω(Γ(f)); max-flow "
                    "has O(|Ecut| log n) ND protocols both ways "
                    "(Claims 5.10, 5.11)",
        parameters={"instances": checks},
        measured={**gammas,
                  "flow_geq_bits": bits_at_least,
                  "flow_less_bits": bits_less},
    )


def bfs_tree_edges(g: Graph, root: Vertex) -> List[Tuple[Vertex, Vertex]]:
    """The ``(parent, child)`` edges of a BFS tree of ``g`` from ``root``,
    each vertex's neighbours scanned in :meth:`Graph.edges` order."""
    nbrs: Dict[Vertex, List[Vertex]] = {v: [] for v in g.vertices()}
    for u, v in g.edges():
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = {root}
    queue = [root]
    tree = []
    for u in queue:
        for v in nbrs[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
                tree.append((u, v))
    return tree


@experiment("E-T5.1-pls-compiler")
def run_pls_compiler(quick: bool = True) -> ExperimentRecord:
    """Theorem 5.1: compile PLS into ND protocols over a family."""
    rng = random.Random(0x52)
    fam = MdsFamily(4)
    va = fam.alice_vertices()

    def build_instance(x, y):
        g = fam.build(x, y)
        tree = bfs_tree_edges(g, min(g.vertices(), key=repr))
        return PlsInstance(
            graph=g,
            subgraph=frozenset(edge_key(u, v) for u, v in tree))

    proto = pls_to_nondeterministic_protocol(SpanningTreePls(),
                                             build_instance, va)
    x, y = random_input_pairs(fam.k_bits, 2, rng)[0]
    res = proto.check_completeness(x, y)
    # matching PLS label sizes (Claim 5.12)
    g = random_graph(8, 0.5, rng)
    from repro.solvers import max_matching_size

    nu = max_matching_size(g)
    bits = check_completeness(MatchingAtLeastPls(),
                              PlsInstance(graph=g, k=nu))
    return ExperimentRecord(
        experiment_id="E-T5.1-pls-compiler",
        paper_claim="any PLS compiles to an ND protocol of "
                    "O(pls-size·|Ecut|) bits (Thm 5.1); matching and "
                    "distance have O(log n) PLS (Claims 5.12, 5.13)",
        parameters={"family": "MdsFamily(k=4)"},
        measured={
            "compiled_protocol_bits": res.bits,
            "ecut": len(fam.cut_edges()),
            "matching_pls_label_bits": bits,
        },
    )
