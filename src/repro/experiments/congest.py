"""Experiments for the CONGEST upper bounds (Theorem 2.9 and the
folklore O(m + D) universal algorithm that matches the Section 2 lower
bounds)."""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.congest.algorithms import (
    run_local_universal,
    run_maxcut_sampling,
    run_universal_exact,
)
from repro.core.mds import MdsFamily
from repro.cc.functions import random_input_pairs
from repro.experiments.runner import ExperimentRecord, experiment
from repro.graphs import Graph, random_graph
from repro.solvers import (
    cut_weight,
    is_dominating_set,
    max_cut_value,
    min_dominating_set,
)


@experiment("E-T2.9-congest-maxcut")
def run_congest_maxcut(quick: bool = True) -> ExperimentRecord:
    rng = random.Random(0x29)
    sizes = [12, 16] if quick else [12, 16, 20]
    rounds_by_n: Dict[int, int] = {}
    ratios: List[float] = []
    for n in sizes:
        g = random_graph(n, 0.4, rng)
        while not g.is_connected():
            g = random_graph(n, 0.4, rng)
        exact = max_cut_value(g)
        res = run_maxcut_sampling(g, p=0.75, seed=n)
        achieved = cut_weight(g, [v for v, s in res.sides.items() if s])
        ratios.append(achieved / exact)
        rounds_by_n[n] = res.rounds
        # p = 1 must recover the exact optimum
        res_full = run_maxcut_sampling(g, p=1.0, seed=n)
        assert res_full.sampled_value == exact
    return ExperimentRecord(
        experiment_id="E-T2.9-congest-maxcut",
        paper_claim="(1−ε)-approx unweighted max-cut in Õ(n) CONGEST "
                    "rounds (Thm 2.9, after [51])",
        parameters={"sizes": sizes, "p": 0.75},
        measured={
            "rounds": rounds_by_n,
            "approx_ratios": [round(r, 3) for r in ratios],
            "rounds_linear_in": "n + m_p + D",
        },
        passed=min(ratios) >= 0.5,
    )


@experiment("E-universal-upper-bound")
def run_universal(quick: bool = True) -> ExperimentRecord:
    """The O(m + D) learn-everything algorithm on the MDS family — the
    matching upper bound for the Ω̃(n²) lower bounds (m = Θ(n²))."""
    fam = MdsFamily(4)
    rng = random.Random(0x99)
    x, y = random_input_pairs(fam.k_bits, 2, rng)[1]
    g = fam.build(x, y)

    def solver(gg: Graph):
        ds = min_dominating_set(gg)
        return len(ds), {u: (u in set(ds)) for u in gg.vertices()}

    outputs, sim = run_universal_exact(g, solver)
    members_uid = [sim.uid_of[v] for v, o in outputs.items() if o["value"]]
    size = next(iter(outputs.values()))["global"]
    assert size == len(members_uid)
    # check the distributed answer is a genuine optimal dominating set
    members = [v for v, o in outputs.items() if o["value"]]
    assert is_dominating_set(g, members)
    assert len(members) == len(min_dominating_set(g))
    return ExperimentRecord(
        experiment_id="E-universal-upper-bound",
        paper_claim="every problem solvable in O(m + D) = O(n²) rounds "
                    "by learning the graph (Section 1)",
        parameters={"family": "MdsFamily", "k": 4, "n": g.n, "m": g.m},
        measured={
            "rounds": sim.rounds,
            "rounds_minus_3n": sim.rounds - 3 * g.n,
            "mds_size": size,
        },
    )


@experiment("E-congest-local-separation")
def run_separation(quick: bool = True) -> ExperimentRecord:
    """The LOCAL/CONGEST separation underneath Section 4: on the same
    instance LOCAL solves everything in ~D rounds while CONGEST's
    universal algorithm pays Θ(m + n)."""
    fam = MdsFamily(4)
    rng = random.Random(0x77)
    x, y = random_input_pairs(fam.k_bits, 2, rng)[1]
    g = fam.build(x, y)

    # every LOCAL vertex floods until it knows the whole graph, so all of
    # them learn the same one: solve the first, and check each later
    # vertex's graph against it before handing out the same outputs
    solved: List[Tuple[str, Dict[int, bool]]] = []

    def local_solver(gg: Graph):
        learned = gg.content_hash()
        if not solved:
            ds = set(min_dominating_set(gg))
            solved.append((learned, {u: (u in ds) for u in gg.vertices()}))
        first, outputs = solved[0]
        assert learned == first, "LOCAL vertices learned different graphs"
        return outputs

    local_out, local_sim = run_local_universal(g, local_solver)

    def congest_solver(gg: Graph):
        ds = set(min_dominating_set(gg))
        return len(ds), {u: (u in ds) for u in gg.vertices()}

    congest_out, congest_sim = run_universal_exact(g, congest_solver)
    local_members = [v for v, b in local_out.items() if b]
    assert is_dominating_set(g, local_members)
    passed = (local_sim.rounds <= g.diameter() + 4
              and congest_sim.rounds > 3 * local_sim.rounds)
    return ExperimentRecord(
        experiment_id="E-congest-local-separation",
        paper_claim="the Section 4 bounds separate CONGEST from LOCAL: "
                    "bandwidth, not locality, is the obstruction",
        parameters={"family": "MdsFamily", "k": 4, "n": g.n,
                    "diameter": g.diameter()},
        measured={
            "local_rounds": local_sim.rounds,
            "congest_rounds": congest_sim.rounds,
            "local_max_message_bits": local_sim.max_message_bits,
            "congest_bandwidth": congest_sim.bandwidth,
        },
        passed=passed,
    )
