"""Experiments for Section 4 (Theorems 4.1-4.8)."""

from __future__ import annotations

import random
from typing import Dict

from repro.cc.functions import disjointness, random_input_pairs
from repro.core.approx_maxis import (
    LinearApproxMaxISFamily,
    UnweightedApproxMaxISFamily,
    WeightedApproxMaxISFamily,
)
from repro.core.family import (
    sweep,
    theorem_1_1_bound,
    validate_family,
    verify_iff,
)
from repro.core.kmds import KMdsFamily
from repro.core.restricted_mds import RestrictedMdsConstruction
from repro.core.steiner_approx import (
    DirectedSteinerFamily,
    NodeWeightedSteinerFamily,
)
from repro.covering.designs import build_covering_collection
from repro.experiments.runner import ExperimentRecord, experiment
from repro.solvers import is_dominating_set, max_independent_set_weight


def _default_collection(quick: bool = True):
    return build_covering_collection(universe_size=16, T=6, r=2, seed=0)


@experiment("E-F5-T4.3-T4.1-approx-maxis")
def run_approx_maxis(quick: bool = True) -> ExperimentRecord:
    rng = random.Random(0x41)
    fam = WeightedApproxMaxISFamily(2)
    validate_family(fam)
    pairs = random_input_pairs(4, 4 if quick else 10, rng)
    report = verify_iff(fam, pairs, negate=True)
    # structured solver cross-check against the generic branch-and-bound
    cross = 0
    for x, y in pairs[: 2 if quick else 6]:
        g = fam.build(x, y)
        assert max_independent_set_weight(g) == \
            fam.structured_max_weight(g)
        cross += 1
    ufam = UnweightedApproxMaxISFamily(2)
    validate_family(ufam)
    ureport = verify_iff(ufam, pairs[:4], negate=True)
    fam4 = WeightedApproxMaxISFamily(4)
    r4 = verify_iff(fam4, random_input_pairs(16, 2 if quick else 6, rng),
                    negate=True)
    return ExperimentRecord(
        experiment_id="E-F5-T4.3-T4.1-approx-maxis",
        paper_claim="(7/8+ε)-approx MaxIS needs Ω̃(n²) "
                    "(Thms 4.1, 4.3; Lemma 4.1)",
        parameters={"k": 2, "ell": fam.ell, "t": fam.t, "q": fam.q},
        measured={
            "iff_checked": report.checked + ureport.checked + r4.checked,
            "generic_cross_checks": cross,
            "gap_yes": fam.alpha_yes,
            "gap_no": fam.alpha_no,
            "ratio@k=2": round(fam.gap_ratio(), 4),
            "ratio@k=4": round(fam4.gap_ratio(), 4),
            "ratio_limit": 7 / 8,
        },
    )


@experiment("E-T4.2-linear-maxis")
def run_linear_maxis(quick: bool = True) -> ExperimentRecord:
    rng = random.Random(0x42)
    fam = LinearApproxMaxISFamily(4)
    validate_family(fam)
    pairs = random_input_pairs(4, 4 if quick else 10, rng)
    report = verify_iff(fam, pairs, negate=True)
    cross = 0
    for x, y in pairs[: 2 if quick else 5]:
        g = fam.build(x, y)
        assert max_independent_set_weight(g) == \
            fam.structured_max_weight(g)
        cross += 1
    return ExperimentRecord(
        experiment_id="E-T4.2-linear-maxis",
        paper_claim="(5/6+ε)-approx MaxIS needs Ω(n/log⁶n) (Thm 4.2)",
        parameters={"k": 4, "ell": fam.ell, "t": fam.t},
        measured={
            "iff_checked": report.checked,
            "generic_cross_checks": cross,
            "gap_yes": fam.alpha_yes,
            "gap_no": fam.alpha_no,
            "ratio": round(fam.gap_ratio(), 4),
            "ratio_limit": 5 / 6,
        },
    )


@experiment("E-F6-T4.4-T4.5-kmds")
def run_kmds(quick: bool = True) -> ExperimentRecord:
    rng = random.Random(0x44)
    cc = _default_collection(quick)
    measured: Dict[str, object] = {"T": cc.T, "ell": cc.universe_size,
                                   "r": cc.r}
    for k in (2, 3):
        fam = KMdsFamily(cc, k=k)
        validate_family(fam)
        pairs = random_input_pairs(cc.T, 4 if quick else 8, rng)
        report = verify_iff(fam, pairs, negate=True)
        # the gap: weight 2 vs > r
        for x, y in pairs[:2]:
            opt = fam.optimum(fam.build(x, y))
            if disjointness(x, y):
                assert opt > fam.no_weight_exceeds
            else:
                assert opt == fam.yes_weight
        measured[f"iff_checked@k={k}"] = report.checked
        measured[f"gap_ratio@k={k}"] = fam.gap_ratio()
    return ExperimentRecord(
        experiment_id="E-F6-T4.4-T4.5-kmds",
        paper_claim="O(log n)-approx weighted k-MDS needs Ω̃(n^{1−ε}) "
                    "(Thms 4.4, 4.5; Lemmas 4.2-4.4)",
        parameters={"ks": [2, 3]},
        measured=measured,
    )


@experiment("E-F7-T4.6-T4.7-steiner-approx")
def run_steiner_approx(quick: bool = True) -> ExperimentRecord:
    rng = random.Random(0x46)
    cc = _default_collection(quick)
    pairs = random_input_pairs(cc.T, 4 if quick else 8, rng)
    nw = NodeWeightedSteinerFamily(cc)
    validate_family(nw)
    rep_nw = verify_iff(nw, pairs, negate=True)
    ds = DirectedSteinerFamily(cc)
    validate_family(ds)
    rep_ds = verify_iff(ds, pairs, negate=True)
    return ExperimentRecord(
        experiment_id="E-F7-T4.6-T4.7-steiner-approx",
        paper_claim="O(log n)-approx node-weighted / directed Steiner "
                    "tree needs Ω̃(n^{1−ε}) (Thms 4.6, 4.7)",
        parameters={"T": cc.T, "ell": cc.universe_size, "r": cc.r},
        measured={
            "node_weighted_iff": rep_nw.checked,
            "directed_iff": rep_ds.checked,
            "gap": f"2 vs >{cc.r}",
        },
    )


@experiment("E-T4.8-restricted-mds")
def run_restricted_mds(quick: bool = True) -> ExperimentRecord:
    rng = random.Random(0x48)
    cc = _default_collection(quick)
    rm = RestrictedMdsConstruction(cc)
    pairs = random_input_pairs(cc.T, 4 if quick else 8, rng)
    report = sweep(rm, pairs)
    for (x, y), decided in zip(pairs, report.decisions):
        assert decided == (not disjointness(x, y))
    x, y = pairs[0]
    run = rm.simulate_greedy_two_party(x, y)
    ds = [v for v, b in run.outputs.items() if b]
    graph = rm.build(x, y)
    assert is_dominating_set(graph, ds)
    per_round = run.total_two_party_bits / max(1, run.rounds)
    return ExperimentRecord(
        experiment_id="E-T4.8-restricted-mds",
        paper_claim="local-aggregate O(log n)-approx weighted MDS needs "
                    "Ω̃(n^{1−ε}) (Thm 4.8, Lemma 4.7)",
        parameters={"T": cc.T, "ell": cc.universe_size},
        measured={
            "iff_checked": len(pairs),
            "greedy_rounds": run.rounds,
            "shared_bits": run.shared_bits,
            "bits_per_round": round(per_round, 1),
            "ell_logn_budget": cc.universe_size * 16,
        },
    )
