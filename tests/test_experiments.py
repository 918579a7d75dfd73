"""Experiment registry tests: every registered experiment runs and passes."""

import pytest

from repro.experiments import EXPERIMENTS, format_markdown, run_experiment

FAST_EXPERIMENTS = [
    "E-F1-T2.1-mds",
    "E-base-mvc",
    "E-T2.5-two-ecss",
    "E-T2.7-steiner",
    "E-F5-T4.3-T4.1-approx-maxis",
    "E-T4.2-linear-maxis",
    "E-F6-T4.4-T4.5-kmds",
    "E-F7-T4.6-T4.7-steiner-approx",
    "E-T4.8-restricted-mds",
    "E-T1.1-simulation",
    "E-C5.4-C5.9-protocol-limits",
    "E-C5.10-C5.11-nondeterminism",
    "E-T5.1-pls-compiler",
    "E-T3.3-T3.4-bounded-degree-reductions",
    "E-congest-local-separation",
    "E-L2.2-split-simulation",
]


def test_registry_is_populated():
    assert len(EXPERIMENTS) >= 18


@pytest.mark.parametrize("experiment_id", FAST_EXPERIMENTS)
def test_experiment_passes(experiment_id):
    record = run_experiment(experiment_id, quick=True)
    assert record.passed, record
    assert record.measured
    assert record.paper_claim


def test_markdown_formatting():
    record = run_experiment("E-T1.1-simulation", quick=True)
    md = format_markdown([record])
    assert "E-T1.1-simulation" in md
    assert md.count("|") > 8


def test_unknown_experiment_raises():
    with pytest.raises(KeyError):
        run_experiment("E-nonexistent")


def test_local_separation_solves_the_learned_graph_once():
    """All 40 LOCAL vertices learn the same graph, so the experiment
    solves MDS once for LOCAL and once for CONGEST."""
    record = run_experiment("E-congest-local-separation", profile=True)
    assert record.passed, record
    assert record.measured["solver_profile"].startswith(
        "dominating.solve_domination x2 ")
