"""The differential harness must catch bugs — proven by planting one.

Covers the four layers of ``repro.check`` (references, invariants,
fuzzing/shrinking, CONGEST agreement) plus the end-to-end property the
subsystem exists for: a mutated solver is detected and the failure is
shrunk to a minimal reproducer.
"""

import json
import random

import pytest

import repro.solvers as solvers
from repro.check import CHECKS, generate_cases, make_case, run_check, shrink_graph
from repro.check.batch_check import check_batch_kernels
from repro.check.congest_check import check_congest_mds
from repro.check.fuzz import FAMILIES
from repro.check.invariants import disjoint_union, inv_alpha_tau, relabeled
from repro.check.reference import (
    ref_has_dominating_set_of_size,
    ref_independence_number,
    ref_max_cut_value,
    ref_max_flow_value,
    ref_max_matching_size,
    ref_min_dominating_set_size,
    ref_min_dominating_set_weight,
    ref_min_vertex_cover_size,
    ref_steiner_tree_cost,
)
from repro.cli import main
from repro.core.mds import MdsFamily
from repro.graphs import Graph, cycle_graph, path_graph


class TestFuzz:
    def test_case_regeneration_is_exact(self):
        for family in FAMILIES:
            a = make_case(3, family, 1)
            b = make_case(3, family, 1)
            assert a.name == b.name
            assert a.terminals == b.terminals
            assert a.graph.content_hash() == b.graph.content_hash()

    def test_different_indices_differ(self):
        a = make_case(0, "er", 0)
        b = make_case(0, "er", 1)
        assert (a.graph.content_hash() != b.graph.content_hash()
                or a.terminals != b.terminals)

    def test_round_robin_covers_families(self):
        cases = generate_cases(0, len(FAMILIES) * 2)
        assert {c.family for c in cases} == set(FAMILIES)

    def test_paper_case_has_ground_truth(self):
        c = make_case(0, "paper", 0)
        assert c.meta["disjoint"] in (True, False)
        assert c.meta["target_size"] == 6  # 4·log k + 2 at k = 2
        assert c.graph.n == 20

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            generate_cases(0, 4, family="nope")


class TestReference:
    """The references must be right on graphs with known answers."""

    def test_cycle5(self):
        g = cycle_graph(5)
        assert ref_independence_number(g) == 2
        assert ref_min_vertex_cover_size(g) == 3
        assert ref_max_cut_value(g) == 4.0
        assert ref_max_matching_size(g) == 2
        assert ref_min_dominating_set_size(g) == 2

    def test_path4(self):
        g = path_graph(4)
        assert ref_independence_number(g) == 2
        assert ref_max_matching_size(g) == 2
        assert ref_max_flow_value(g, 0, 3) == 1.0
        assert ref_steiner_tree_cost(g, [0, 3]) == 3.0

    def test_bounded_domination_decision(self):
        g = cycle_graph(6)
        assert ref_has_dominating_set_of_size(g, 2)
        assert not ref_has_dominating_set_of_size(g, 1)

    def test_bounded_domination_on_paper_cases(self):
        # Lemma 2.1 at k = 2: γ(G_{x,y}) = 6 = 4·log k + 2 iff x, y
        # intersect, and 7 when they are disjoint
        paper = [c for c in generate_cases(0, 25) if c.family == "paper"]
        assert [c.meta["disjoint"] for c in paper] == [
            True, False, True, False, True]
        for case in paper:
            got = tuple(ref_has_dominating_set_of_size(case.graph, size)
                        for size in (5, 6, 7))
            want = ((False, False, True) if case.meta["disjoint"]
                    else (False, True, True))
            assert got == want, case.name

    def test_distance_k_domination(self):
        assert [ref_min_dominating_set_size(path_graph(7), k)
                for k in (1, 2, 3)] == [3, 2, 1]
        assert [ref_min_dominating_set_size(cycle_graph(9), k)
                for k in (1, 2, 3, 4)] == [3, 2, 2, 1]

    def test_min_weight_domination_is_not_min_size(self):
        # a star whose centre weighs 10: {centre} is the minimum-size
        # dominating set, the four leaves the minimum-weight one
        g = Graph()
        for leaf in range(1, 5):
            g.add_edge(0, leaf)
        g.set_vertex_weight(0, 10.0)
        assert ref_min_dominating_set_size(g) == 1
        assert ref_min_dominating_set_weight(g) == 4.0
        assert ref_min_dominating_set_weight(g, 2) == 1.0


class TestInvariantHelpers:
    def test_relabel_preserves_structure(self):
        g = cycle_graph(6)
        perm, mapping = relabeled(g, random.Random(0))
        assert perm.n == g.n and perm.m == g.m
        assert set(mapping) == set(g.vertices())

    def test_disjoint_union_counts(self):
        u = disjoint_union(cycle_graph(3), path_graph(2))
        assert u.n == 5 and u.m == 4

    def test_alpha_tau_holds_on_cycle(self):
        assert inv_alpha_tau(cycle_graph(7), random.Random(0)) is None


class TestShrink:
    def test_shrinks_to_single_edge(self):
        g = cycle_graph(8)

        def failing(candidate):
            return candidate.has_edge(0, 1)

        small = shrink_graph(g, failing)
        assert small.has_edge(0, 1)
        assert small.n == 2 and small.m == 1

    def test_protected_vertices_survive(self):
        g = path_graph(6)
        small = shrink_graph(g, lambda c: True, protected=(0, 5))
        assert 0 in small and 5 in small
        assert small.m == 0

    def test_weights_reset(self):
        g = path_graph(3)
        g.set_edge_weight(0, 1, 9.0)
        g.set_vertex_weight(2, 5.0)
        small = shrink_graph(g, lambda c: True)
        for u, v in small.edges():
            assert small.edge_weight(u, v) == 1.0
        for v in small.vertices():
            assert small.vertex_weight(v) == 1.0


class TestCongestCheck:
    def test_agrees_on_cycle(self):
        assert check_congest_mds(cycle_graph(6)) is None

    def test_detects_wrong_exact_solver(self, monkeypatch):
        real = solvers.min_dominating_set
        calls = {"n": 0}

        def mutant(g, **kw):
            calls["n"] += 1
            out = real(g, **kw)
            # first call is the centralized expectation; inflate it
            return out + [next(iter(g.vertices()))] if calls["n"] == 1 else out

        monkeypatch.setattr(solvers, "min_dominating_set", mutant)
        assert check_congest_mds(cycle_graph(6)) is not None


class TestRunCheck:
    def test_clean_on_seed_zero(self):
        report = run_check(seed=0, cases=10)
        assert report.ok
        assert report.cases_run == 10
        assert report.checks_run > 50
        assert "all checks passed" in report.summary()

    def test_jobs_match_serial(self):
        serial = run_check(seed=2, cases=8, do_shrink=False)
        fanned = run_check(seed=2, cases=8, do_shrink=False, jobs=2)
        assert serial.ok and fanned.ok
        assert serial.checks_run == fanned.checks_run
        assert serial.check_counts == fanned.check_counts

    def test_check_counts_sum_to_checks_run(self):
        report = run_check(seed=1, cases=4, do_shrink=False)
        assert report.check_counts
        assert sum(report.check_counts.values()) == report.checks_run
        summary = report.to_json()
        assert summary["check_counts"] == report.check_counts

    def test_trace_dir_captures_congest_runs(self, tmp_path):
        out = tmp_path / "traces"
        report = run_check(seed=0, cases=3, family="er", do_shrink=False,
                           trace_dir=str(out))
        assert report.ok
        traces = sorted(out.glob("check-seed0-*.rtb"))
        assert traces, "check --trace-dir produced no binary traces"
        from repro.obs import iter_trace
        kinds = {e.kind for path in traces for e in iter_trace(path)}
        assert {"run_start", "run_end"} <= kinds

    def test_trace_dir_parallel_uses_chunk_prefixes(self, tmp_path):
        out = tmp_path / "traces"
        report = run_check(seed=0, cases=4, family="er", do_shrink=False,
                           jobs=2, trace_dir=str(out))
        assert report.ok
        names = sorted(p.name for p in out.glob("*.rtb"))
        assert names
        assert all(n.startswith("check-seed0-w") for n in names)

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            run_check(seed=0, cases=1, jobs=0)

    def test_planted_mutation_is_caught_and_shrunk(self, monkeypatch):
        """The acceptance property: an off-by-one planted in a production
        solver is detected and minimised to a tiny reproducer."""
        real = solvers.independence_number

        def mutant(graph, **kw):
            return real(graph, **kw) + 1

        monkeypatch.setattr(solvers, "independence_number", mutant)
        report = run_check(seed=0, cases=4, family="er")
        assert not report.ok
        hit_checks = {f.check for f in report.failures}
        assert "ref:independence-number" in hit_checks
        assert "inv:alpha-tau" in hit_checks  # α + τ != n under the mutant
        shrunk = [f.shrunk for f in report.failures if f.shrunk is not None]
        assert shrunk, "failures carried no reproducers"
        smallest = min(s["graph"]["n"] for s in shrunk)
        assert smallest <= 2, "shrinking left a large reproducer"
        assert all(f.repro.startswith("python -m repro check")
                   for f in report.failures)

    def test_planted_maxcut_mutation_is_caught(self, monkeypatch):
        real = solvers.max_cut_value

        def mutant(graph, **kw):
            v = real(graph, **kw)
            return v - 1 if v >= 1 else v

        monkeypatch.setattr(solvers, "max_cut_value", mutant)
        report = run_check(seed=0, cases=4, family="er", do_shrink=False)
        assert not report.ok
        assert any(f.check == "ref:maxcut" for f in report.failures)

    def test_planted_node_weighted_steiner_mutation_is_caught(
            self, monkeypatch):
        real = solvers.min_node_weighted_steiner_cost

        def mutant(graph, terminals, **kw):
            return real(graph, terminals[1:], **kw)  # drops a terminal

        monkeypatch.setattr(solvers, "min_node_weighted_steiner_cost",
                            mutant)
        report = run_check(seed=0, cases=4, family="weighted",
                           do_shrink=False)
        assert not report.ok
        assert any(f.check == "ref:node-weighted-steiner"
                   for f in report.failures)

    def test_exception_in_solver_becomes_failure(self, monkeypatch):
        def boom(graph, **kw):
            raise RuntimeError("planted crash")

        monkeypatch.setattr(solvers, "max_matching_size", boom)
        report = run_check(seed=0, cases=3, family="er", do_shrink=False)
        assert not report.ok
        assert any("planted crash" in f.detail for f in report.failures)

    def test_report_dir_artifacts(self, tmp_path, monkeypatch):
        real = solvers.independence_number
        monkeypatch.setattr(solvers, "independence_number",
                            lambda g, **kw: real(g, **kw) + 1)
        out = tmp_path / "reports"
        report = run_check(seed=0, cases=2, family="er", do_shrink=False,
                           report_dir=str(out))
        assert not report.ok
        summary = json.loads((out / "check-report.json").read_text())
        assert summary["ok"] is False
        assert len(summary["failures"]) == len(report.failures)
        per_failure = sorted(out.glob("failure-*.json"))
        assert len(per_failure) == len(report.failures)
        first = json.loads(per_failure[0].read_text())
        assert first["check"] == report.failures[0].check


class TestBatchCheck:
    """Planted faults in a batch kernel or in the scratch build must be
    reported by ``check_batch_kernels``; MdsFamily is the first family
    it checks on either parity."""

    def test_flipped_batch_answer_is_reported(self, monkeypatch):
        real = MdsFamily.decide_batch

        def flip_one(self, skeleton, pairs, timings=None):
            out = real(self, skeleton, pairs, timings=timings)
            key = next(iter(out))
            return {**out, key: not out[key]}

        monkeypatch.setattr(MdsFamily, "decide_batch", flip_one)
        problem = check_batch_kernels(0, 0)
        assert problem is not None
        assert problem.startswith("MdsFamily:") and "batch=" in problem

    def test_scratch_build_with_extra_vertex_is_reported(self, monkeypatch):
        real = MdsFamily.build_scratch

        def with_isolated_vertex(self, x, y):
            g = real(self, x, y)
            g.add_vertex(("planted", "isolated"))
            return g

        monkeypatch.setattr(MdsFamily, "build_scratch", with_isolated_vertex)
        problem = check_batch_kernels(0, 0)
        assert problem is not None
        assert problem.startswith("MdsFamily:")
        assert "differs from build_scratch" in problem


class TestCheckRegistry:
    def test_names_are_unique(self):
        names = [c.name for c in CHECKS]
        assert len(names) == len(set(names))

    def test_every_kind_present(self):
        kinds = {c.kind for c in CHECKS}
        assert kinds == {"reference", "invariant", "paper", "congest",
                         "family"}

    def test_paper_checks_not_shrinkable(self):
        for c in CHECKS:
            if c.kind in ("paper", "congest"):
                assert not c.shrinkable


class TestCheckCLI:
    def test_clean_run_prints_summary(self, capsys):
        main(["check", "--seed", "0", "--cases", "5"])
        out = capsys.readouterr().out
        assert "repro check: seed=0 cases=5" in out
        assert "all checks passed" in out

    def test_failing_run_exits_nonzero(self, capsys, monkeypatch):
        real = solvers.independence_number
        monkeypatch.setattr(solvers, "independence_number",
                            lambda g, **kw: real(g, **kw) + 1)
        with pytest.raises(SystemExit):
            main(["check", "--seed", "0", "--cases", "2", "--family", "er",
                  "--no-shrink"])
        assert "FAIL" in capsys.readouterr().out
