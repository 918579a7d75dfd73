"""Section 3 chain tests (Theorems 3.1-3.4, Claims 3.1-3.6)."""

import pytest

from repro.cc.functions import disjointness, random_input_pairs
from repro.core.bounded_degree import (
    BoundedDegreeMaxIS,
    expand_formula,
    formula_to_graph,
    graph_to_formula,
    mvc_to_mds_graph,
    mvc_to_two_spanner_graph,
)
from repro.graphs import Graph, cycle_graph, path_graph, random_graph
from repro.limits.protocols import solve_disjointness_via_bounded_degree_maxis
from repro.solvers import (
    is_independent_set,
    max_independent_set,
    max_sat_value,
    min_dominating_set,
    min_two_spanner_cost,
    min_vertex_cover_size,
)


class TestClaim31:
    def test_formula_shape(self):
        g = path_graph(3)
        phi = graph_to_formula(g)
        assert phi.n_clauses == 3 + 2  # vertex clauses + edge clauses
        assert phi.max_clause_width() == 2

    def test_f_phi_equals_alpha_plus_m(self, rng):
        for __ in range(5):
            g = random_graph(5, 0.5, rng)
            phi = graph_to_formula(g)
            assert max_sat_value(phi) == \
                len(max_independent_set(g)) + g.m

    def test_triangle(self):
        g = cycle_graph(3)
        assert max_sat_value(graph_to_formula(g)) == 1 + 3


class TestExpansion:
    def test_every_variable_constant_occurrences(self, rng):
        g = random_graph(5, 0.6, rng)
        ex = expand_formula(graph_to_formula(g), seed=0)
        for var in ex.cnf.variables():
            assert ex.cnf.occurrences(var) <= 8  # paper's bound

    def test_literal_occurrence_bound(self, rng):
        g = random_graph(5, 0.5, rng)
        ex = expand_formula(graph_to_formula(g), seed=1)
        for var in ex.cnf.variables():
            assert ex.cnf.literal_occurrences((var, True)) <= 4
            assert ex.cnf.literal_occurrences((var, False)) <= 4

    def test_corollary_31(self, rng):
        """f(φ′) = f(φ) + m_exp on small instances."""
        for seed in range(3):
            g = random_graph(4, 0.6, rng)
            phi = graph_to_formula(g)
            ex = expand_formula(phi, seed=seed)
            gp = formula_to_graph(ex.cnf)
            assert len(max_independent_set(gp)) == \
                max_sat_value(phi) + ex.n_expander_clauses

    def test_expander_clause_count(self):
        g = path_graph(2)
        ex = expand_formula(graph_to_formula(g), seed=0)
        total_gadget_edges = sum(gd.graph.m for gd in ex.gadgets.values())
        assert ex.n_expander_clauses == 2 * total_gadget_edges


class TestClaim34:
    def test_degree_bound(self, rng):
        g = random_graph(5, 0.6, rng)
        gp = formula_to_graph(expand_formula(graph_to_formula(g)).cnf)
        assert gp.max_degree() <= 5

    def test_alpha_equals_f(self, rng):
        from repro.formulas import CNF, neg, pos

        cnf = CNF([[pos("a"), pos("b")], [neg("a")], [neg("b"), pos("c")]])
        gp = formula_to_graph(cnf)
        assert len(max_independent_set(gp)) == max_sat_value(cnf)

    def test_wide_clause_rejected(self):
        from repro.formulas import CNF, pos

        cnf = CNF([[pos("a"), pos("b"), pos("c")]])
        with pytest.raises(ValueError):
            formula_to_graph(cnf)


class TestFullConstruction:
    @pytest.fixture(scope="class")
    def bd(self):
        return BoundedDegreeMaxIS(2, seed=1)

    def test_degree_five(self, bd, rng):
        x, y = random_input_pairs(4, 2, rng)[0]
        inst = bd.build(x, y)
        assert inst.graph.max_degree() <= 5

    def test_logarithmic_diameter(self, bd, rng):
        import math

        x, y = random_input_pairs(4, 2, rng)[0]
        inst = bd.build(x, y)
        # O(log n) with the construction's constant
        assert inst.graph.diameter() <= 8 * math.log2(inst.graph.n)

    def test_gadgets_fully_verified(self, bd, rng):
        x, y = random_input_pairs(4, 2, rng)[0]
        inst = bd.build(x, y)
        kinds = {g.cut_property_verified
                 for g in inst.expanded.gadgets.values()}
        assert kinds <= {"structural(cycle,d<=5)", "exact(flow)"}

    def test_witness_is(self, bd, rng):
        x, y = next(p for p in random_input_pairs(4, 4, rng)
                    if not disjointness(*p))
        inst = bd.build(x, y)
        w = bd.witness_independent_set(inst, x, y)
        assert len(w) == bd.alpha_target(inst)
        assert is_independent_set(inst.graph, w)

    def test_full_chain_alpha_exact(self, bd, rng):
        """End-to-end: α(G′) = α(G) + m_G + m_exp, computed exactly with
        the branch-and-reduce solver, and the ±1 gap tracks DISJ."""
        from repro.solvers import independence_number

        for x, y in random_input_pairs(4, 4, rng):
            inst = bd.build(x, y)
            alpha = independence_number(inst.graph)
            alpha_base = independence_number(inst.base_graph)
            # the chain identity α(G′) = α(G) + m_G + m_exp, always
            assert alpha == alpha_base + inst.alpha_offset()
            # and the gap read-out: α(G′) hits the target iff ¬DISJ
            assert (alpha == bd.alpha_target(inst)) == \
                (not disjointness(x, y))

    def test_graph_pinned(self, bd):
        """G′ for four fixed pairs, content hash for content hash: the
        expander gadgets (seeded cubic graphs) and every construction
        step above them are pinned to the graphs networkx's sampler
        gave."""
        import random

        pairs = random_input_pairs(4, 4, random.Random(0xDEADBEEF))
        assert [bd.build(x, y).graph.content_hash() for x, y in pairs] == [
            "1fc4d0abb63578e3ff714099d152266dab8c64d53107fe7d2767bac80e9a4d1a",
            "ba4bdd5a154d793da611611e27bbe288a8446691989a7c261eee74a01b55f0dd",
            "6c3aabd2f64eddedee3db1319fbdd11c68cfa085de3693eff79444708ada2014",
            "9b590093283cfaeae0f95092ac1367263f98fe25f5367f136ba020b65c67a26b",
        ]

    def test_claim_36_protocol(self, bd, rng):
        """Alice and Bob decide DISJ through a CONGEST MaxIS run."""
        x, y = random_input_pairs(4, 1, rng)[0]
        answer, bits, rounds = \
            solve_disjointness_via_bounded_degree_maxis(bd, x, y)
        assert answer == disjointness(x, y)
        assert bits > 0 and rounds > 0

    def test_claim_36_traffic_pinned(self, bd):
        """The Claim 3.6 run, pinned message for message: any change to
        the collect-and-solve traffic (rounds, messages, bits, cut bits)
        or to its wake schedule (``node_rounds``) moves one of these."""
        from repro.congest.algorithms.collect import CollectAndSolve
        from repro.congest.model import CongestSimulator

        x, y = (1, 1, 0, 1), (0, 0, 1, 0)
        assert solve_disjointness_via_bounded_degree_maxis(bd, x, y) == \
            (True, 64388, 2084)

        inst = bd.build(x, y)
        sim = CongestSimulator(inst.graph, bandwidth_factor=40)
        sim.cut = {sim.uid_of[v] for v in inst.alice_vertices}

        def solver(n, edge_records, vertex_records):
            return len(edge_records), {u: False for u in range(n)}

        outputs = sim.run(lambda: CollectAndSolve(solver))
        assert {o["global"] for o in outputs.values()} == {inst.graph.m}
        assert (sim.rounds, sim.total_messages, sim.total_bits,
                sim.max_message_bits, sim.node_rounds,
                sim.cut_bits, sim.cut_messages) == \
            (2084, 273415, 5702596, 45, 264925, 64381, 2605)

    def test_claim_36_leader_graph_hashes_like_instance(self, bd, rng):
        """The leader rebuilds G′ over its own labels: the graph its α
        solve reads is G′ itself, content hash for content hash."""
        from repro.congest.algorithms.collect import run_collect_and_solve
        from repro.limits.protocols import collected_graph

        x, y = random_input_pairs(4, 1, rng)[0]
        inst = bd.build(x, y)
        rebuilt = []

        def solver(n, edge_records, vertex_records):
            rebuilt.append(collected_graph(inst.graph, edge_records))
            return None, {}

        run_collect_and_solve(inst.graph, solver)
        assert rebuilt[0].content_hash() == inst.graph.content_hash()


class TestReductions33And34:
    def test_mds_reduction_structure(self):
        g = path_graph(3)
        gd = mvc_to_mds_graph(g)
        assert gd.n == 3 + 2
        ev = ("edge", frozenset((0, 1)))
        assert gd.has_edge(ev, 0) and gd.has_edge(ev, 1)

    def test_mds_equals_mvc(self, rng):
        done = 0
        while done < 5:
            g = random_graph(6, 0.5, rng)
            if any(g.degree(v) == 0 for v in g.vertices()):
                continue
            assert len(min_dominating_set(mvc_to_mds_graph(g))) == \
                min_vertex_cover_size(g)
            done += 1

    def test_mds_reduction_rejects_isolated(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_vertex(2)
        with pytest.raises(ValueError):
            mvc_to_mds_graph(g)

    def test_mds_reduction_bounded_degree(self, rng):
        g = random_graph(6, 0.4, rng)
        while any(g.degree(v) == 0 for v in g.vertices()):
            g = random_graph(6, 0.4, rng)
        gd = mvc_to_mds_graph(g)
        assert gd.max_degree() <= 2 * g.max_degree()

    def test_spanner_cost_equals_mvc(self, rng):
        done = 0
        while done < 3:
            g = random_graph(4, 0.7, rng)
            if g.m == 0 or any(g.degree(v) == 0 for v in g.vertices()):
                continue
            h = mvc_to_two_spanner_graph(g)
            assert min_two_spanner_cost(h, limit_edges=12) == \
                min_vertex_cover_size(g)
            done += 1

    def test_spanner_reduction_rejects_isolated(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_vertex(2)
        with pytest.raises(ValueError):
            mvc_to_two_spanner_graph(g)
