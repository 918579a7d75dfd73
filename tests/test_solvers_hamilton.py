"""Hamiltonian path/cycle solver tests, cross-checked against Held-Karp."""

import itertools
import random

import pytest

from repro.graphs import DiGraph, Graph, complete_graph, cycle_graph, path_graph, random_graph
from repro.solvers import (
    find_hamiltonian_cycle,
    find_hamiltonian_path,
    has_hamiltonian_cycle,
    has_hamiltonian_path,
    is_hamiltonian_cycle,
    is_hamiltonian_path,
)
from repro.check.reference import (
    ref_has_hamiltonian_cycle,
    ref_has_hamiltonian_path,
)
from repro.solvers.hamilton import held_karp_has_path


def random_digraph(n, p, rng):
    g = DiGraph()
    for v in range(n):
        g.add_vertex(v)
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                g.add_edge(u, v)
    return g


class TestCheckers:
    def test_path_checker_accepts(self):
        g = path_graph(4)
        assert is_hamiltonian_path(g, [0, 1, 2, 3])

    def test_path_checker_rejects_short(self):
        assert not is_hamiltonian_path(path_graph(4), [0, 1, 2])

    def test_path_checker_rejects_nonedges(self):
        assert not is_hamiltonian_path(path_graph(4), [0, 2, 1, 3])

    def test_path_checker_rejects_repeats(self):
        assert not is_hamiltonian_path(path_graph(4), [0, 1, 2, 1])

    def test_cycle_checker(self):
        g = cycle_graph(5)
        assert is_hamiltonian_cycle(g, [0, 1, 2, 3, 4])
        assert not is_hamiltonian_cycle(g, [0, 1, 2, 4, 3])

    def test_directed_checker(self):
        g = DiGraph()
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        assert is_hamiltonian_path(g, [0, 1, 2])
        assert not is_hamiltonian_path(g, [2, 1, 0])


class TestUndirectedSearch:
    def test_cycle_graph_has_both(self):
        g = cycle_graph(6)
        assert has_hamiltonian_path(g)
        assert has_hamiltonian_cycle(g)

    def test_path_graph(self):
        g = path_graph(6)
        assert has_hamiltonian_path(g)
        assert not has_hamiltonian_cycle(g)

    def test_star_has_neither(self):
        g = Graph()
        for leaf in range(4):
            g.add_edge("c", leaf)
        assert not has_hamiltonian_path(g)
        assert not has_hamiltonian_cycle(g)

    def test_complete(self):
        assert has_hamiltonian_cycle(complete_graph(6))

    def test_found_path_is_valid(self, rng):
        for __ in range(6):
            g = random_graph(8, 0.6, rng)
            path = find_hamiltonian_path(g)
            if path is not None:
                assert is_hamiltonian_path(g, path)

    def test_found_cycle_is_valid(self, rng):
        for __ in range(6):
            g = random_graph(8, 0.6, rng)
            cycle = find_hamiltonian_cycle(g)
            if cycle is not None:
                assert is_hamiltonian_cycle(g, cycle)


class TestDirectedSearch:
    def test_directed_cycle(self):
        g = DiGraph()
        for i in range(5):
            g.add_edge(i, (i + 1) % 5)
        assert has_hamiltonian_cycle(g)
        assert has_hamiltonian_path(g)

    def test_directed_path_one_way(self):
        g = DiGraph()
        for i in range(4):
            g.add_edge(i, i + 1)
        assert has_hamiltonian_path(g)
        assert not has_hamiltonian_cycle(g)

    def test_zero_indegree_must_start(self):
        g = DiGraph()
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.add_edge(2, 0)
        g.add_edge(3, 0)  # 3 has in-degree 0
        path = find_hamiltonian_path(g)
        assert path is not None
        assert path[0] == 3

    def test_two_sources_impossible(self):
        g = DiGraph()
        g.add_edge(0, 2)
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        assert not has_hamiltonian_path(g)

    def test_matches_held_karp(self, rng):
        for __ in range(15):
            g = random_digraph(7, 0.3, rng)
            assert has_hamiltonian_path(g) == held_karp_has_path(g)

    def test_matches_held_karp_undirected(self, rng):
        for __ in range(10):
            g = random_graph(7, 0.35, rng)
            assert has_hamiltonian_path(g) == held_karp_has_path(g)

    def test_held_karp_limit(self):
        with pytest.raises(ValueError):
            held_karp_has_path(complete_graph(19))


class TestEdgeCases:
    def test_single_vertex(self):
        g = Graph()
        g.add_vertex("a")
        assert find_hamiltonian_path(g) == ["a"]
        assert find_hamiltonian_cycle(g) is None

    def test_empty_graph(self):
        assert find_hamiltonian_path(Graph()) is None

    def test_two_vertices_directed(self):
        g = DiGraph()
        g.add_edge(0, 1)
        assert find_hamiltonian_path(g) == [0, 1]
        assert not has_hamiltonian_cycle(g)


def _assert_matches_reference(g):
    path = find_hamiltonian_path(g)
    assert (path is not None) == ref_has_hamiltonian_path(g)
    if path is not None:
        assert is_hamiltonian_path(g, path)
    cycle = find_hamiltonian_cycle(g)
    assert (cycle is not None) == ref_has_hamiltonian_cycle(g)
    if cycle is not None:
        assert is_hamiltonian_cycle(g, cycle)


class TestExhaustive:
    """The one cycle search, with and without the hub, against the
    permutation-scan reference: every digraph on up to 4 labelled
    vertices (hub rotation, vertices of in- or out-degree 0, n <= 2),
    then seeded 5-7-vertex digraphs and graphs."""

    def test_all_digraphs_on_up_to_four_vertices(self):
        for n in range(5):
            arcs = list(itertools.permutations(range(n), 2))
            for bits in range(1 << len(arcs)):
                g = DiGraph()
                for v in range(n):
                    g.add_vertex(v)
                for p, (u, v) in enumerate(arcs):
                    if bits >> p & 1:
                        g.add_edge(u, v)
                _assert_matches_reference(g)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_seeded_digraphs_and_graphs(self, n):
        rng = random.Random(1000 + n)
        for __ in range(60):
            p = rng.choice([0.2, 0.35, 0.5, 0.7])
            _assert_matches_reference(random_digraph(n, p, rng))
            _assert_matches_reference(random_graph(n, p, rng))
