"""Exact MaxIS / MVC solver tests, including brute-force cross-checks."""

import random

import pytest

from repro.graphs import Graph, complete_graph, cycle_graph, path_graph, random_graph
import repro.solvers.mis as mis
from repro.solvers import (
    independence_number,
    is_independent_set,
    is_vertex_cover,
    max_independent_set,
    max_independent_set_weight,
    min_vertex_cover,
    min_vertex_cover_size,
)
from tests.conftest import brute_force_mis_size, brute_force_mvc_size


class TestIsIndependentSet:
    def test_empty_set(self):
        assert is_independent_set(cycle_graph(4), [])

    def test_single_vertex(self):
        assert is_independent_set(cycle_graph(4), [0])

    def test_adjacent_pair_rejected(self):
        assert not is_independent_set(cycle_graph(4), [0, 1])

    def test_duplicates_rejected(self):
        assert not is_independent_set(cycle_graph(4), [0, 0])

    def test_opposite_pair(self):
        assert is_independent_set(cycle_graph(4), [0, 2])


class TestMaxIndependentSet:
    def test_cycle_values(self):
        for n, expected in ((3, 1), (4, 2), (5, 2), (6, 3), (7, 3)):
            assert len(max_independent_set(cycle_graph(n))) == expected

    def test_complete_graph(self):
        assert len(max_independent_set(complete_graph(6))) == 1

    def test_path(self):
        assert len(max_independent_set(path_graph(7))) == 4

    def test_empty_graph(self):
        assert max_independent_set(Graph()) == []

    def test_edgeless(self):
        g = Graph()
        g.add_vertices(range(5))
        assert len(max_independent_set(g)) == 5

    def test_returned_set_is_independent(self, rng):
        for __ in range(10):
            g = random_graph(9, 0.4, rng)
            mis = max_independent_set(g)
            assert is_independent_set(g, mis)

    def test_matches_brute_force(self, rng):
        for __ in range(12):
            g = random_graph(8, rng.uniform(0.2, 0.7), rng)
            assert len(max_independent_set(g)) == brute_force_mis_size(g)

    def test_weighted_matches_brute_force(self, rng):
        for __ in range(10):
            g = random_graph(7, 0.45, rng)
            for v in g.vertices():
                g.set_vertex_weight(v, rng.randint(1, 8))
            assert max_independent_set_weight(g) == \
                brute_force_mis_size(g, weighted=True)

    def test_weighted_prefers_heavy_vertex(self):
        g = path_graph(3)  # 0-1-2
        g.set_vertex_weight(0, 1)
        g.set_vertex_weight(1, 10)
        g.set_vertex_weight(2, 1)
        assert max_independent_set_weight(g) == 10

    def test_result_type_follows_weight_type(self):
        # vertex weights 1 and 1.0 on P4 weigh the same set, but the
        # result keeps the weights' numeric type: 2 vs 2.0
        for weight in (1, 1.0):
            g = path_graph(4)
            for v in range(4):
                g.set_vertex_weight(v, weight)
            result = max_independent_set_weight(g)
            assert result == 2 and type(result) is type(weight)

    def test_unweighted_ignores_weights(self):
        g = path_graph(3)
        g.set_vertex_weight(1, 100)
        assert independence_number(g) == 2

    def test_negative_weight_rejected(self):
        g = path_graph(2)
        g.set_vertex_weight(0, -1)
        with pytest.raises(ValueError):
            max_independent_set(g, weighted=True)

    def test_disconnected_components(self):
        g = Graph()
        g.add_clique(["a", "b", "c"])
        g.add_clique(["x", "y"])
        g.add_vertex("lone")
        assert len(max_independent_set(g)) == 3

    def test_large_clique_union(self):
        g = Graph()
        for block in range(6):
            g.add_clique([(block, i) for i in range(5)])
        assert len(max_independent_set(g)) == 6


def _petersen() -> Graph:
    g = Graph()
    for i in range(5):
        g.add_edge(i, (i + 1) % 5)              # outer 5-cycle
        g.add_edge(5 + i, 5 + (i + 2) % 5)      # inner pentagram
        g.add_edge(i, 5 + i)                    # spokes
    return g


def _bounded_degree_graph(n: int, max_deg: int, rng: random.Random) -> Graph:
    g = Graph()
    g.add_vertices(range(n))
    for __ in range(3 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and g.degree(u) < max_deg and g.degree(v) < max_deg:
            g.add_edge(u, v)
    return g


def _disjoint_union(a: Graph, b: Graph) -> Graph:
    g = Graph()
    for tag, part in (("a", a), ("b", b)):
        g.add_vertices((tag, v) for v in part.vertices())
        for u, v in part.edges():
            g.add_edge((tag, u), (tag, v))
    return g


class TestIndependenceNumber:
    def test_cycles(self):
        for n in range(3, 10):
            assert independence_number(cycle_graph(n)) == n // 2

    def test_paths(self):
        for n in range(1, 10):
            assert independence_number(path_graph(n)) == (n + 1) // 2

    def test_complete_graph(self):
        assert independence_number(complete_graph(6)) == 1

    def test_petersen(self):
        assert independence_number(_petersen()) == 4

    def test_edgeless(self):
        g = Graph()
        g.add_vertices(range(5))
        assert independence_number(g) == 5

    def test_empty_graph(self):
        assert independence_number(Graph()) == 0

    def test_more_components_than_recursion_limit(self):
        """K4s survive every reduction, so each is its own component;
        solving them must not nest one call per component."""
        g = Graph()
        for block in range(1200):
            g.add_clique([(block, i) for i in range(4)])
        assert independence_number(g) == 1200

    def test_matches_brute_force(self):
        rng = random.Random(24)
        for trial in range(60):
            n = rng.randint(1, 14)
            kind = trial % 3
            if kind == 0:
                g = random_graph(n, rng.uniform(0.1, 0.8), rng)
            elif kind == 1:
                g = _bounded_degree_graph(n, 5, rng)
            else:
                g = _disjoint_union(
                    random_graph(n // 2 + 1, rng.uniform(0.2, 0.7), rng),
                    _bounded_degree_graph(n - n // 2, 3, rng))
            assert independence_number(g) == brute_force_mis_size(g), trial

    def test_matches_bitmask_solver(self):
        rng = random.Random(31)
        for trial in range(60):
            n = rng.randint(10, 30)
            if trial % 2:
                g = _bounded_degree_graph(n, 5, rng)
            else:
                g = random_graph(n, rng.uniform(0.05, 0.5), rng)
            assert independence_number(g) == \
                len(max_independent_set(g)), trial


class TestIndependenceNumberSection3:
    """Exact α on the two k=2 ``BoundedDegreeMaxIS(2, seed=1)`` pairs
    that cost a dict-of-sets branch-and-reduce without an upper bound
    17 s and 5.5 s."""

    @pytest.fixture(scope="class")
    def bd(self):
        from repro.core.bounded_degree import BoundedDegreeMaxIS

        return BoundedDegreeMaxIS(2, seed=1)

    def test_hard_pairs_pinned(self, bd):
        for x, y, alpha in (((0, 1, 1, 0), (0, 0, 0, 0), 301),
                            ((0, 0, 0, 1), (1, 1, 1, 1), 287)):
            inst = bd.build(x, y)
            assert independence_number(inst.graph) == alpha
            assert alpha == independence_number(inst.base_graph) + \
                inst.alpha_offset()

    def test_search_node_guard(self, bd, monkeypatch):
        """The search without an upper bound made 59,005 recursive calls
        on this pair; allow at most a tenth of that."""
        calls = 0
        search = mis._alpha

        def counting(*args):
            nonlocal calls
            calls += 1
            return search(*args)

        monkeypatch.setattr(mis, "_alpha", counting)
        inst = bd.build((0, 1, 1, 0), (0, 0, 0, 0))
        assert independence_number(inst.graph) == 301
        assert 0 < calls <= 5_900


class TestMinVertexCover:
    def test_cycle_values(self):
        for n, expected in ((3, 2), (4, 2), (5, 3), (6, 3)):
            assert min_vertex_cover_size(cycle_graph(n)) == expected

    def test_cover_is_valid(self, rng):
        for __ in range(8):
            g = random_graph(9, 0.4, rng)
            assert is_vertex_cover(g, min_vertex_cover(g))

    def test_matches_brute_force(self, rng):
        for __ in range(8):
            g = random_graph(8, 0.5, rng)
            assert min_vertex_cover_size(g) == brute_force_mvc_size(g)

    def test_complement_relation(self, rng):
        g = random_graph(9, 0.4, rng)
        assert min_vertex_cover_size(g) + \
            len(max_independent_set(g)) == g.n

    def test_star(self):
        g = Graph()
        for leaf in range(5):
            g.add_edge("center", leaf)
        assert min_vertex_cover_size(g) == 1
