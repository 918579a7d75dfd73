"""Solver memoization: canonical hashing, the memory cache, counters."""

import pytest

from repro.graphs import DiGraph, Graph, GraphError, complete_graph, label_sort_key
from repro.solvers import (
    max_cut,
    max_independent_set,
    max_independent_set_weight,
    min_dominating_set,
)
from repro.solvers.cache import (
    CACHE,
    UncacheableArgument,
    cache_stats,
    cached,
    canonical_repr,
    configure,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test runs against a clean, enabled cache and leaves the
    global cache the same way."""
    CACHE.configure(enabled=True)
    CACHE._mem.clear()
    CACHE.reset_stats()
    yield
    CACHE.configure(enabled=True)
    CACHE._mem.clear()
    CACHE.reset_stats()


class TestContentHash:
    def test_insertion_order_invariance(self):
        g1 = Graph()
        g1.add_edge(1, 2, weight=3.0)
        g1.add_edge(2, 5)
        g2 = Graph()
        g2.add_edge(2, 5)
        g2.add_edge(2, 1, weight=3.0)
        assert g1.content_hash() == g2.content_hash()

    def test_weight_changes_hash(self):
        g1 = Graph()
        g1.add_edge("a", "b")
        g2 = Graph()
        g2.add_edge("a", "b", weight=2.0)
        assert g1.content_hash() != g2.content_hash()
        g3 = Graph()
        g3.add_edge("a", "b")
        g3.set_vertex_weight("a", 5.0)
        assert g3.content_hash() != g1.content_hash()

    def test_label_type_distinguished(self):
        g1 = Graph()
        g1.add_edge(1, 2)
        g2 = Graph()
        g2.add_edge("1", "2")
        assert g1.content_hash() != g2.content_hash()

    def test_direction_matters(self):
        d1 = DiGraph()
        d1.add_edge("u", "v")
        d2 = DiGraph()
        d2.add_edge("v", "u")
        assert d1.content_hash() != d2.content_hash()
        g = Graph()
        g.add_edge("u", "v")
        assert g.content_hash() != d1.content_hash()

    def test_collision_guard(self):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        g = Graph()
        g.add_vertex(Opaque())
        g.add_vertex(Opaque())
        with pytest.raises(GraphError):
            g.content_hash()


class TestEdgeKeyCollisionGuard:
    def test_distinct_labels_same_repr_rejected(self):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        a, b = Opaque(), Opaque()
        with pytest.raises(GraphError):
            Graph._key(a, b)
        g = Graph()
        with pytest.raises(GraphError):
            g.add_edge(a, b, weight=1.0)

    def test_same_repr_different_type_ok(self):
        # the type-name prefix disambiguates labels whose repr coincides
        class A:
            def __repr__(self):
                return "<same>"

        class B:
            def __repr__(self):
                return "<same>"

        g = Graph()
        g.add_edge(A(), B(), weight=2.0)
        assert g.m == 1
        assert g.content_hash()

    def test_sort_key_is_type_then_repr(self):
        assert label_sort_key(10) == ("int", "10")
        assert label_sort_key("a") == ("str", "'a'")
        # documented quirk: repr order, not numeric order
        assert label_sort_key(10) < label_sort_key(2)


class TestCanonicalRepr:
    def test_set_order_independence(self):
        assert canonical_repr({3, 1, 2}) == canonical_repr({2, 3, 1})
        assert canonical_repr({"b", "a"}) == canonical_repr({"a", "b"})

    def test_dict_order_independence(self):
        assert canonical_repr({"x": 1, "y": 2}) == canonical_repr(
            {"y": 2, "x": 1})

    def test_type_tags(self):
        assert canonical_repr(1) != canonical_repr(True)
        assert canonical_repr(1) != canonical_repr("1")
        assert canonical_repr([1]) != canonical_repr((1,))

    def test_iterator_uncacheable(self):
        with pytest.raises(UncacheableArgument):
            canonical_repr(iter([1, 2]))


class TestCachedDecorator:
    def test_hit_and_miss_counters(self):
        calls = []

        @cached(name="test.fn")
        def fn(graph, k=1):
            calls.append(k)
            return [k, graph.n]

        g = complete_graph(4)
        assert fn(g) == [1, 4]
        assert fn(g) == [1, 4]
        assert fn(g, k=2) == [2, 4]
        assert calls == [1, 2]
        stats = cache_stats()["test.fn"]
        assert stats.hits == 1 and stats.misses == 2

    def test_hits_return_independent_copies(self):
        @cached(name="test.copy")
        def fn(graph):
            return [1, 2, 3]

        g = complete_graph(3)
        first = fn(g)
        first.append(99)
        assert fn(g) == [1, 2, 3]

    def test_disabled_cache_bypasses(self):
        calls = []

        @cached(name="test.off")
        def fn(graph):
            calls.append(1)
            return graph.n

        configure(enabled=False)
        g = complete_graph(3)
        fn(g), fn(g)
        assert len(calls) == 2
        assert "test.off" not in cache_stats()

    def test_equivalent_graphs_share_entry(self):
        @cached(name="test.shared")
        def fn(graph):
            return graph.m

        g1 = Graph()
        g1.add_edge(1, 2)
        g1.add_edge(2, 3)
        g2 = Graph()
        g2.add_edge(2, 3)
        g2.add_edge(1, 2)
        fn(g1), fn(g2)
        stats = cache_stats()["test.shared"]
        assert stats.hits == 1 and stats.misses == 1


class TestSolverResultsUnchanged:
    """Cached solvers must return exactly what the uncached ones do."""

    def test_max_cut_matches_uncached(self):
        g = complete_graph(6)
        g.set_edge_weight(0, 1, 4.0)
        cached_result = max_cut(g)
        configure(enabled=False)
        assert max_cut(g) == cached_result

    def test_mis_and_mds_roundtrip(self):
        g = Graph()
        for i in range(5):
            g.add_edge(i, (i + 1) % 5)
        mis1 = max_independent_set(g)
        mds1 = min_dominating_set(g)
        assert max_independent_set(g) == mis1
        assert min_dominating_set(g) == mds1
        configure(enabled=False)
        assert max_independent_set(g) == mis1
        assert min_dominating_set(g) == mds1

    @pytest.mark.parametrize("order", [(1, 1.0), (1.0, 1)])
    def test_int_and_float_weights_never_share_an_entry(self, order):
        # content_hash formats weights with !r, so vertex weight 1 and
        # 1.0 key different entries: the result's type (2 vs 2.0) never
        # depends on which graph was solved first
        def weighted_p4(weight):
            g = Graph()
            for i in range(3):
                g.add_edge(i, i + 1)
            for v in range(4):
                g.set_vertex_weight(v, weight)
            return g

        graphs = [weighted_p4(w) for w in order]
        assert graphs[0].content_hash() != graphs[1].content_hash()
        for weight, g in zip(order, graphs):
            result = max_independent_set_weight(g)
            assert result == 2 and type(result) is type(weight)
        stats = cache_stats()["mis.max_independent_set"]
        assert stats.misses == 2 and stats.hits == 0
