"""Solver memoization: canonical hashing, both cache tiers, counters."""

import json
import math
import os

import pytest

from repro.graphs import DiGraph, Graph, GraphError, complete_graph, label_sort_key
from repro.solvers import max_cut, max_flow, max_independent_set, min_dominating_set
from repro.solvers.cache import (
    CACHE,
    SolverCache,
    UncacheableArgument,
    _decode,
    _encode,
    cache_stats,
    cached,
    canonical_repr,
    configure,
    default_cache_dir,
    reset_cache_stats,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test runs against a clean, enabled, memory-only cache and
    leaves the global cache the same way."""
    CACHE.configure(enabled=True, cache_dir=None)
    CACHE._mem.clear()
    CACHE.reset_stats()
    yield
    CACHE.configure(enabled=True, cache_dir=None)
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


class TestDiskEncoding:
    @pytest.mark.parametrize("value", [
        None, True, 0, -3, 1.5, float("inf"), "s",
        (1.0, [0, 2, 5]),
        {("a", 1): 2.0, ("b", 2): 3.0},
        {1, 2, 3}, frozenset({("x", "y")}),
        (12.5, {("u", "v"): 1.0}),
    ])
    def test_roundtrip_exact(self, value):
        decoded = _decode(json.loads(json.dumps(_encode(value))))
        assert decoded == value
        assert type(decoded) is type(value)

    def test_unencodable_rejected(self):
        with pytest.raises(ValueError):
            _encode(object())


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

    def test_disk_tier_survives_new_process_cache(self, tmp_path):
        configure(cache_dir=str(tmp_path))

        g = complete_graph(6)
        value, side = max_cut(g)
        files = list(tmp_path.glob("*.json"))
        assert files, "disk tier wrote nothing"
        # a brand-new cache (fresh process stand-in) must hit the disk
        CACHE._mem.clear()
        reset_cache_stats()
        value2, side2 = max_cut(g)
        assert (value2, side2) == (value, side)
        stats = cache_stats()["maxcut.max_cut"]
        assert stats.hits == 1 and stats.disk_hits == 1

    def test_disk_entry_records_key_material(self, tmp_path):
        configure(cache_dir=str(tmp_path))
        max_cut(complete_graph(4))
        payload = json.loads(next(tmp_path.glob("*.json")).read_text())
        assert payload["solver"] == "maxcut.max_cut"
        assert "Graph#" in payload["key"]

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        configure(cache_dir=str(tmp_path))
        g = complete_graph(5)
        expected = max_cut(g)
        for path in tmp_path.glob("*.json"):
            path.write_text("{not json")
        CACHE._mem.clear()
        assert max_cut(g) == expected

    def test_default_cache_dir_respects_xdg(self, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", "/tmp/xdg-test")
        assert default_cache_dir() == os.path.join("/tmp/xdg-test", "repro")


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

    def test_max_flow_dict_keys_survive_disk(self, tmp_path):
        configure(cache_dir=str(tmp_path))
        g = Graph()
        g.add_edge("s", "a", weight=2.0)
        g.add_edge("a", "t", weight=1.0)
        g.add_edge("s", "t", weight=1.0)
        expected = max_flow(g, "s", "t")
        CACHE._mem.clear()
        value, flow = max_flow(g, "s", "t")
        assert value == expected[0]
        assert flow == expected[1]
        assert all(isinstance(arc, tuple) for arc in flow)


class TestStaleTmpCleanup:
    """Crashed writers leave ``mkstemp`` leftovers; ``clear()`` and the
    startup sweep must reap them (regression: ``clear()`` used to match
    only ``*.json`` so ``*.tmp`` orphans accumulated forever)."""

    @staticmethod
    def _make_tmp(directory, name, age_s=0.0):
        path = os.path.join(str(directory), name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"solver": "killed-mid-w')
        if age_s:
            old = os.stat(path).st_mtime - age_s
            os.utime(path, (old, old))
        return path

    def test_clear_removes_orphaned_tmp_files(self, tmp_path):
        configure(cache_dir=str(tmp_path))
        g = complete_graph(4)
        max_cut(g)
        orphan = self._make_tmp(tmp_path, "tmpabc123.tmp")
        assert list(tmp_path.glob("*.json"))
        CACHE.clear()
        assert not os.path.exists(orphan)
        assert not list(tmp_path.glob("*.json"))

    def test_startup_sweep_reaps_stale_keeps_fresh(self, tmp_path):
        stale = self._make_tmp(tmp_path, "tmpstale.tmp", age_s=7200.0)
        fresh = self._make_tmp(tmp_path, "tmpfresh.tmp")
        configure(cache_dir=str(tmp_path))
        # a fresh tmp may belong to a live concurrent writer: kept
        assert not os.path.exists(stale)
        assert os.path.exists(fresh)

    def test_constructor_sweeps_stale_tmp(self, tmp_path):
        stale = self._make_tmp(tmp_path, "tmpstale.tmp", age_s=7200.0)
        SolverCache(cache_dir=str(tmp_path))
        assert not os.path.exists(stale)

    def test_sweep_stale_tmp_missing_dir_is_noop(self, tmp_path):
        from repro.solvers.cache import sweep_stale_tmp

        assert sweep_stale_tmp(str(tmp_path / "nope")) == 0

    def test_failed_atomic_write_keeps_old_file_and_no_tmp(self, tmp_path):
        from repro.solvers.cache import atomic_write_json

        path = str(tmp_path / "entry.json")
        atomic_write_json(path, {"v": 1})
        with pytest.raises(TypeError):
            atomic_write_json(path, {"v": object()})  # not JSON-encodable
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == {"v": 1}
        assert not list(tmp_path.glob("*.tmp"))
