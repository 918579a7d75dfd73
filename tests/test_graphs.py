"""Unit tests for the graph substrate."""

import pytest

from repro.graphs import (
    DiGraph,
    Graph,
    GraphError,
    complete_graph,
    cycle_graph,
    label_sort_key,
    path_graph,
    random_graph,
)


class TestGraphBasics:
    def test_empty(self):
        g = Graph()
        assert g.n == 0
        assert g.m == 0
        assert g.vertices() == []
        assert g.edges() == []

    def test_add_vertex_idempotent(self):
        g = Graph()
        g.add_vertex("a")
        g.add_vertex("a")
        assert g.n == 1

    def test_add_edge_creates_endpoints(self):
        g = Graph()
        g.add_edge(1, 2)
        assert g.n == 2
        assert g.m == 1
        assert g.has_edge(1, 2)
        assert g.has_edge(2, 1)

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.add_edge(1, 1)

    def test_parallel_edge_collapses(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(2, 1)
        assert g.m == 1

    def test_degrees(self):
        g = complete_graph(5)
        assert all(g.degree(v) == 4 for v in g.vertices())
        assert g.max_degree() == 4

    def test_clique(self):
        g = Graph()
        g.add_clique(range(4))
        assert g.m == 6

    def test_remove_edge(self):
        g = cycle_graph(4)
        g.remove_edge(0, 1)
        assert g.m == 3
        with pytest.raises(GraphError):
            g.remove_edge(0, 1)

    def test_remove_vertex(self):
        g = complete_graph(4)
        g.remove_vertex(0)
        assert g.n == 3
        assert g.m == 3

    def test_tuple_labels(self):
        g = Graph()
        g.add_edge(("row", "A1", 0), ("f", "A1", 1))
        assert ("row", "A1", 0) in g

    def test_copy_independent(self):
        g = cycle_graph(4)
        h = g.copy()
        h.remove_edge(0, 1)
        assert g.m == 4
        assert h.m == 3


class TestGraphWeights:
    def test_default_weights(self):
        g = cycle_graph(3)
        assert g.edge_weight(0, 1) == 1.0
        assert g.vertex_weight(0) == 1.0

    def test_explicit_weights(self):
        g = Graph()
        g.add_edge("a", "b", weight=5)
        g.add_vertex("a", weight=3)
        assert g.edge_weight("a", "b") == 5
        assert g.vertex_weight("a") == 3

    def test_set_edge_weight_requires_edge(self):
        g = Graph()
        g.add_vertices([1, 2])
        with pytest.raises(GraphError):
            g.set_edge_weight(1, 2, 4)

    def test_total_edge_weight(self):
        g = cycle_graph(4)
        for u, v in g.edges():
            g.set_edge_weight(u, v, 2)
        assert g.total_edge_weight() == 8

    def test_weights_survive_copy(self):
        g = Graph()
        g.add_edge(1, 2, weight=7)
        g.set_vertex_weight(1, 9)
        h = g.copy()
        assert h.edge_weight(1, 2) == 7
        assert h.vertex_weight(1) == 9


class TestGraphStructure:
    def test_bfs_distances(self):
        g = path_graph(5)
        dist = g.bfs_distances(0)
        assert dist == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_connected_components(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(3, 4)
        g.add_vertex(5)
        comps = g.connected_components()
        assert sorted(len(c) for c in comps) == [1, 2, 2]

    def test_is_connected(self):
        assert cycle_graph(5).is_connected()
        g = cycle_graph(5)
        g.add_vertex("lonely")
        assert not g.is_connected()

    def test_diameter(self):
        assert path_graph(5).diameter() == 4
        assert cycle_graph(6).diameter() == 3
        assert complete_graph(4).diameter() == 1

    def test_diameter_disconnected_raises(self):
        g = Graph()
        g.add_vertices([1, 2])
        with pytest.raises(GraphError):
            g.diameter()

    def test_induced_subgraph(self):
        g = complete_graph(5)
        sub = g.induced_subgraph([0, 1, 2])
        assert sub.n == 3
        assert sub.m == 3

    def test_relabel(self):
        g = cycle_graph(3)
        h = g.relabel({0: "zero"})
        assert "zero" in h
        assert h.has_edge("zero", 1)

    def test_relabel_non_injective_rejected(self):
        g = cycle_graph(3)
        with pytest.raises(GraphError):
            g.relabel({0: 1})

    def test_to_networkx_roundtrip(self):
        g = cycle_graph(5)
        nxg = g.to_networkx()
        assert nxg.number_of_nodes() == 5
        assert nxg.number_of_edges() == 5


class TestDiGraph:
    def test_directed_edges(self):
        g = DiGraph()
        g.add_edge("a", "b")
        assert g.has_edge("a", "b")
        assert not g.has_edge("b", "a")
        assert g.out_degree("a") == 1
        assert g.in_degree("b") == 1

    def test_successors_predecessors(self):
        g = DiGraph()
        g.add_edge(1, 2)
        g.add_edge(1, 3)
        g.add_edge(4, 1)
        assert g.successors(1) == {2, 3}
        assert g.predecessors(1) == {4}

    def test_to_undirected(self):
        g = DiGraph()
        g.add_edge(1, 2)
        g.add_edge(2, 1)
        und = g.to_undirected()
        assert und.m == 1

    def test_self_loop_rejected(self):
        g = DiGraph()
        with pytest.raises(GraphError):
            g.add_edge(1, 1)

    def test_m_counts_arcs(self):
        g = DiGraph()
        g.add_edge(1, 2)
        g.add_edge(2, 1)
        assert g.m == 2


class TestGenerators:
    def test_cycle_too_small(self):
        with pytest.raises(GraphError):
            cycle_graph(2)

    def test_random_graph_deterministic(self, rng):
        import random

        g1 = random_graph(10, 0.5, random.Random(7))
        g2 = random_graph(10, 0.5, random.Random(7))
        assert sorted(map(repr, g1.edges())) == sorted(map(repr, g2.edges()))

    def test_complete_graph_edge_count(self):
        for n in (1, 2, 5, 8):
            g = complete_graph(n)
            assert g.m == n * (n - 1) // 2


class TestDeterministicIteration:
    """Regression: edge/subgraph iteration must not depend on the
    process hash seed (string/tuple labels iterate sets in hash order),
    or experiment tables differ between the serial and parallel runners."""

    def test_edges_in_canonical_neighbor_order(self):
        g = Graph()
        for leaf in ("b", "a", "d", "c"):
            g.add_edge("hub", leaf)
        assert g.edges() == [("a", "hub"), ("b", "hub"),
                             ("c", "hub"), ("d", "hub")]

    def test_digraph_edges_in_canonical_successor_order(self):
        from repro.graphs import DiGraph

        d = DiGraph()
        for succ in ("b", "a", "c"):
            d.add_edge("s", succ)
        assert list(d.edges()) == [("s", "a"), ("s", "b"), ("s", "c")]

    def test_induced_subgraph_preserves_parent_vertex_order(self):
        g = Graph()
        for v in ("w", "q", "z", "m", "k"):
            g.add_vertex(v)
        g.add_edge("w", "z")
        sub = g.induced_subgraph({"z", "w", "k"})
        assert sub.vertices() == ["w", "z", "k"]

    def test_induced_subgraph_missing_vertex_rejected(self):
        g = Graph()
        g.add_vertex("a")
        with pytest.raises(GraphError):
            g.induced_subgraph({"a", "missing"})


class TestGraphKernel:
    """The graph's cached derived data, read through its one bitmask
    view (:meth:`Graph.bits`): reuse, invalidation, and the
    disconnected-diameter early exit."""

    def test_bfs_rows_cached_per_source(self):
        g = path_graph(6)
        view = g.bits()
        assert g.bfs_distances(0) == {i: i for i in range(6)}
        assert g.bfs_distances(3) == {0: 3, 1: 2, 2: 1, 3: 0, 4: 1, 5: 2}
        # every BFS reads the one cached view; none builds its own
        assert g.bits() is view

    def test_ball_masks_match_bfs_distances(self):
        """Parity: the truncated mask BFS of ``ball_masks(k)`` equals the
        balls built from per-source BFS distances, on seeded random
        graphs (disconnected ones included)."""
        import random

        rng = random.Random(7)
        for __ in range(25):
            g = random_graph(rng.randint(1, 24), rng.choice((0.1, 0.2, 0.4)),
                             rng)
            view = g.bits()
            for k in range(4):
                expected = []
                for v in view.vertices:
                    ball = 0
                    for w, d in g.bfs_distances(v).items():
                        if d <= k:
                            ball |= 1 << view.index[w]
                    expected.append(ball)
                assert list(view.ball_masks(k)) == expected, k

    def test_ball_masks_cached_per_k(self):
        g = cycle_graph(8)
        balls = g.bits().ball_masks(2)
        assert g.bits().ball_masks(2) is balls
        assert g.bits().ball_masks(1) is not balls
        assert g.copy().bits().ball_masks(2) is balls

    def test_diameter_disconnected_stops_early(self, monkeypatch):
        g = Graph()
        g.add_edge(0, 1)
        for v in range(2, 40):
            g.add_vertex(v)
        sweeps = []
        bfs = Graph.bfs_distances

        def counting(self, source):
            sweeps.append(source)
            return bfs(self, source)

        monkeypatch.setattr(Graph, "bfs_distances", counting)
        with pytest.raises(GraphError):
            g.diameter()
        # the first BFS already witnesses the disconnection; no full
        # all-sources sweep should have run
        assert sweeps == [0]

    def test_diameter_matches_bfs_eccentricities(self):
        """The all-sources ball growth agrees with the max of per-source
        BFS distances, on seeded random graphs and on the Section 3 G′."""
        import random

        from repro.core.bounded_degree import BoundedDegreeMaxIS

        rng = random.Random(21)
        graphs = []
        while len(graphs) < 20:
            g = random_graph(rng.randint(1, 40), rng.choice((0.1, 0.2, 0.5)),
                             rng)
            if g.is_connected():
                graphs.append(g)
        gprime = BoundedDegreeMaxIS(2, seed=1).build(
            (1, 1, 0, 1), (0, 0, 1, 0)).graph
        for g in graphs + [gprime]:
            expected = max(max(g.bfs_distances(v).values())
                           for v in g.vertices())
            assert g.copy().diameter() == expected
        assert gprime.diameter() == 46

    def test_mutation_invalidates_kernel(self):
        g = path_graph(4)
        assert g.diameter() == 3
        h0 = g.content_hash()
        g.add_edge(0, 3)
        assert g.diameter() == 2
        assert g.content_hash() != h0

    def test_set_edge_weight_invalidates_content_hash(self):
        g = path_graph(3)
        h0 = g.content_hash()
        g.set_edge_weight(0, 1, 5.0)
        h1 = g.content_hash()
        assert h1 != h0
        # setting the same weight again is a no-op for the caches
        view = g.bits()
        g.set_edge_weight(0, 1, 5.0)
        assert g.bits() is view
        assert g.content_hash() == h1

    def test_idempotent_mutations_keep_caches(self):
        g = path_graph(4)
        view = g.bits()
        g.add_vertex(0)
        g.add_edge(0, 1)
        assert g.bits() is view

    def test_copy_does_not_share_caches(self):
        g = path_graph(4)
        g.content_hash()
        h = g.copy()
        h.add_edge(0, 3)
        assert g.content_hash() != h.content_hash()
        assert g.diameter() == 3
        assert h.diameter() == 2

    def test_vertex_weight_change_keeps_structure_caches(self):
        g = path_graph(4)
        view = g.bits()
        edges = g.edges()
        h0 = g.content_hash()
        g.set_vertex_weight(2, 7.0)
        # only the content hash depends on vertex weights
        assert g.content_hash() != h0
        assert g.bits() is view
        assert g.edges() == edges
        assert g.vertex_weight(2) == 7.0
        # re-setting the same weight is a cache no-op
        h1 = g.content_hash()
        g.set_vertex_weight(2, 7.0)
        assert g.content_hash() == h1

    def test_edge_weight_change_updates_edge_weights(self):
        g = path_graph(4)
        g.edge_weights()
        view = g.bits()
        h0 = g.content_hash()
        g.add_edge(1, 2, weight=3.0)  # re-weight an existing edge
        assert g.edge_weights()[(1, 2)] == 3.0
        assert g.total_edge_weight() == 5.0
        assert g.content_hash() != h0
        assert g.bits() is view  # adjacency unchanged

    def test_copy_isolated_from_original_mutation(self):
        g = path_graph(4)
        # warm every derived cache before copying
        g.edges(), g.edge_weights(), g.bits().ball_masks(2)
        g.content_hash(), g.diameter()
        h = g.copy()
        assert h.content_hash() == g.content_hash()
        g.add_edge(0, 3)
        g.set_vertex_weight(1, 9.0)
        # the copy must still answer from the pre-mutation content
        assert h.diameter() == 3
        assert h.edges() == [(0, 1), (1, 2), (2, 3)]
        assert h.vertex_weight(1) == 1.0
        assert h.content_hash() != g.content_hash()
        assert h.bits().ball_masks(2)[0] == 0b0111
        assert g.bits().ball_masks(2)[0] == 0b1111

    def test_copy_vertex_weight_diverges_hash(self):
        g = path_graph(3)
        g.content_hash()
        h = g.copy()
        h.set_vertex_weight(0, 4.0)
        assert h.content_hash() != g.content_hash()
        assert g.vertex_weight(0) == 1.0


class TestStaleKernel:
    """A view held across a structural mutation is a snapshot: it keeps
    describing the graph it was built from, and :meth:`Graph.bits`
    hands out a new object for the new structure."""

    def test_view_held_across_add_edge_describes_old_graph(self):
        g = path_graph(4)
        view = g.bits()
        balls = view.ball_masks(1)
        g.add_edge(0, 3)
        assert view.adj == (0b0010, 0b0101, 0b1010, 0b0100)
        assert view.ball_masks(1) is balls
        assert balls[0] == 0b0011
        fresh = g.bits()
        assert fresh is not view
        assert fresh.adj[0] == 0b1010
        assert fresh.ball_masks(1)[0] == 0b1011

    def test_remove_edge_and_vertex_stale_the_kernel(self):
        g = path_graph(4)
        view = g.bits()
        g.remove_edge(0, 1)
        assert g.bits() is not view
        assert view.adj[0] == 0b10 and g.bits().adj[0] == 0
        view = g.bits()
        g.remove_vertex(3)
        assert g.bits() is not view
        assert (view.n, g.bits().n) == (4, 3)
        assert view.vertices == (0, 1, 2, 3)

    def test_weight_only_mutation_does_not_stale(self):
        g = path_graph(4)
        view = g.bits()
        balls = view.ball_masks(2)
        g.set_edge_weight(1, 2, 9.0)
        g.set_vertex_weight(0, 2.0)
        assert g.bits() is view
        assert view.ball_masks(2) is balls

    def test_fresh_kernel_after_mutation_works(self):
        g = path_graph(4)
        view = g.bits()
        g.add_edge(0, 3)
        fresh = g.bits()
        assert fresh is not view
        assert g.bits() is fresh
        assert g.bfs_distances(0) == {0: 0, 1: 1, 2: 2, 3: 1}


class TestCsrSubstrate:
    """The layout of the bitmask view and its sharing across copies and
    weight-only mutations."""

    def test_structure_matches_adjacency(self):
        g = Graph()
        g.add_edge("b", "a")
        g.add_edge("b", "c")
        g.add_edge("a", "c")
        g.add_vertex("d")
        view = g.bits()
        # labels/indices follow insertion order
        assert view.vertices == ("b", "a", "c", "d")
        assert view.index == {"b": 0, "a": 1, "c": 2, "d": 3}
        assert view.n == 4
        assert view.full_mask == 0b1111
        assert view.adj == (0b0110, 0b0101, 0b0011, 0)
        assert view.closed(3) == 0b1000
        assert view.mask_of(["a", "d"]) == 0b1010
        assert view.unmask(0b1010) == ["a", "d"]

    def test_cached_until_structural_mutation(self):
        g = path_graph(5)
        view = g.bits()
        assert g.bits() is view
        g.set_edge_weight(0, 1, 3.0)  # weight-only: structure survives
        assert g.bits() is view
        g.add_edge(0, 4)
        assert g.bits() is not view

    def test_copy_shares_csr_snapshot(self):
        g = path_graph(4)
        view = g.bits()
        h = g.copy()
        assert h.bits() is view
        h.add_edge(0, 3)
        assert h.bits() is not view
        assert g.bits() is view  # original untouched

    def test_digraph_csr_is_successor_based(self):
        """A ``DiGraph`` keeps no bitmask view; the row arrays of its
        wire frame list successors."""
        from repro.graphs import graph_from_bytes

        d = DiGraph()
        d.add_edge("a", "b")
        d.add_edge("a", "c")
        d.add_edge("c", "a")
        assert not hasattr(d, "bits")
        # the decoder reads each row as successors, so rows written from
        # predecessors would come back with every arc reversed
        clone = graph_from_bytes(d.to_bytes())
        assert clone.successors("a") == {"b", "c"}
        assert clone.predecessors("a") == {"c"}


def _warmed_skeleton_copy(directed):
    """A copy of a cache-warmed skeleton, as ``DeltaBuildMixin.build``
    makes one per input pair: a 4-path plus an isolated vertex."""
    from repro.core.family import _warm_graph_caches

    g = DiGraph() if directed else Graph()
    g.add_vertex("iso")
    for u, v in ((0, 1), (1, 2), (2, 3)):
        g.add_edge(u, v, weight=2.0)
    _warm_graph_caches(g)
    return g.copy()


def _spy_edge_invalidations(g):
    """Count ``g._dirty_edges_only`` calls (the adjacency-tier
    invalidation) in the returned list."""
    calls = []
    dirty = g._dirty_edges_only

    def spy():
        calls.append(1)
        dirty()

    g._dirty_edges_only = spy
    return calls


@pytest.mark.parametrize("directed", [False, True],
                         ids=["graph", "digraph"])
class TestDeltaInvalidation:
    """Which caches an edge or arc delta on a warmed skeleton copy drops
    and which it keeps."""

    def _dropped(self, directed):
        if directed:
            return ("edge_weights", "content_hash")
        return ("edges", "edge_weights", "content_hash", "bits")

    def test_insert_keeps_vertex_set_caches(self, directed):
        g = _warmed_skeleton_copy(directed)
        verts = g._vcache["sorted_vertices"]
        keys = g._vcache["sort_keys"]
        g.add_edge(0, "iso")
        assert g._vcache["sorted_vertices"] is verts
        assert g._vcache["sort_keys"] is keys
        # the content hash reads them, and must see the new edge
        assert g.content_hash() != _warmed_skeleton_copy(
            directed).content_hash()
        assert g._vcache["sort_keys"] is keys

    def test_insert_drops_adjacency_caches_once(self, directed):
        g = _warmed_skeleton_copy(directed)
        for key in self._dropped(directed):
            assert key in g._cache
        calls = _spy_edge_invalidations(g)
        g.add_edge(0, "iso")
        assert len(calls) == 1
        for key in self._dropped(directed):
            assert key not in g._cache
        g.add_edge(3, "iso", weight=0)
        assert len(calls) == 2
        assert not g._cache

    def test_duplicate_insert_changes_nothing(self, directed):
        g = _warmed_skeleton_copy(directed)
        before = dict(g._cache)
        vbefore = dict(g._vcache)
        calls = _spy_edge_invalidations(g)
        g.add_edge(1, 2)
        g.add_edge(1, 2, weight=2.0)
        assert not calls
        assert g._cache.keys() == before.keys()
        assert all(g._cache[k] is v for k, v in before.items())
        assert all(g._vcache[k] is v for k, v in vbefore.items())

    def test_weight_only_delta_keeps_csr(self, directed):
        g = _warmed_skeleton_copy(directed)
        view = g._cache.get("bits")
        assert (view is None) == directed
        calls = _spy_edge_invalidations(g)
        hash0 = g.content_hash()
        g.add_edge(1, 2, weight=5.0)
        g.add_vertex("iso", weight=0)
        assert not calls
        if not directed:
            assert g.bits() is view
        assert g.content_hash() != hash0

    def test_vertex_insert_drops_vertex_set_caches(self, directed):
        g = _warmed_skeleton_copy(directed)
        g.add_edge(0, "new")
        assert not g._vcache
        assert not g._cache


class TestDiGraphAddEdges:
    """``DiGraph.add_edges``, the arc-delta path of the directed Steiner
    family, applies a whole delta with one cache invalidation."""

    DROPPED = ("edge_weights", "content_hash")

    def test_invalidates_once(self):
        g = _warmed_skeleton_copy(True)
        verts = g._vcache["sorted_vertices"]
        calls = _spy_edge_invalidations(g)
        g.add_edges([(0, 2), (1, 3), (0, 3), (3, "iso")], weight=0)
        assert len(calls) == 1
        for key in self.DROPPED:
            assert key not in g._cache
        assert g._vcache["sorted_vertices"] is verts

    def test_noop_bumps_nothing(self):
        g = _warmed_skeleton_copy(True)
        before = dict(g._cache)
        vbefore = dict(g._vcache)
        calls = _spy_edge_invalidations(g)
        g.add_edges([(0, 1), (1, 2)], weight=2.0)
        g.add_edges([])
        assert not calls
        assert g._cache.keys() == before.keys()
        assert all(g._cache[k] is v for k, v in before.items())
        assert all(g._vcache[k] is v for k, v in vbefore.items())

    def test_weight_only_keeps_csr(self):
        g = _warmed_skeleton_copy(True)
        vbefore = dict(g._vcache)
        calls = _spy_edge_invalidations(g)
        hash0 = g.content_hash()
        g.add_edges([(0, 1), (2, 3)], weight=5.0)
        assert not calls
        assert all(g._vcache[k] is v for k, v in vbefore.items())
        assert g.content_hash() != hash0
        assert g.edge_weight(2, 3) == 5.0

    def test_self_loop_raises(self):
        g = _warmed_skeleton_copy(True)
        calls = _spy_edge_invalidations(g)
        with pytest.raises(GraphError):
            g.add_edges([(0, 2), (3, 3), (1, 3)])
        # the arc before the loop is in, and the caches saw it
        assert g.has_edge(0, 2) and not g.has_edge(1, 3)
        assert len(calls) == 1
        assert "content_hash" not in g._cache

    def test_matches_add_edge_loop(self):
        arcs = [(0, 2), (2, 0), (1, 2), ("iso", "x"), ("y", 0), (0, 2)]
        for weight in (None, 0, 2.0, 7):
            bulk = _warmed_skeleton_copy(True)
            loop = _warmed_skeleton_copy(True)
            bulk.add_edges(arcs, weight=weight)
            for u, v in arcs:
                loop.add_edge(u, v, weight=weight)
            assert bulk.content_hash() == loop.content_hash()
            assert bulk.vertices() == loop.vertices()
            assert list(bulk.edges()) == list(loop.edges())
            assert bulk.to_bytes() == loop.to_bytes()

class TestBitGraphSharesCsr:
    """Solvers share one bitmask view per structure and read the vertex
    weights afresh on every call."""

    @staticmethod
    def _graph():
        # a 7-cycle with chords and pendants: the α search folds its
        # degree-2 vertices, which rewrites a copy of the masks
        g = cycle_graph(7)
        g.add_edge(0, 3)
        g.add_edge(7, 1)
        g.add_edge(8, 5)
        for v in g.vertices():
            g.set_vertex_weight(v, 1 + v % 3)
        return g

    def test_weight_only_delta_shows_new_weights(self):
        from repro.core.family import _warm_graph_caches
        from repro.solvers._bitmask import vertex_weights

        skeleton = self._graph()
        _warm_graph_caches(skeleton)
        before = vertex_weights(skeleton)
        copy = skeleton.copy()
        copy.set_vertex_weight(3, 9)
        copy.set_vertex_weight(8, 0)
        assert copy.bits() is skeleton.bits()
        bg = copy.bits()
        weights = vertex_weights(copy)
        assert weights[bg.index[3]] == 9
        assert weights[bg.index[8]] == 0
        assert vertex_weights(skeleton) == before

    def test_node_weighted_family_pairs_see_their_weights(self):
        from repro.core.kmds import scomp, svert
        from repro.core.steiner_approx import NodeWeightedSteinerFamily
        from repro.covering.designs import build_covering_collection
        from repro.solvers._bitmask import vertex_weights

        fam = NodeWeightedSteinerFamily(
            build_covering_collection(universe_size=5, T=3, r=1, seed=2))
        for x, y in (((1, 0, 1), (0, 1, 1)), ((0, 0, 0), (1, 1, 1))):
            g = fam.build(x, y)
            assert g.bits() is fam.skeleton().bits()
            bg = g.bits()
            weights = vertex_weights(g)
            for i in range(3):
                assert weights[bg.index[svert(i)]] == \
                    (1 if x[i] else fam.alpha)
                assert weights[bg.index[scomp(i)]] == \
                    (1 if y[i] else fam.alpha)

    def test_solvers_leave_csr_unchanged(self):
        import inspect

        from repro.solvers import dominating, maxcut, mis, steiner

        g = self._graph()
        view = g.bits()
        masks = list(view.adj)
        index = dict(view.index)
        vertices = view.vertices
        balls = {k: list(view.ball_masks(k)) for k in (1, 2)}
        calls = [
            (steiner.min_node_weighted_steiner_cost, (g, [0, 4, 8])),
            (maxcut.max_cut_vectorized, (g,)),
            (maxcut._max_cut_mitm, (g,)),
            (maxcut.max_cut, (g,)),
            (mis.max_independent_set, (g,)),
            (mis.max_independent_set, (g, True)),
            (mis.independence_number, (g,)),
            (dominating._solve_domination,
             (g, 1, True, None, [2], float("inf"))),
            (dominating._solve_domination,
             (g, 2, False, [0, 1, 2, 5], None, 3.5, [0, 1])),
        ]
        for fn, args in calls:
            inspect.unwrap(fn)(*args)
            assert g.bits() is view
            assert list(view.adj) == masks, fn.__name__
            assert view.index == index, fn.__name__
            assert view.vertices == vertices
            for k, ball in balls.items():
                assert list(view.ball_masks(k)) == ball, fn.__name__


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
