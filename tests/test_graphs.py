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
    """The lazy kernel layer: cached BFS rows, cache invalidation, and the
    disconnected-diameter early exit."""

    def test_bfs_rows_cached_per_source(self):
        g = path_graph(6)
        kern = g.kernel()
        g.bfs_distances(0)
        g.bfs_distances(0)
        g.bfs_distances(3)
        assert kern.bfs_runs == 2

    def test_all_pairs_distances_matches_bfs(self):
        g = random_graph(12, 0.3, __import__("random").Random(7))
        apd = g.all_pairs_distances()
        for v in g.vertices():
            assert apd[v] == g.bfs_distances(v)

    def test_all_pairs_distances_cached(self):
        g = cycle_graph(8)
        g.all_pairs_distances()
        runs = g.kernel().bfs_runs
        g.all_pairs_distances()
        assert g.kernel().bfs_runs == runs

    def test_diameter_disconnected_stops_early(self):
        g = Graph()
        g.add_edge(0, 1)
        for v in range(2, 40):
            g.add_vertex(v)
        with pytest.raises(GraphError):
            g.diameter()
        # the first BFS already witnesses the disconnection; no full
        # all-sources sweep should have run
        assert g.kernel().bfs_runs <= 1

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
        kern = g.kernel()
        g.set_edge_weight(0, 1, 5.0)
        assert g.kernel() is kern
        assert g.content_hash() == h1

    def test_idempotent_mutations_keep_caches(self):
        g = path_graph(4)
        kern = g.kernel()
        g.add_vertex(0)
        g.add_edge(0, 1)
        assert g.kernel() is kern

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
        kern = g.kernel()
        edges = g.edges()
        h0 = g.content_hash()
        g.set_vertex_weight(2, 7.0)
        # only the content hash depends on vertex weights
        assert g.content_hash() != h0
        assert g.kernel() is kern
        assert g.edges() == edges
        assert g.vertex_weight(2) == 7.0
        # re-setting the same weight is a cache no-op
        h1 = g.content_hash()
        g.set_vertex_weight(2, 7.0)
        assert g.content_hash() == h1

    def test_edge_weight_change_updates_edge_weights(self):
        g = path_graph(4)
        g.edge_weights()
        kern = g.kernel()
        h0 = g.content_hash()
        g.add_edge(1, 2, weight=3.0)  # re-weight an existing edge
        assert g.edge_weights()[(1, 2)] == 3.0
        assert g.total_edge_weight() == 5.0
        assert g.content_hash() != h0
        assert g.kernel() is kern  # adjacency unchanged

    def test_copy_isolated_from_original_mutation(self):
        g = path_graph(4)
        # warm every derived cache before copying
        g.edges(), g.edge_weights(), g.all_pairs_distances()
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

    def test_copy_vertex_weight_diverges_hash(self):
        g = path_graph(3)
        g.content_hash()
        h = g.copy()
        h.set_vertex_weight(0, 4.0)
        assert h.content_hash() != g.content_hash()
        assert g.vertex_weight(0) == 1.0


class TestStaleKernel:
    """Regression: a kernel held across a structural mutation used to
    alias the live adjacency and silently serve torn data; now every
    read checks the generation stamp and raises."""

    def test_reads_after_add_edge_raise(self):
        g = path_graph(4)
        kern = g.kernel()
        kern.bfs_row(0)
        g.add_edge(0, 3)
        for read in (lambda: kern.bfs_row(0),
                     lambda: kern.adjacency(),
                     lambda: kern.neighbor_masks(),
                     lambda: kern.ball_masks(1)):
            with pytest.raises(GraphError, match="stale GraphKernel"):
                read()

    def test_remove_edge_and_vertex_stale_the_kernel(self):
        g = path_graph(4)
        kern = g.kernel()
        g.remove_edge(0, 1)
        with pytest.raises(GraphError):
            kern.adjacency()
        kern = g.kernel()
        g.remove_vertex(3)
        with pytest.raises(GraphError):
            kern.bfs_row(0)

    def test_weight_only_mutation_does_not_stale(self):
        g = path_graph(4)
        kern = g.kernel()
        row = kern.bfs_row(0)
        g.set_edge_weight(1, 2, 9.0)
        g.set_vertex_weight(0, 2.0)
        assert g.kernel() is kern
        assert kern.bfs_row(0) == row

    def test_fresh_kernel_after_mutation_works(self):
        g = path_graph(4)
        kern = g.kernel()
        g.add_edge(0, 3)
        with pytest.raises(GraphError):
            kern.bfs_row(0)
        fresh = g.kernel()
        assert fresh is not kern
        assert fresh.bfs_row(0) == [0, 1, 2, 1]


class TestCsrSubstrate:
    def test_structure_matches_adjacency(self):
        g = Graph()
        g.add_edge("b", "a")
        g.add_edge("b", "c")
        g.add_edge("a", "c")
        csr = g.csr()
        # labels/indices follow insertion order; rows are sorted
        assert csr.labels == ("b", "a", "c")
        assert csr.index == {"b": 0, "a": 1, "c": 2}
        assert list(csr.indptr) == [0, 2, 4, 6]
        assert [list(csr.row(i)) for i in range(csr.n)] == \
            [[1, 2], [0, 2], [0, 1]]
        assert csr.m == 2 * g.m
        assert [csr.degree(i) for i in range(csr.n)] == [2, 2, 2]
        assert csr.masks() == [0b110, 0b101, 0b011]

    def test_cached_until_structural_mutation(self):
        g = path_graph(5)
        csr = g.csr()
        assert g.csr() is csr
        g.set_edge_weight(0, 1, 3.0)  # weight-only: structure survives
        assert g.csr() is csr
        g.add_edge(0, 4)
        assert g.csr() is not csr

    def test_csr_weights_aligned_and_invalidated(self):
        g = path_graph(3)
        g.set_edge_weight(1, 2, 5.0)
        csr = g.csr()
        w = g.csr_weights()
        assert len(w) == len(csr.indices)
        def weight(u, v):
            i, j = csr.index[u], csr.index[v]
            for k in range(csr.indptr[i], csr.indptr[i + 1]):
                if csr.indices[k] == j:
                    return w[k]
            raise AssertionError("edge not in CSR")
        assert weight(0, 1) == weight(1, 0) == 1.0
        assert weight(1, 2) == weight(2, 1) == 5.0
        assert g.csr_weights() is w
        g.set_edge_weight(0, 1, 2.0)
        w2 = g.csr_weights()
        assert w2 is not w
        assert g.csr() is csr  # structure cache untouched
        i01 = csr.indptr[0]  # vertex 0's only neighbour is 1
        assert w2[i01] == 2.0

    def test_unweighted_fast_path(self):
        g = cycle_graph(6)
        w = g.csr_weights()
        assert list(w) == [1.0] * (2 * g.m)

    def test_copy_shares_csr_snapshot(self):
        g = path_graph(4)
        csr = g.csr()
        w = g.csr_weights()
        h = g.copy()
        assert h.csr() is csr
        assert h.csr_weights() is w
        h.add_edge(0, 3)
        assert h.csr() is not csr
        assert g.csr() is csr  # original untouched

    def test_digraph_csr_is_successor_based(self):
        d = DiGraph()
        d.add_edge("a", "b")
        d.add_edge("a", "c")
        d.add_edge("c", "a")
        csr = d.csr()
        assert csr.labels == ("a", "b", "c")
        assert [list(csr.row(i)) for i in range(csr.n)] == \
            [[1, 2], [], [0]]
        assert d.csr() is csr
        d.add_edge("b", "c")
        assert d.csr() is not csr


def _warmed_skeleton_copy(directed):
    """A copy of a cache-warmed skeleton, as ``DeltaBuildMixin.build``
    makes one per input pair: a 4-path plus an isolated vertex."""
    from repro.core.family import _warm_graph_caches

    g = DiGraph() if directed else Graph()
    g.add_vertex("iso")
    for u, v in ((0, 1), (1, 2), (2, 3)):
        g.add_edge(u, v, weight=2.0)
    _warm_graph_caches(g)
    copy = g.copy()
    if not directed:
        copy.kernel()
    return copy


@pytest.mark.parametrize("directed", [False, True],
                         ids=["graph", "digraph"])
class TestDeltaInvalidation:
    """Which caches an edge or arc delta on a warmed skeleton copy drops
    and which it keeps."""

    def _dropped(self, directed):
        if directed:
            return ("edge_weights", "content_hash", "csr")
        return ("edges", "edge_weights", "content_hash", "csr", "kernel")

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
        gen = g._generation
        g.add_edge(0, "iso")
        assert g._generation == gen + 1
        for key in self._dropped(directed):
            assert key not in g._cache
        g.add_edge(3, "iso", weight=0)
        assert g._generation == gen + 2
        assert not g._cache

    def test_duplicate_insert_changes_nothing(self, directed):
        g = _warmed_skeleton_copy(directed)
        before = dict(g._cache)
        vbefore = dict(g._vcache)
        gen = g._generation
        g.add_edge(1, 2)
        g.add_edge(1, 2, weight=2.0)
        assert g._generation == gen
        assert g._cache.keys() == before.keys()
        assert all(g._cache[k] is v for k, v in before.items())
        assert all(g._vcache[k] is v for k, v in vbefore.items())

    def test_weight_only_delta_keeps_csr(self, directed):
        g = _warmed_skeleton_copy(directed)
        csr = g._cache["csr"]
        gen = g._generation
        hash0 = g.content_hash()
        g.add_edge(1, 2, weight=5.0)
        g.add_vertex("iso", weight=0)
        assert g._generation == gen
        assert g.csr() is csr
        assert g.content_hash() != hash0

    def test_vertex_insert_drops_vertex_set_caches(self, directed):
        g = _warmed_skeleton_copy(directed)
        g.add_edge(0, "new")
        assert not g._vcache
        assert not g._cache


class TestDiGraphAddEdges:
    """``DiGraph.add_edges``, the arc-delta path of the directed Steiner
    family, applies a whole delta with one cache invalidation."""

    DROPPED = ("edge_weights", "content_hash", "csr")

    def test_bumps_generation_once(self):
        g = _warmed_skeleton_copy(True)
        verts = g._vcache["sorted_vertices"]
        gen = g._generation
        g.add_edges([(0, 2), (1, 3), (0, 3), (3, "iso")], weight=0)
        assert g._generation == gen + 1
        for key in self.DROPPED:
            assert key not in g._cache
        assert g._vcache["sorted_vertices"] is verts

    def test_noop_bumps_nothing(self):
        g = _warmed_skeleton_copy(True)
        before = dict(g._cache)
        vbefore = dict(g._vcache)
        gen = g._generation
        g.add_edges([(0, 1), (1, 2)], weight=2.0)
        g.add_edges([])
        assert g._generation == gen
        assert g._cache.keys() == before.keys()
        assert all(g._cache[k] is v for k, v in before.items())
        assert all(g._vcache[k] is v for k, v in vbefore.items())

    def test_weight_only_keeps_csr(self):
        g = _warmed_skeleton_copy(True)
        csr = g._cache["csr"]
        gen = g._generation
        hash0 = g.content_hash()
        g.add_edges([(0, 1), (2, 3)], weight=5.0)
        assert g._generation == gen
        assert g.csr() is csr
        assert g.content_hash() != hash0
        assert g.edge_weight(2, 3) == 5.0

    def test_self_loop_raises(self):
        g = _warmed_skeleton_copy(True)
        gen = g._generation
        with pytest.raises(GraphError):
            g.add_edges([(0, 2), (3, 3), (1, 3)])
        # the arc before the loop is in, and the caches saw it
        assert g.has_edge(0, 2) and not g.has_edge(1, 3)
        assert g._generation == gen + 1
        assert "csr" not in g._cache

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
            assert bulk.csr().labels == loop.csr().labels

class TestBitGraphSharesCsr:
    """``BitGraph`` reads the CSR's labels, index and neighbour masks
    without copying them, and the vertex weights afresh on every call."""

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
        from repro.solvers._bitmask import BitGraph

        skeleton = self._graph()
        _warm_graph_caches(skeleton)
        before = BitGraph(skeleton).weights
        copy = skeleton.copy()
        copy.set_vertex_weight(3, 9)
        copy.set_vertex_weight(8, 0)
        assert copy.csr() is skeleton.csr()
        bg = BitGraph(copy)
        assert bg.adj is skeleton.csr().masks()
        assert bg.weights[bg.index[3]] == 9
        assert bg.weights[bg.index[8]] == 0
        assert BitGraph(skeleton).weights == before

    def test_node_weighted_family_pairs_see_their_weights(self):
        from repro.core.kmds import scomp, svert
        from repro.core.steiner_approx import NodeWeightedSteinerFamily
        from repro.covering.designs import build_covering_collection
        from repro.solvers._bitmask import BitGraph

        fam = NodeWeightedSteinerFamily(
            build_covering_collection(universe_size=5, T=3, r=1, seed=2))
        for x, y in (((1, 0, 1), (0, 1, 1)), ((0, 0, 0), (1, 1, 1))):
            g = fam.build(x, y)
            assert g.csr() is fam.skeleton().csr()
            bg = BitGraph(g)
            for i in range(3):
                assert bg.weights[bg.index[svert(i)]] == \
                    (1 if x[i] else fam.alpha)
                assert bg.weights[bg.index[scomp(i)]] == \
                    (1 if y[i] else fam.alpha)

    def test_solvers_leave_csr_unchanged(self):
        import inspect

        from repro.solvers import dominating, maxcut, mis, steiner

        g = self._graph()
        csr = g.csr()
        masks = list(csr.masks())
        index = dict(csr.index)
        labels = csr.labels
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
            assert g.csr() is csr
            assert csr.masks() == masks, fn.__name__
            assert csr.index == index, fn.__name__
            assert csr.labels == labels


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
