"""Section 4.4 Steiner approximation family tests (Theorems 4.6-4.7)."""

import dataclasses
import hashlib

import pytest

from repro.cc.functions import (
    disjointness,
    random_disjoint_pair,
    random_input_pairs,
    random_intersecting_pair,
)
from repro.core.family import DeltaBuildMixin, sweep, validate_family, verify_iff
from repro.core.kmds import A_SPECIAL, R_SPECIAL, avert, bvert, scomp, svert
from repro.core.steiner_approx import DirectedSteinerFamily, NodeWeightedSteinerFamily
from repro.covering.designs import build_covering_collection
from repro.graphs import DiGraph
from repro.solvers._bitmask import vertex_weights
from repro.solvers.steiner import min_directed_steiner_reachability_cost


@pytest.fixture(scope="module")
def collection():
    return build_covering_collection(universe_size=16, T=6, r=2, seed=0)


def _k2_grid():
    def bits(v):
        return tuple((v >> (5 - i)) & 1 for i in range(6))

    return [(bits(p >> 6), bits(p & 63)) for p in range(4096)]


class TestNodeWeighted:
    @pytest.fixture(scope="class")
    def fam(self, collection):
        return NodeWeightedSteinerFamily(collection)

    def test_terminals_free(self, fam, rng):
        g = fam.build(*random_input_pairs(fam.k_bits, 1, rng)[0])
        for t in fam.terminals():
            assert g.vertex_weight(t) == 0

    def test_definition_1_1(self, fam):
        validate_family(fam)

    def test_iff_sweep(self, fam, rng):
        report = verify_iff(fam, random_input_pairs(fam.k_bits, 6, rng),
                            negate=True)
        assert report.true_instances and report.false_instances

    def test_lemma_45_gap(self, fam, rng):
        x, y = random_intersecting_pair(fam.k_bits, rng)
        assert fam.optimum(fam.build(x, y)) == 2
        x, y = random_disjoint_pair(fam.k_bits, rng)
        assert fam.optimum(fam.build(x, y)) > fam.collection.r


class TestNodeWeightedBatchKernel:
    """The kernel looks each pair's 2T weights up in a table of the
    vertex sets that connect the terminals; ``predicate`` runs the
    capped scan."""

    @pytest.mark.parametrize("alpha", [None, 1.5, 5])
    def test_decide_batch_matches_predicate_on_k2_grid(self, collection,
                                                       alpha):
        """α = 3 (the default r + 1), α = 1.5, whose 0-bit sets fit under
        the threshold of 2, and α = 5: kernel ≡ predicate ≡ ¬DISJ."""
        fam = NodeWeightedSteinerFamily(collection, alpha=alpha)
        pairs = _k2_grid()
        batched = fam.decide_batch(None, pairs)
        assert len(batched) == len(pairs)
        kernel = fam.make_batch_kernel(fam.skeleton())
        trues = 0
        for x, y in pairs:
            graph = fam.build(x, y)
            assert kernel.weights(x, y) == vertex_weights(graph), (x, y)
            expected = fam.predicate(graph)
            assert batched[(x, y)] == expected, (x, y)
            assert expected == (not disjointness(x, y)), (x, y)
            trues += expected
        assert trues == 3367

    def test_table_is_the_complementary_pairs(self, collection):
        fam = NodeWeightedSteinerFamily(collection)
        kernel = fam.make_batch_kernel(fam.skeleton())
        vertices = fam.skeleton().bits().vertices
        table = {frozenset(vertices[kernel.paid[c]] for c in subset)
                 for subset in kernel.table}
        assert len(kernel.table) == fam.k_bits
        assert table == {frozenset((svert(i), scomp(i)))
                         for i in range(fam.k_bits)}

    def test_capped_predicate_matches_optimum(self, collection):
        """The scan capped at 2 decides exactly ``optimum <= 2``."""
        fam = NodeWeightedSteinerFamily(collection, alpha=1.5)
        for x, y in _k2_grid()[::16]:
            graph = fam.build(x, y)
            assert fam.predicate(graph) == (fam.optimum(graph) <= 2), (x, y)

    def test_sweep_serves_every_pair_from_the_kernel(self, collection, rng):
        fam = NodeWeightedSteinerFamily(collection)
        pairs = random_input_pairs(fam.k_bits, 40, rng)
        report = sweep(fam, pairs, memo=False, batch=True)
        assert report.solved and report.batched == report.solved
        plain = sweep(fam, pairs, memo=False, batch=False)
        assert plain.batched == 0
        assert report.decisions == plain.decisions

    def test_decide_batch_builds_no_graph(self, collection, monkeypatch):
        fam = NodeWeightedSteinerFamily(collection)
        # the kernel's own check builds three graphs, up front
        assert fam._batch_kernel_for(fam._skeleton_base()) is not None
        calls = []
        real = DeltaBuildMixin.build

        def build(self, *args):
            calls.append(None)
            return real(self, *args)

        monkeypatch.setattr(DeltaBuildMixin, "build", build)
        assert len(fam.decide_batch(None, _k2_grid()[:64])) == 64
        assert calls == []

    @pytest.mark.parametrize("sub", [
        pytest.param(lambda cc: _ExtraEdge(cc), id="extra-edge"),
        pytest.param(lambda cc: _SwappedWeights(cc), id="swapped-weights"),
    ])
    def test_other_delta_gets_no_kernel(self, collection, sub):
        sub = sub(collection)
        assert sub.supports_batch()
        assert sub.make_batch_kernel(sub.skeleton()) is None
        pairs = _k2_grid()[::97]
        assert sub.decide_batch(None, pairs) is None
        report = sweep(sub, pairs, memo=False, batch=True)
        assert report.batched == 0
        assert report.decisions == [sub.predicate(sub.build(x, y))
                                    for x, y in pairs]


class _ExtraEdge(NodeWeightedSteinerFamily):
    """x_0 = 1 also joins S_0 to b_0: no longer a weight-only delta."""

    def apply_inputs(self, g, x, y):
        super().apply_inputs(g, x, y)
        if x[0]:
            g.add_edge(svert(0), bvert(0))


class _SwappedWeights(NodeWeightedSteinerFamily):
    """x re-weights the S̄_i and y the S_i: still weight-only, but not
    the weights the kernel sets."""

    def apply_inputs(self, g, x, y):
        super().apply_inputs(g, y, x)


class TestDirected:
    @pytest.fixture(scope="class")
    def fam(self, collection):
        return DirectedSteinerFamily(collection)

    def test_edge_weights(self, fam):
        g = fam.fixed_graph()
        assert g.edge_weight(R_SPECIAL, A_SPECIAL) == 0
        assert g.edge_weight(A_SPECIAL, svert(0)) == 1
        assert g.edge_weight(A_SPECIAL, avert(0)) == fam.alpha

    def test_input_toggles_set_edges(self, fam, rng):
        x = tuple(1 if i == 0 else 0 for i in range(fam.k_bits))
        y = tuple([0] * fam.k_bits)
        g = fam.build(x, y)
        cc = fam.collection
        j_in = next(iter(cc.sets[0]))
        assert g.has_edge(svert(0), avert(j_in))
        # a zero bit leaves the set vertex dangling
        if fam.k_bits > 1:
            j1 = next(iter(cc.sets[1]))
            assert not g.has_edge(svert(1), avert(j1))

    def test_definition_1_1(self, fam):
        validate_family(fam)

    def test_iff_sweep(self, fam, rng):
        report = verify_iff(fam, random_input_pairs(fam.k_bits, 6, rng),
                            negate=True)
        assert report.true_instances and report.false_instances

    def test_lemma_46_gap(self, fam, rng):
        x, y = random_intersecting_pair(fam.k_bits, rng)
        assert fam.optimum(fam.build(x, y)) == 2
        x, y = random_disjoint_pair(fam.k_bits, rng)
        assert fam.optimum(fam.build(x, y)) > fam.collection.r

    def test_k2_family_pinned(self, fam):
        """Every 8th pair of the k=2 Theorem 4.7 grid, hashed: the
        optimum (value and repr) the has_edge cover reading gave before
        the cover was read from successor sets."""
        def bits(v):
            return tuple((v >> (5 - i)) & 1 for i in range(6))

        optima = [repr(fam.optimum(fam.build(bits(p >> 6), bits(p & 63))))
                  for p in range(0, 4096, 8)]
        digest = hashlib.sha256(",".join(optima).encode()).hexdigest()
        assert digest == ("e21b3f126011a8df6c2b1986b55479e5"
                          "2b909db646a7d1d47c8f99de1675423e")

    def test_predicate_matches_optimum_on_k2_grid(self, fam):
        """The threshold decision (search budget 3) equals the exact
        optimum's ``<= 2`` on every pair of the k=2 grid."""
        def bits(v):
            return tuple((v >> (5 - i)) & 1 for i in range(6))

        trues = 0
        for p in range(4096):
            g = fam.build(bits(p >> 6), bits(p & 63))
            decision = fam.predicate(g)
            assert decision == (fam.optimum(g) <= 2), p
            trues += decision
        assert trues == 3367

    @pytest.mark.parametrize("alpha", [1.5, 2.5, 4])
    def test_predicate_threshold_any_alpha(self, alpha):
        """With α = 1.5 four pairs of this grid cost 2.5: below the
        search budget of 3 but above the threshold of 2."""
        small = build_covering_collection(universe_size=5, T=3, r=1, seed=2)
        fam = DirectedSteinerFamily(small, alpha=alpha)
        for p in range(64):
            x = tuple((p >> (5 - i)) & 1 for i in range(3))
            y = tuple((p >> (2 - i)) & 1 for i in range(3))
            g = fam.build(x, y)
            assert fam.predicate(g) == (fam.optimum(g) <= 2), (x, y)

    def test_structured_matches_generic(self, rng):
        """Cross-validate the set-cover optimum against brute-force
        reachability enumeration on a tiny collection."""
        small = build_covering_collection(universe_size=5, T=3, r=1, seed=2)
        fam = DirectedSteinerFamily(small)
        for x, y in random_input_pairs(3, 4, rng):
            g = fam.build(x, y)
            assert fam.optimum(g) == min_directed_steiner_reachability_cost(
                g, R_SPECIAL, fam.terminals())


class TestDirectedBatchKernel:
    """The kernel looks each pair's bits up in a table of the subsets
    of at most two sets that cover the universe; ``predicate`` runs the
    set-cover search."""

    @pytest.fixture(scope="class")
    def fam(self, collection):
        return DirectedSteinerFamily(collection)

    def test_masks_match_built_graph_on_k2_grid(self, fam):
        kernel = fam.make_batch_kernel(fam.skeleton())
        for x, y in _k2_grid():
            assert kernel.masks(x, y) == fam._graph_masks(fam.build(x, y)), \
                (x, y)

    @pytest.mark.parametrize("alpha", [None, 1.5])
    def test_decide_batch_matches_predicate_on_k2_grid(self, collection,
                                                       alpha):
        """α = 3 (the default r + 1) and α = 1.5, whose non-integral
        fallbacks take the cover search's float path: kernel ≡
        predicate ≡ ¬DISJ."""
        fam = DirectedSteinerFamily(collection, alpha=alpha)
        pairs = _k2_grid()
        batched = fam.decide_batch(None, pairs)
        assert len(batched) == len(pairs)
        trues = 0
        for x, y in pairs:
            expected = fam.predicate(fam.build(x, y))
            assert batched[(x, y)] == expected, (x, y)
            assert expected == (not disjointness(x, y)), (x, y)
            trues += expected
        assert trues == 3367

    def test_table_is_the_complementary_pairs(self, fam):
        """Sets 2i and 2i + 1 are S_i and S̄_i; no fallback is tabled,
        as no set misses a single element."""
        kernel = fam.make_batch_kernel(fam.skeleton())
        assert kernel.table == [(2 * i, 2 * i + 1)
                                for i in range(fam.k_bits)]

    def test_not_monotone(self, fam):
        assert fam.make_batch_kernel(fam.skeleton()).monotone is False

    def test_sweep_serves_every_pair_from_the_kernel(self, collection, rng):
        fam = DirectedSteinerFamily(collection)
        pairs = random_input_pairs(fam.k_bits, 40, rng)
        report = sweep(fam, pairs, memo=False, batch=True)
        assert report.solved and report.batched == report.solved
        plain = sweep(fam, pairs, memo=False, batch=False)
        assert plain.batched == 0
        assert report.decisions == plain.decisions

    def test_sweep_through_lanes_counts_kernel_pairs(self, collection):
        """Pairs decided in warm-pool or cold lanes count as batched, as
        they do on the serial path."""
        from repro.experiments import warm_pool
        from repro.experiments.sweep import parallel_decisions

        pairs = _k2_grid()[::8]
        warm_pool.shutdown_pool()
        try:
            report = sweep(DirectedSteinerFamily(collection), pairs,
                           jobs=2, memo=False)
        finally:
            warm_pool.shutdown_pool()
        assert report.solved == 512
        assert report.batched == report.solved
        counters = {"batched": 0}
        cold = parallel_decisions(DirectedSteinerFamily(collection), pairs,
                                  2, counters=counters)
        assert cold == report.decisions
        assert counters["batched"] == 512

    def test_decide_batch_builds_no_graph(self, collection, monkeypatch):
        fam = DirectedSteinerFamily(collection)
        fam.skeleton()  # the cached skeleton is built once, up front
        calls = []

        def spy(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(DeltaBuildMixin, "build",
                            spy("build", DeltaBuildMixin.build))
        monkeypatch.setattr(DiGraph, "copy", spy("copy", DiGraph.copy))
        batched = fam.decide_batch(None, _k2_grid()[:64])
        assert len(batched) == 64
        assert calls == []

    def test_one_cover_index_for_the_grid(self, collection, monkeypatch):
        """The kernel reads its table once; a pair builds no cover."""
        from repro.solvers import dominating

        fam = DirectedSteinerFamily(collection)
        kernel = fam.make_batch_kernel(fam.skeleton())
        built = []
        real = dominating._SetCoverSolver.__init__

        def spy(self, *args, **kwargs):
            built.append(None)
            real(self, *args, **kwargs)

        monkeypatch.setattr(dominating._SetCoverSolver, "__init__", spy)
        for x, y in _k2_grid()[:64]:
            kernel.decide(x, y)
        assert built == []

    def test_nonempty_zero_bit_mask_gets_no_kernel(self, collection):
        sub = _SkeletonArc(collection)
        assert sub.supports_batch()
        assert sub.make_batch_kernel(sub.skeleton()) is None
        pairs = _k2_grid()[::97]
        assert sub.decide_batch(None, pairs) is None
        report = sweep(sub, pairs, memo=False, batch=True)
        assert report.batched == 0
        assert report.decisions == [sub.predicate(sub.build(x, y))
                                    for x, y in pairs]


class _SkeletonArc(DirectedSteinerFamily):
    """The skeleton also holds the arc (S_0, a_j) for every element j
    outside S_0, so S_0 covers all of them with x_0 = 0 too."""

    def build_skeleton(self):
        g = super().build_skeleton()
        for j in range(self.ell):
            if j not in self.collection.sets[0]:
                g.add_edge(svert(0), avert(j), weight=0)
        return g


def _faulty(collection):
    """A copy of ``collection`` whose S_1 also holds every element
    outside S_0, so the non-complementary pair {S_0, S_1} covers the
    universe: Lemma 4.2's r-covering property fails."""
    universe = frozenset(range(collection.universe_size))
    sets = list(collection.sets)
    sets[1] = sets[1] | (universe - sets[0])
    return dataclasses.replace(collection, sets=tuple(sets))


@pytest.mark.parametrize("cls", [NodeWeightedSteinerFamily,
                                 DirectedSteinerFamily])
class TestCertificateTables:
    """The tables are read from the skeleton, not assumed from Lemma
    4.2: where the construction breaks, the kernel follows the graph."""

    def test_construction_fault_follows_the_graph(self, collection, cls):
        fam = cls(_faulty(collection))
        kernel = fam.make_batch_kernel(fam.skeleton())
        assert kernel is not None
        assert len(kernel.table) > fam.k_bits
        pairs = _k2_grid()
        batched = fam.decide_batch(None, pairs)
        wrong = set()
        for x, y in pairs:
            assert batched[(x, y)] == fam.predicate(fam.build(x, y)), (x, y)
            if batched[(x, y)] != (not disjointness(x, y)):
                wrong.add((x, y))
        # every disjoint pair that buys S_0 and S_1 has a tree of weight
        # 2, and no other pair is decided against DISJ's way
        affected = {(x, y) for x, y in pairs
                    if x[0] and x[1] and disjointness(x, y)}
        assert affected and affected <= wrong
        assert all(batched[p] and disjointness(*p) for p in wrong)

    @pytest.mark.parametrize("alpha", [0.5, 0.75])
    def test_alpha_below_one_gets_no_kernel(self, collection, cls, alpha):
        """Three sets of weight α < 1 can fit under 2, past what the
        table holds."""
        fam = cls(collection, alpha=alpha)
        assert fam.supports_batch()
        assert fam.make_batch_kernel(fam.skeleton()) is None
        pairs = _k2_grid()[::97]
        report = sweep(fam, pairs, memo=False, batch=True)
        assert report.batched == 0
        plain = sweep(cls(collection, alpha=alpha), pairs, memo=False,
                      batch=False)
        assert report.decisions == plain.decisions
        assert report.decisions == [fam.predicate(fam.build(x, y))
                                    for x, y in pairs]


class _FreeOneBits(NodeWeightedSteinerFamily):
    """A 1-bit makes its set vertex free: the paid set changes with the
    pair."""

    def apply_inputs(self, g, x, y):
        super().apply_inputs(g, x, y)
        for i in range(self.collection.T):
            if x[i]:
                g.set_vertex_weight(svert(i), 0)
            if y[i]:
                g.set_vertex_weight(scomp(i), 0)


def test_zero_weight_one_bits_get_no_kernel(collection):
    sub = _FreeOneBits(collection)
    assert sub.supports_batch()
    assert sub.make_batch_kernel(sub.skeleton()) is None
    pairs = _k2_grid()[::97]
    report = sweep(sub, pairs, memo=False, batch=True)
    assert report.batched == 0
    assert report.decisions == [sub.predicate(sub.build(x, y))
                                for x, y in pairs]


def test_k16_boundary_through_predicate_and_kernel():
    """K = 16 (ℓ = 32): the capped scan's refusal comes from the cap, so
    the 32 paid vertices are scanned.  The 16 minimal intersecting
    pairs, the all-zero pair and a maximal disjoint pair."""
    fam = NodeWeightedSteinerFamily(
        build_covering_collection(32, T=16, r=2, seed=0))
    K = fam.k_bits
    assert K == 16
    kernel = fam.make_batch_kernel(fam.skeleton())
    assert kernel is not None and len(kernel.table) == K

    def unit(i):
        return tuple(int(j == i) for j in range(K))

    half = tuple(i % 2 for i in range(K))
    pairs = [(unit(i), unit(i)) for i in range(K)]
    pairs += [((0,) * K, (0,) * K), (half, tuple(1 - b for b in half))]
    for x, y in pairs:
        expected = not disjointness(x, y)
        assert fam.predicate(fam.build(x, y)) == expected, (x, y)
        assert kernel.decide(x, y) == expected, (x, y)
