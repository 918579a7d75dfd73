"""Section 4.4 Steiner approximation family tests (Theorems 4.6-4.7)."""

import hashlib

import pytest

from repro.cc.functions import (
    random_disjoint_pair,
    random_input_pairs,
    random_intersecting_pair,
)
from repro.core.family import DeltaBuildMixin, sweep, validate_family, verify_iff
from repro.core.kmds import A_SPECIAL, R_SPECIAL, avert, bvert, scomp, svert
from repro.core.steiner_approx import DirectedSteinerFamily, NodeWeightedSteinerFamily
from repro.covering.designs import build_covering_collection
from repro.graphs import DiGraph
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
    """The kernel reads each pair's cover masks from its bits; the
    decision after that is the one ``predicate`` makes."""

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
        fallbacks take the cover search's float path."""
        fam = DirectedSteinerFamily(collection, alpha=alpha)
        pairs = _k2_grid()
        batched = fam.decide_batch(None, pairs)
        assert len(batched) == len(pairs)
        trues = 0
        for x, y in pairs:
            expected = fam.predicate(fam.build(x, y))
            assert batched[(x, y)] == expected, (x, y)
            trues += expected
        assert trues == 3367

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
