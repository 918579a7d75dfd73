"""Sections 4.2-4.3 k-MDS family tests (Theorems 4.4-4.5)."""

import itertools
import random

import pytest

from repro.cc.functions import (
    disjointness,
    random_disjoint_pair,
    random_input_pairs,
    random_intersecting_pair,
)
from repro.core.family import sweep, validate_family, verify_iff
from repro.core.kmds import (
    A_SPECIAL,
    B_SPECIAL,
    R_SPECIAL,
    KMdsFamily,
    avert,
    bvert,
    scomp,
    svert,
)
from repro.covering.designs import build_covering_collection
from repro.solvers.batch_kernels import WeightedDominationBatchKernel
from repro.solvers.dominating import _SetCoverSolver


@pytest.fixture(scope="module")
def collection():
    return build_covering_collection(universe_size=16, T=6, r=2, seed=0)


@pytest.fixture(scope="module")
def fam(collection):
    return KMdsFamily(collection, k=2)


class TestConstruction:
    def test_element_pairs(self, fam):
        g = fam.fixed_graph()
        for j in range(fam.ell):
            assert g.has_edge(avert(j), bvert(j))

    def test_set_membership_edges(self, fam, collection):
        g = fam.fixed_graph()
        for i in range(collection.T):
            for j in range(fam.ell):
                in_set = j in collection.sets[i]
                assert g.has_edge(svert(i), avert(j)) == in_set
                assert g.has_edge(scomp(i), bvert(j)) == (not in_set)

    def test_specials(self, fam, collection):
        g = fam.fixed_graph()
        assert g.vertex_weight(R_SPECIAL) == 0
        assert g.vertex_weight(A_SPECIAL) == fam.alpha
        for i in range(collection.T):
            assert g.has_edge(A_SPECIAL, svert(i))
            assert g.has_edge(B_SPECIAL, scomp(i))

    def test_input_weights(self, fam, rng):
        x, y = random_input_pairs(fam.k_bits, 1, rng)[0]
        g = fam.build(x, y)
        for i in range(fam.k_bits):
            assert g.vertex_weight(svert(i)) == (1 if x[i] else fam.alpha)
            assert g.vertex_weight(scomp(i)) == (1 if y[i] else fam.alpha)

    def test_definition_1_1(self, fam):
        validate_family(fam)

    def test_cut_is_theta_ell(self, fam):
        assert len(fam.cut_edges()) == fam.ell + 1

    def test_alpha_must_exceed_r(self, collection):
        with pytest.raises(ValueError):
            KMdsFamily(collection, k=2, alpha=collection.r)

    def test_k_must_be_at_least_two(self, collection):
        with pytest.raises(ValueError):
            KMdsFamily(collection, k=1)


class TestLemma43:
    def test_iff_sweep(self, fam, rng):
        report = verify_iff(fam, random_input_pairs(fam.k_bits, 6, rng),
                            negate=True)
        assert report.true_instances and report.false_instances

    def test_gap(self, fam, rng):
        x, y = random_intersecting_pair(fam.k_bits, rng)
        assert fam.optimum(fam.build(x, y)) == 2
        x, y = random_disjoint_pair(fam.k_bits, rng)
        assert fam.optimum(fam.build(x, y)) > fam.no_weight_exceeds

    def test_gap_ratio(self, fam):
        assert fam.gap_ratio() == fam.collection.r / 2


class TestKGreaterThanTwo:
    def test_paths_subdivided(self, collection):
        fam3 = KMdsFamily(collection, k=3)
        g = fam3.fixed_graph()
        # no direct S_i - a_j edges anymore
        for i in range(collection.T):
            for j in range(fam3.ell):
                assert not g.has_edge(svert(i), avert(j))
        path_vertices = [v for v in g.vertices()
                         if isinstance(v, tuple) and v[0] == "path"]
        assert path_vertices

    def test_lemma_44(self, collection, rng):
        fam3 = KMdsFamily(collection, k=3)
        validate_family(fam3)
        x, y = random_intersecting_pair(collection.T, rng)
        assert fam3.optimum(fam3.build(x, y)) == 2
        x, y = random_disjoint_pair(collection.T, rng)
        assert fam3.optimum(fam3.build(x, y)) > collection.r

    def test_iff_sweep_k3(self, collection, rng):
        fam3 = KMdsFamily(collection, k=3)
        report = verify_iff(fam3, random_input_pairs(collection.T, 4, rng),
                            negate=True)
        assert report.checked == 4


class _EdgeDelta(KMdsFamily):
    """Joins a to b when x_0 = 1: the deltas are no longer weight-only."""

    def apply_inputs(self, g, x, y):
        super().apply_inputs(g, x, y)
        if x[0]:
            g.add_edge(A_SPECIAL, B_SPECIAL)


class _HeavierOnes(KMdsFamily):
    """A 1-bit makes S_i / S̄_i cost 2, not 1."""

    def apply_inputs(self, g, x, y):
        for i in range(self.collection.T):
            g.set_vertex_weight(svert(i), 2 if x[i] else self.alpha)
            g.set_vertex_weight(scomp(i), 2 if y[i] else self.alpha)


class _SwappedSides(KMdsFamily):
    """S_i follows y_i and S̄_i follows x_i."""

    def apply_inputs(self, g, x, y):
        super().apply_inputs(g, y, x)


def _all_pairs(k_bits):
    bits = list(itertools.product((0, 1), repeat=k_bits))
    return [(x, y) for x in bits for y in bits]


class TestBatchKernel:
    """The kernel shares one set-cover index over every pair, which is
    sound only for weight-only deltas with the kernel's weights; the
    family checks both before it hands out a kernel."""

    def test_decisions_equal_fresh_solver_on_every_pair(self, fam):
        kernel = fam.make_batch_kernel(fam._skeleton_base())
        assert kernel is not None
        bg = fam._skeleton_base().bits()
        balls = bg.ball_masks(fam.k)
        pairs = _all_pairs(fam.k_bits)
        assert len(pairs) == 4096
        for x, y in pairs:
            g = fam.build(x, y)
            sets = [(ball, float(g.vertex_weight(v)), i)
                    for i, (ball, v) in enumerate(zip(balls, bg.vertices))]
            __, choice = _SetCoverSolver(bg.n, sets).solve(
                fam.yes_weight + 0.5)
            assert kernel.decide(x, y) == (choice is not None), (x, y)

    def test_other_skeleton_gets_no_kernel(self, fam):
        skeleton = fam.skeleton()
        skeleton.add_vertex(("test", "extra"))
        assert fam.make_batch_kernel(skeleton) is None

    @pytest.mark.parametrize("cls", [_EdgeDelta, _HeavierOnes,
                                     _SwappedSides])
    def test_unchecked_delta_takes_per_pair_path(self, cls, collection):
        sub = cls(collection, k=2)
        assert sub.supports_batch()
        assert sub.make_batch_kernel(sub._skeleton_base()) is None
        T = collection.T
        pairs = [((0,) * T, (0,) * T), ((1,) * T, (1,) * T),
                 ((1,) * T, (0,) * T)]
        pairs += random.Random(cls.__name__).sample(_all_pairs(T), 24)
        assert sub.decide_batch(None, pairs) is None
        report = sweep(sub, pairs, memo=False, batch=True)
        assert report.batched == 0
        assert report.decisions == [sub.predicate(sub.build(x, y))
                                    for x, y in pairs]

    def test_check_has_teeth(self, collection):
        """Unchecked, a kernel would answer _HeavierOnes wrongly."""
        sub = _HeavierOnes(collection, k=2)
        T = collection.T
        kernel = WeightedDominationBatchKernel(
            sub._skeleton_base(), [svert(i) for i in range(T)],
            [scomp(i) for i in range(T)], alpha=sub.alpha, k=2,
            yes_weight=sub.yes_weight)
        ones = (1,) * T
        assert kernel.decide(ones, ones)
        assert not sub.predicate(sub.build(ones, ones))
