"""Theorem 2.7 Steiner family tests (Claim 2.8) and Theorem 2.6 checks."""

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
from repro.core.mds import fvert, row, tvert
from repro.core.steiner import SteinerTreeFamily, copy_of
from repro.graphs import Graph
from repro.solvers import is_steiner_tree


@pytest.fixture(scope="module")
def fam():
    return SteinerTreeFamily(4)


class TestConstruction:
    def test_doubles_vertices(self, fam):
        base_n = fam.mds.fixed_graph().n
        assert fam.n_vertices() == 2 * base_n

    def test_identity_edges(self, fam):
        g = fam.build((0,) * 16, (0,) * 16)
        for v in fam.mds.fixed_graph().vertices():
            assert g.has_edge(copy_of(v), v)

    def test_original_edges_rewired(self, fam):
        base = fam.mds.fixed_graph()
        g = fam.build((0,) * 16, (0,) * 16)
        u, v = base.edges()[0]
        assert g.has_edge(copy_of(u), v)
        assert g.has_edge(copy_of(v), u)
        assert not g.has_edge(u, v)  # originals form an independent set

    def test_terminals_independent(self, fam):
        g = fam.build((1,) * 16, (1,) * 16)
        terms = set(fam.terminals())
        for u, v in g.edges():
            assert not (u in terms and v in terms)

    def test_cliques(self, fam):
        g = fam.build((0,) * 16, (0,) * 16)
        va = list(fam.mds.alice_vertices())
        assert g.has_edge(copy_of(va[0]), copy_of(va[1]))

    def test_exactly_two_crossing_edges(self, fam):
        g = fam.build((0,) * 16, (0,) * 16)
        va = fam.mds.alice_vertices()
        crossing = [(u, v) for u, v in g.edges()
                    if isinstance(u, tuple) and u[0] == "copy"
                    and isinstance(v, tuple) and v[0] == "copy"
                    and ((u[1] in va) != (v[1] in va))]
        assert len(crossing) == 2

    def test_definition_1_1(self, fam):
        validate_family(fam)

    def test_cut_logarithmic(self, fam):
        # 2 edges per original cut edge + 2 crossing edges
        assert len(fam.cut_edges()) == 2 * len(fam.mds.cut_edges()) + 2


class TestClaim28:
    def test_iff_sweep(self, fam, rng):
        pairs = random_input_pairs(16, 4, rng)
        report = verify_iff(fam, pairs, negate=True)
        assert report.true_instances and report.false_instances

    def test_witness_tree(self, fam, rng):
        x, y = random_intersecting_pair(16, rng)
        edges = fam.witness_steiner_tree(x, y)
        assert len(edges) == fam.target_edges
        assert is_steiner_tree(fam.build(x, y), edges, fam.terminals())

    def test_disjoint_needs_more(self, fam, rng):
        x, y = random_disjoint_pair(16, rng)
        size = fam.min_steiner_size(fam.build(x, y))
        assert size > fam.target_edges

    def test_min_size_tracks_domination(self, fam, rng):
        """min Steiner = |Term| − 1 + min constrained domination."""
        x, y = random_intersecting_pair(16, rng)
        g = fam.build(x, y)
        size = fam.min_steiner_size(g)
        # intersecting inputs: the MDS family optimum is 4 log k + 2 and
        # the witness uses a crossing pair, so the bound is tight
        assert size == len(fam.terminals()) - 1 + 4 * fam.log_k + 2

    def test_target_formula(self):
        fam8 = SteinerTreeFamily(8)
        assert fam8.target_edges == 4 * 8 + 16 * 3 + 1


def _all_pairs(k_bits):
    bits = list(itertools.product((0, 1), repeat=k_bits))
    return [(x, y) for x in bits for y in bits]


def _doubled_edge(g, u, v):
    """The doubled image (ũ, v), (ṽ, u) of an MDS edge {u, v}."""
    g.add_edge(copy_of(u), v)
    g.add_edge(copy_of(v), u)


class _SkeletonEdge(SteinerTreeFamily):
    """The skeleton also joins s^0_{A1} to s^1_{A1}."""

    def build_skeleton(self):
        g = super().build_skeleton()
        _doubled_edge(g, row("A1", 0), row("A1", 1))
        return g


class _ZeroBitEdge(SteinerTreeFamily):
    """x_0 = 0 also joins s^0_{A1} to s^1_{A1}: a 0-bit adds an edge."""

    def apply_inputs(self, g, x, y):
        super().apply_inputs(g, x, y)
        if not x[0]:
            _doubled_edge(g, row("A1", 0), row("A1", 1))


class _OneBitEdge(SteinerTreeFamily):
    """y_0 = 1 also joins s^0_{B1} to s^1_{B1}, an edge no bit's patch
    adds."""

    def apply_inputs(self, g, x, y):
        super().apply_inputs(g, x, y)
        if y[0]:
            _doubled_edge(g, row("B1", 0), row("B1", 1))


class _SwappedInputs(SteinerTreeFamily):
    """x's edges go to Bob's rows and y's to Alice's."""

    def apply_inputs(self, g, x, y):
        super().apply_inputs(g, y, x)


def _boundary_pairs(k_bits):
    """The k=4 boundary set: the minimal intersecting pairs (x = y =
    e_i), maximal disjoint pairs (y = x̄: every e_i and a seeded eight
    more) and the all-zero pair."""
    def unit(i):
        return tuple(int(j == i) for j in range(k_bits))

    def flip(bits):
        return tuple(1 - b for b in bits)

    rng = random.Random(0x5728)
    pairs = [(unit(i), unit(i)) for i in range(k_bits)]
    pairs += [(unit(i), flip(unit(i))) for i in range(k_bits)]
    for __ in range(8):
        x = tuple(rng.randint(0, 1) for __ in range(k_bits))
        pairs.append((x, flip(x)))
    pairs.append(((0,) * k_bits, (0,) * k_bits))
    return pairs


class TestBatchKernel:
    """The kernel patches the MDS graph's balls per pair and runs the
    case search of ``min_steiner_size``; the family checks its balls
    and cases against built graphs before it hands it out."""

    @pytest.fixture(scope="class")
    def fam2(self):
        return SteinerTreeFamily(2)

    def test_kernel_equals_predicate_and_disj_on_k2_grid(self, fam2):
        kernel = fam2.make_batch_kernel(fam2._skeleton_base())
        assert kernel is not None and kernel.monotone is False
        pairs = _all_pairs(fam2.k_bits)
        assert len(pairs) == 256
        trues = 0
        for x, y in pairs:
            expected = not disjointness(x, y)
            assert kernel.decide(x, y) == expected, (x, y)
            assert fam2.predicate(fam2.build(x, y)) == expected, (x, y)
            trues += expected
        assert trues == 175

    def test_kernel_equals_predicate_and_disj_on_k4_boundary(self, fam):
        kernel = fam.make_batch_kernel(fam._skeleton_base())
        assert kernel is not None
        for x, y in _boundary_pairs(fam.k_bits):
            expected = not disjointness(x, y)
            assert kernel.decide(x, y) == expected, (x, y)
            assert fam.predicate(fam.build(x, y)) == expected, (x, y)

    def test_patched_balls_are_the_built_graphs(self, fam2):
        kernel = fam2.make_batch_kernel(fam2._skeleton_base())
        for x, y in random.Random(7).sample(_all_pairs(fam2.k_bits), 20):
            bg = fam2._base_graph_from(fam2.build(x, y)).bits()
            assert kernel.balls(x, y) == list(bg.ball_masks(1)), (x, y)

    def test_sweep_serves_every_pair_from_the_kernel(self, fam2):
        pairs = _all_pairs(fam2.k_bits)[::5]
        report = sweep(SteinerTreeFamily(2), pairs, memo=False, batch=True)
        assert report.batched == report.solved == len(pairs)
        plain = sweep(SteinerTreeFamily(2), pairs, memo=False, batch=False)
        assert plain.batched == 0
        assert report.decisions == plain.decisions

    def test_other_skeleton_gets_no_kernel(self, fam2):
        skeleton = fam2.skeleton()
        _doubled_edge(skeleton, row("A1", 0), row("A1", 1))
        assert fam2.make_batch_kernel(skeleton) is None

    def test_relabelled_skeleton_gets_no_kernel(self, fam2):
        """Swapping the A1/A2 and B1/B2 vertex names is an automorphism:
        every checked pair's balls match position for position, but the
        crossing pairs' cases sit on other vertices."""
        swap = {"A1": "A2", "A2": "A1", "B1": "B2", "B2": "B1"}

        def renamed(v):
            if v[0] == "copy":
                return copy_of(renamed(v[1]))
            return (v[0], swap[v[1]], v[2])

        base = fam2._skeleton_base()
        skeleton = Graph()
        skeleton.add_vertices([renamed(v) for v in base.vertices()])
        for u, v in base.edges():
            skeleton.add_edge(u, v)
        assert skeleton.vertices() != base.vertices()
        assert fam2.make_batch_kernel(skeleton) is None

    def test_own_skeleton_edge_is_read(self):
        """The kernel reads the skeleton it is given, so a subclass's
        extra skeleton edge is in its balls, as in ``predicate``'s."""
        sub = _SkeletonEdge(2)
        assert sub.make_batch_kernel(sub._skeleton_base()) is not None
        pairs = random.Random(3).sample(_all_pairs(sub.k_bits), 32)
        batched = sub.decide_batch(None, pairs)
        assert batched == {(x, y): sub.predicate(sub.build(x, y))
                           for x, y in pairs}

    @pytest.mark.parametrize("cls", [_ZeroBitEdge, _OneBitEdge,
                                     _SwappedInputs])
    def test_unchecked_delta_takes_per_pair_path(self, cls):
        sub = cls(2)
        assert sub.supports_batch()
        assert sub.make_batch_kernel(sub._skeleton_base()) is None
        pairs = random.Random(cls.__name__).sample(_all_pairs(sub.k_bits),
                                                   24)
        assert sub.decide_batch(None, pairs) is None
        report = sweep(sub, pairs, memo=False, batch=True)
        assert report.batched == 0
        assert report.decisions == [sub.predicate(sub.build(x, y))
                                    for x, y in pairs]

    @pytest.mark.parametrize("cls", [_ZeroBitEdge, _OneBitEdge])
    def test_check_has_teeth(self, cls, fam2):
        """Unchecked, the parent's kernel would answer these wrongly."""
        sub = cls(2)
        kernel = fam2.make_batch_kernel(fam2._skeleton_base())
        assert any(kernel.decide(x, y) != sub.predicate(sub.build(x, y))
                   for x, y in _all_pairs(sub.k_bits))
