"""Section 4.1 code-gadget family tests (Theorems 4.1-4.3, Lemma 4.1)."""

import random

import pytest

from repro.cc.functions import (
    disjointness,
    random_disjoint_pair,
    random_input_pairs,
    random_intersecting_pair,
)
from repro.core.approx_maxis import (
    LinearApproxMaxISFamily,
    UnweightedApproxMaxISFamily,
    WeightedApproxMaxISFamily,
    batch_row,
    choose_code_params,
    gadget,
    row,
)
from repro.core.family import DeltaBuildMixin, sweep, validate_family, verify_iff
from repro.graphs import Graph
from repro.solvers import max_independent_set, max_independent_set_weight


@pytest.fixture(scope="module")
def fam():
    return WeightedApproxMaxISFamily(2)


class TestParameters:
    def test_q_prime_and_large_enough(self):
        for k in (2, 4, 8):
            ell, t, q = choose_code_params(k)
            from repro.codes.gf import is_prime

            assert is_prime(q)
            assert q == ell + t + 1
            assert q ** t >= k

    def test_code_distance(self, fam):
        from repro.codes import hamming_distance

        words = fam.codewords
        for i in range(len(words)):
            for j in range(i + 1, len(words)):
                assert hamming_distance(words[i], words[j]) >= fam.ell


class TestWeightedConstruction:
    def test_row_weights(self, fam):
        g = fam.fixed_graph()
        assert g.vertex_weight(row("A1", 0)) == fam.ell
        assert g.vertex_weight(gadget("A1", 0, 0)) == 1

    def test_gadget_columns_are_cliques(self, fam):
        g = fam.fixed_graph()
        assert g.has_edge(gadget("A1", 0, 0), gadget("A1", 0, 1))

    def test_bipartite_minus_matching(self, fam):
        g = fam.fixed_graph()
        assert g.has_edge(gadget("A1", 0, 0), gadget("B1", 0, 1))
        assert not g.has_edge(gadget("A1", 0, 0), gadget("B1", 0, 0))

    def test_row_adjacent_to_non_codeword(self, fam):
        g = fam.fixed_graph()
        word = fam.codewords[0]
        for j in range(fam.n_coords):
            for alpha in range(fam.q):
                assert g.has_edge(row("A1", 0), gadget("A1", j, alpha)) == \
                    (alpha != word[j])

    def test_definition_1_1(self, fam):
        validate_family(fam)

    def test_gap_ratio_approaches_seven_eighths(self):
        r2 = WeightedApproxMaxISFamily(2).gap_ratio()
        r16 = WeightedApproxMaxISFamily(16).gap_ratio()
        assert r2 > 7 / 8
        assert abs(r16 - 7 / 8) < abs(r2 - 7 / 8)


class TestLemma41:
    def test_iff_sweep(self, fam, rng):
        report = verify_iff(fam, random_input_pairs(4, 6, rng), negate=True)
        assert report.true_instances and report.false_instances

    def test_structured_matches_generic(self, fam, rng):
        for x, y in random_input_pairs(4, 4, rng):
            g = fam.build(x, y)
            assert fam.structured_max_weight(g) == \
                max_independent_set_weight(g)

    def test_gap_values_exact(self, fam, rng):
        x, y = random_intersecting_pair(4, rng)
        assert fam.structured_max_weight(fam.build(x, y)) == fam.alpha_yes
        x, y = random_disjoint_pair(4, rng)
        assert fam.structured_max_weight(fam.build(x, y)) <= fam.alpha_no

    def test_alpha_no_ceiling_attained(self, fam):
        """A disjoint pair with a 1-entry hits exactly 7ℓ + 4t (the
        "sacrifice one row" optimum of Lemma 4.1)."""
        x = [0] * fam.k_bits
        x[0] = 1
        y = tuple([0] * fam.k_bits)
        assert fam.structured_max_weight(
            fam.build(tuple(x), y)) == fam.alpha_no

    def test_dense_zero_inputs_fall_below_ceiling(self, fam):
        zeros = tuple([0] * fam.k_bits)
        value = fam.structured_max_weight(fam.build(zeros, zeros))
        assert value < fam.alpha_no

    def test_k4_gap(self, rng):
        fam4 = WeightedApproxMaxISFamily(4)
        x, y = random_intersecting_pair(16, rng)
        assert fam4.structured_max_weight(fam4.build(x, y)) == fam4.alpha_yes
        x, y = random_disjoint_pair(16, rng)
        assert fam4.structured_max_weight(fam4.build(x, y)) <= fam4.alpha_no


class TestUnweightedVariant:
    def test_batches_are_twins(self, rng):
        fam = UnweightedApproxMaxISFamily(2)
        g = fam.build(*random_input_pairs(4, 1, rng)[0])
        from repro.core.approx_maxis import batch_row

        b0 = batch_row("A1", 0, 0)
        for xi in range(1, fam.ell):
            assert g.neighbors(b0) - {batch_row("A1", 0, xi)} == \
                g.neighbors(batch_row("A1", 0, xi)) - {b0}

    def test_iff_and_generic_crosscheck(self, rng):
        fam = UnweightedApproxMaxISFamily(2)
        validate_family(fam)
        pairs = random_input_pairs(4, 4, rng)
        report = verify_iff(fam, pairs, negate=True)
        for x, y in pairs[:2]:
            g = fam.build(x, y)
            assert len(max_independent_set(g)) == \
                fam.structured_max_weight(g)

    def test_all_weights_unit(self, rng):
        fam = UnweightedApproxMaxISFamily(2)
        g = fam.build(*random_input_pairs(4, 1, rng)[0])
        assert all(g.vertex_weight(v) == 1 for v in g.vertices())


class TestLinearVariant:
    @pytest.fixture(scope="class")
    def lfam(self):
        return LinearApproxMaxISFamily(4)

    def test_k_bits_is_k(self, lfam):
        assert lfam.k_bits == 4  # reduces from DISJ_k, not DISJ_{k²}

    def test_definition_1_1(self, lfam):
        validate_family(lfam)

    def test_iff_sweep(self, lfam, rng):
        report = verify_iff(lfam, random_input_pairs(4, 6, rng), negate=True)
        assert report.true_instances and report.false_instances

    def test_structured_matches_generic(self, lfam, rng):
        for x, y in random_input_pairs(4, 3, rng):
            g = lfam.build(x, y)
            assert lfam.structured_max_weight(g) == \
                max_independent_set_weight(g)

    def test_gap_ratio_five_sixths(self, lfam):
        assert lfam.gap_ratio() > 5 / 6
        assert lfam.alpha_yes - lfam.alpha_no == lfam.ell


def _all_pairs(k_bits):
    def bits(v):
        return tuple((v >> (k_bits - 1 - i)) & 1 for i in range(k_bits))

    return [(bits(p >> k_bits), bits(p & ((1 << k_bits) - 1)))
            for p in range(1 << (2 * k_bits))]


def _boundary_pairs(k_bits):
    """The k=4 boundary set: the minimal intersecting pairs (x = y =
    e_i), maximal disjoint pairs (y = x̄: every e_i and a seeded eight
    more) and the all-zero pair."""
    def unit(i):
        return tuple(int(j == i) for j in range(k_bits))

    def flip(bits):
        return tuple(1 - b for b in bits)

    rng = random.Random(0x4131)
    pairs = [(unit(i), unit(i)) for i in range(k_bits)]
    pairs += [(unit(i), flip(unit(i))) for i in range(k_bits)]
    for __ in range(8):
        x = tuple(rng.randint(0, 1) for __ in range(k_bits))
        pairs.append((x, flip(x)))
    pairs.append(((0,) * k_bits, (0,) * k_bits))
    return pairs


FAMILIES = [
    pytest.param(WeightedApproxMaxISFamily, id="weighted"),
    pytest.param(UnweightedApproxMaxISFamily, id="unweighted"),
    pytest.param(LinearApproxMaxISFamily, id="linear"),
]


class TestBatchKernel:
    """The kernel runs the structured solver on the input bits, read as
    the free row pairs; the family checks that reading against built
    graphs before it hands the kernel out."""

    @pytest.mark.parametrize("cls", FAMILIES)
    def test_kernel_equals_predicate_on_k2_grid(self, cls):
        fam = cls(2)
        kernel = fam.make_batch_kernel(fam._skeleton_base())
        assert kernel is not None and kernel.monotone is False
        pairs = _all_pairs(fam.k_bits)
        trues = 0
        for x, y in pairs:
            graph = fam.build(x, y)
            assert fam.free_rows(graph) == (x, y)
            expected = fam.predicate(graph)
            assert kernel.decide(x, y) == expected, (x, y)
            assert expected == (not disjointness(x, y)), (x, y)
            trues += expected
        assert trues == {4: 175, 2: 7}[fam.k_bits]

    @pytest.mark.parametrize("cls", FAMILIES[:2])
    def test_kernel_equals_predicate_and_disj_on_k4_boundary(self, cls):
        fam = cls(4)
        assert fam.k_bits == 16
        kernel = fam.make_batch_kernel(fam._skeleton_base())
        assert kernel is not None
        for x, y in _boundary_pairs(fam.k_bits):
            expected = not disjointness(x, y)
            assert kernel.decide(x, y) == expected, (x, y)
            assert fam.predicate(fam.build(x, y)) == expected, (x, y)

    def test_column_values_are_computed_once(self):
        fam = WeightedApproxMaxISFamily(2)
        table = fam.column_values()
        assert fam.column_values() is table
        # no row on a side leaves every column its two symbols: 2 each
        assert table[fam.k][0] == table[0][fam.k] == 2 * fam.n_coords

    @pytest.mark.parametrize("cls", FAMILIES)
    def test_sweep_serves_every_pair_from_the_kernel(self, cls):
        pairs = _all_pairs(cls(2).k_bits)[::3]
        report = sweep(cls(2), pairs, memo=False, batch=True)
        assert report.solved and report.batched == report.solved
        plain = sweep(cls(2), pairs, memo=False, batch=False)
        assert plain.batched == 0
        assert report.decisions == plain.decisions

    @pytest.mark.parametrize("cls", FAMILIES)
    def test_decide_batch_builds_no_graph(self, cls, monkeypatch):
        fam = cls(2)
        # the kernel's own check builds three graphs, up front
        assert fam._batch_kernel_for(fam._skeleton_base()) is not None
        calls = []
        real_build = DeltaBuildMixin.build
        real_copy = Graph.copy

        def build(self, *args):
            calls.append("build")
            return real_build(self, *args)

        def copy(self):
            calls.append("copy")
            return real_copy(self)

        monkeypatch.setattr(DeltaBuildMixin, "build", build)
        monkeypatch.setattr(Graph, "copy", copy)
        batched = fam.decide_batch(None, _all_pairs(fam.k_bits)[:16])
        assert len(batched) == 16
        assert calls == []

    @pytest.mark.parametrize("sub", [
        pytest.param(lambda: _ExtraRowEdge(2), id="weighted"),
        pytest.param(lambda: _ExtraTwinEdge(2), id="unweighted"),
        pytest.param(lambda: _ExtraBatchEdge(2), id="linear"),
    ])
    def test_extra_input_edge_gets_no_kernel(self, sub):
        fam = sub()
        assert fam.supports_batch()
        assert fam.make_batch_kernel(fam.skeleton()) is None
        pairs = _all_pairs(fam.k_bits)[::7]
        assert fam.decide_batch(None, pairs) is None
        report = sweep(fam, pairs, memo=False, batch=True)
        assert report.batched == 0
        assert report.decisions == [fam.predicate(fam.build(x, y))
                                    for x, y in pairs]


class _ExtraRowEdge(WeightedApproxMaxISFamily):
    """Rows A1^0 and A2^1 are joined whatever x_{0,1} is."""

    def apply_inputs(self, g, x, y):
        super().apply_inputs(g, x, y)
        g.add_edge(row("A1", 0), row("A2", 1))


class _ExtraTwinEdge(UnweightedApproxMaxISFamily):
    """The batch representatives of B1^1 and B2^0 are joined whatever
    y_{1,0} is."""

    def apply_inputs(self, g, x, y):
        super().apply_inputs(g, x, y)
        g.add_edge(batch_row("B1", 1, 0), batch_row("B2", 0, 0))


class _ExtraBatchEdge(LinearApproxMaxISFamily):
    """v_A's batch is joined to A2^0 whatever x_0 is."""

    def apply_inputs(self, g, x, y):
        super().apply_inputs(g, x, y)
        g.add_edge(("batch", self.V_A, 0), row("A2", 0))
