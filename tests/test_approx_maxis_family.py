"""Section 4.1 code-gadget family tests (Theorems 4.1-4.3, Lemma 4.1)."""

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
    choose_code_params,
    gadget,
    row,
)
from repro.core.family import validate_family, verify_iff
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
