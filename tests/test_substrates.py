"""Expander gadgets (Claim 3.2), Reed-Solomon codes (§4.1), and covering
collections (Lemma 4.2)."""

from itertools import combinations

import pytest

from repro.codes import PrimeField, ReedSolomonCode, hamming_distance
from repro.codes.gf import is_prime, next_prime
from repro.covering import (
    CoveringCollection,
    build_covering_collection,
    has_r_covering_property,
)
from repro.expanders import (
    build_gadget,
    certified_cubic_expander,
    spectral_expansion,
    verify_cut_property_exact,
)


class TestPrimeField:
    def test_is_prime(self):
        assert [n for n in range(2, 20) if is_prime(n)] == \
            [2, 3, 5, 7, 11, 13, 17, 19]

    def test_next_prime(self):
        assert next_prime(8) == 11
        assert next_prime(11) == 11

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            PrimeField(9)

    def test_field_axioms_spot(self):
        f = PrimeField(7)
        for a in range(1, 7):
            assert f.mul(a, f.inv(a)) == 1
        assert f.add(5, 4) == 2
        assert f.sub(2, 5) == 4

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            PrimeField(5).inv(0)

    def test_poly_eval(self):
        f = PrimeField(5)
        # 1 + 2x + 3x² at x=2: 1+4+12 = 17 = 2 mod 5
        assert f.eval_poly([1, 2, 3], 2) == 2


class TestReedSolomon:
    def test_parameters(self):
        rs = ReedSolomonCode(PrimeField(11), n=8, k=3)
        assert rs.distance == 6
        assert rs.size == 11 ** 3

    def test_field_too_small(self):
        with pytest.raises(ValueError):
            ReedSolomonCode(PrimeField(5), n=5, k=2)

    def test_distance_is_exact(self):
        rs = ReedSolomonCode(PrimeField(7), n=6, k=2)
        words = [rs.encode_int(i) for i in range(rs.size)]
        mind = min(hamming_distance(a, b)
                   for a, b in combinations(words, 2))
        assert mind == rs.distance

    def test_encode_int_distinct(self):
        rs = ReedSolomonCode(PrimeField(5), n=4, k=2)
        words = {rs.encode_int(i) for i in range(rs.size)}
        assert len(words) == rs.size

    def test_encode_int_range(self):
        rs = ReedSolomonCode(PrimeField(5), n=4, k=1)
        with pytest.raises(ValueError):
            rs.encode_int(5)

    def test_message_length_checked(self):
        rs = ReedSolomonCode(PrimeField(5), n=4, k=2)
        with pytest.raises(ValueError):
            rs.encode([1])


class TestExpanders:
    def test_certified_expansion_positive(self):
        g, c = certified_cubic_expander(12, min_expansion=0.05, seed=0)
        assert c >= 0.05
        assert g.is_connected()
        assert all(g.degree(v) == 3 for v in g.vertices())

    def test_seeded_expander_pinned(self):
        # the graph networkx 3.x's random_regular_graph(3, 12, seed=0)
        # gives, and its certificate to the last bit
        g, c = certified_cubic_expander(12, seed=0)
        assert g.content_hash() == ("81fea2c60a1d762a60f50afdf0a5654f"
                                    "14d447ca63622baff180b676af553f2c")
        assert c == 0.16666666666666666

    def test_cycle_is_a_bad_expander(self):
        from repro.graphs import cycle_graph

        g = cycle_graph(20)
        assert spectral_expansion(g, degree=2) < 0.05

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            certified_cubic_expander(7)


class TestGadget:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7])
    def test_gadget_properties(self, d):
        g = build_gadget(d, seed=1)
        assert g.d == d
        assert g.graph.max_degree() <= 4
        assert all(g.graph.degree(v) <= 2 for v in g.distinguished)
        if d >= 2:
            assert g.graph.is_connected()

    @pytest.mark.parametrize("d", [2, 3, 5, 6])
    def test_cut_property_exact(self, d):
        g = build_gadget(d, seed=1)
        assert verify_cut_property_exact(g)

    def test_cut_property_catches_violation(self):
        # two distinguished vertices joined by a path: the cut property
        # holds; but two ISOLATED distinguished vertices violate it
        from repro.expanders.gadget import ExpanderGadget
        from repro.graphs import Graph

        g = Graph()
        g.add_vertex(("D", 0))
        g.add_vertex(("D", 1))
        gadget = ExpanderGadget(graph=g,
                                distinguished=[("D", 0), ("D", 1)])
        assert not verify_cut_property_exact(gadget)

    def test_diameter_logarithmic(self):
        import math

        for d in (4, 8):
            g = build_gadget(d, seed=1)
            assert g.graph.diameter() <= 6 * max(1, math.log2(d)) + 6

    def test_invalid_d(self):
        with pytest.raises(ValueError):
            build_gadget(0)


class TestCoveringCollections:
    def test_build_and_verify(self):
        cc = build_covering_collection(universe_size=16, T=6, r=2, seed=0)
        assert cc.T == 6
        assert has_r_covering_property(cc.universe_size, cc.sets, cc.r)

    def test_no_empty_or_full_sets(self):
        cc = build_covering_collection(universe_size=16, T=6, r=2, seed=0)
        universe = frozenset(range(16))
        for s in cc.sets:
            assert s and s != universe

    def test_complement(self):
        cc = build_covering_collection(universe_size=16, T=6, r=2, seed=0)
        assert cc.complement(0) == frozenset(range(16)) - cc.sets[0]

    def test_property_rejects_bad_collection(self):
        # S0 ∪ S1 covers everything with r = 2
        sets = [frozenset({0, 1}), frozenset({2, 3})]
        assert not has_r_covering_property(4, sets, 2)

    def test_property_ignores_complementary_pairs(self):
        # S0 ∪ S̄0 always covers; the property must skip that pair
        sets = [frozenset({0})]
        assert has_r_covering_property(2, sets, 2)

    def test_infeasible_regime_raises(self):
        with pytest.raises(RuntimeError):
            # way outside the Lemma 4.2 regime
            build_covering_collection(universe_size=3, T=20, r=3,
                                      seed=0, max_tries=5)

    def test_r3_collection(self):
        cc = build_covering_collection(universe_size=40, T=8, r=3, seed=0)
        assert has_r_covering_property(cc.universe_size, cc.sets, 3)
