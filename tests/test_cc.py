"""Communication-complexity substrate tests (Sections 1.3-1.4, 5.2)."""

import random

import pytest

from repro.cc import (
    DISJ,
    EQ,
    Channel,
    NondeterministicProtocol,
    all_inputs,
    disjointness,
    equality,
    gamma,
    implied_round_lower_bound,
    random_disjoint_pair,
    random_input_pairs,
    random_intersecting_pair,
    run_protocol,
    simulate_two_party,
)
from repro.congest.algorithms.basic import FloodMinId
from repro.core.mds import MdsFamily


class TestFunctions:
    def test_disjointness_basics(self):
        assert disjointness((0, 1, 0), (1, 0, 0))
        assert not disjointness((0, 1), (1, 1))
        assert disjointness((), ())

    def test_disjointness_length_mismatch(self):
        with pytest.raises(ValueError):
            disjointness((0,), (0, 1))

    def test_equality(self):
        assert equality((1, 0), (1, 0))
        assert not equality((1, 0), (0, 1))

    def test_random_disjoint_pairs(self, rng):
        for __ in range(20):
            x, y = random_disjoint_pair(12, rng)
            assert disjointness(x, y)

    def test_random_intersecting_pairs(self, rng):
        for __ in range(20):
            x, y = random_intersecting_pair(12, rng)
            assert not disjointness(x, y)

    def test_balanced_pairs(self, rng):
        pairs = random_input_pairs(10, 8, rng)
        answers = [disjointness(x, y) for x, y in pairs]
        assert answers.count(True) == 4

    def test_all_inputs(self):
        assert len(list(all_inputs(3))) == 8

    def test_complexity_facts(self):
        assert DISJ.cc(64) == 64
        assert DISJ.ccn(64) == 64
        assert DISJ.ccn_complement(64) == 6
        assert EQ.ccr(1024) == 10


class TestChannel:
    def test_counts_bits(self):
        ch = Channel()
        ch.a_to_b(7)   # 4 bits
        ch.b_to_a(1)   # 2 bits
        assert ch.messages == 2
        assert ch.bits == 6

    def test_returns_value(self):
        ch = Channel()
        assert ch.a_to_b("hello") == "hello"

    def test_run_protocol(self):
        def proto(x, y, channel):
            sx = channel.a_to_b(sum(x))
            return sx + sum(y)

        res = run_protocol(proto, (1, 1), (1, 0))
        assert res.output == 3
        assert res.messages == 1


class TestGamma:
    def test_disj_gamma_constant(self):
        assert gamma(DISJ, 64) == 1.0
        assert gamma(DISJ, 4096) == 1.0

    def test_eq_gamma_constant(self):
        assert gamma(EQ, 64) == 1.0


class TestTwoPartySimulation:
    def test_budget_respected(self, rng):
        fam = MdsFamily(4)
        x, y = random_input_pairs(16, 2, rng)[0]
        g = fam.build(x, y)
        sim = simulate_two_party(g, fam.alice_vertices(), FloodMinId)
        assert sim.within_budget
        assert sim.cut_bits > 0
        assert sim.ecut_size == len(fam.cut_edges())

    def test_collect_and_solve_cut_bits_pinned(self):
        # Theorem 1.1 accounting of a pipelined collect-and-solve run,
        # pinned to the values the trace-level CutBitCounter recorded
        # before the simulator counted the cut itself
        from repro.congest.algorithms.collect import CollectAndSolve

        fam = MdsFamily(2)
        g = fam.build((0, 1, 0, 1), (0, 0, 1, 1))

        def solver(n, edge_records, vertex_records):
            return len(edge_records), {u: u % 3 == 0 for u in range(n)}

        sim = simulate_two_party(g, fam.alice_vertices(),
                                 lambda: CollectAndSolve(solver))
        assert (sim.rounds, sim.cut_bits, sim.cut_messages,
                sim.ecut_size) == (79, 1275, 82, 4)
        assert sim.cut_bits_by_round == {
            0: 73, 1: 29, 2: 13, 3: 13, 4: 12, 5: 12, 20: 7, 22: 9, 23: 9,
            24: 20, 25: 10, 40: 16, 41: 9, 42: 36, 43: 35, 44: 35, 45: 36,
            46: 33, 47: 33, 48: 34, 49: 35, 50: 35, 51: 33, 52: 33, 53: 34,
            54: 9, 55: 13, 56: 14, 57: 14, 58: 15, 59: 28, 60: 29, 61: 29,
            62: 31, 63: 31, 64: 31, 65: 31, 66: 32, 67: 32, 68: 32, 69: 32,
            70: 33, 71: 33, 72: 33, 73: 33, 74: 31, 75: 17, 76: 17, 77: 17,
            78: 14}
        assert list(sim.cut_bits_by_round) == sorted(sim.cut_bits_by_round)

    def test_rejects_trivial_partition(self, rng):
        fam = MdsFamily(4)
        x, y = random_input_pairs(16, 2, rng)[0]
        g = fam.build(x, y)
        with pytest.raises(ValueError):
            simulate_two_party(g, set(g.vertices()), FloodMinId)

    def test_implied_bound_formula(self):
        # CC = 1024 bits, |Ecut| = 8, n = 256: 1024/(2·8·8) = 8 rounds
        assert implied_round_lower_bound(1024, 8, 256) == 8.0

    def test_implied_bound_rejects_empty_cut(self):
        with pytest.raises(ValueError):
            implied_round_lower_bound(10, 0, 4)


class TestNondeterministic:
    def test_completeness_and_soundness(self):
        # toy: verify x == y via a fingerprint certificate
        def prover(x, y):
            return sum(x), sum(y)

        def verifier(x, ca, y, cb, channel):
            channel.a_to_b(ca)
            return ca == sum(x) and cb == sum(y) and ca == cb and tuple(x) == tuple(y)

        proto = NondeterministicProtocol("eq-toy", prover, verifier)
        proto.check_completeness((1, 0), (1, 0))
        proto.check_soundness((1, 0), (0, 1),
                              [(a, b) for a in range(3) for b in range(3)])

    def test_soundness_catches_bad_verifier(self):
        proto = NondeterministicProtocol(
            "always-accept", lambda x, y: (0, 0),
            lambda x, ca, y, cb, ch: True)
        with pytest.raises(AssertionError):
            proto.check_soundness((1,), (1,), [(0, 0)])
