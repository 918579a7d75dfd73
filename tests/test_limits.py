"""Section 5 limitation-protocol tests (Claims 5.1-5.9, 5.11)."""

import math

import pytest

from repro.cc.protocol import Channel
from repro.core.maxcut import MaxCutFamily
from repro.core.mds import MdsFamily
from repro.cc.functions import random_input_pairs
from repro.graphs import random_graph
from repro.limits import (
    PartitionedInstance,
    max_flow_at_least_protocol,
    max_flow_less_than_protocol,
    maxcut_unweighted_protocol,
    maxcut_weighted_two_thirds_protocol,
    maxis_bounded_degree_protocol,
    maxis_half_protocol,
    mds_bounded_degree_protocol,
    mds_two_approx_protocol,
    mvc_bounded_degree_protocol,
    mvc_ptas_protocol,
    mvc_three_halves_protocol,
)
from repro.solvers import (
    cut_weight,
    is_dominating_set,
    is_independent_set,
    is_vertex_cover,
    max_cut_value,
    max_flow,
    max_independent_set,
    max_independent_set_weight,
    min_dominating_set,
    min_dominating_set_weight,
    min_vertex_cover_size,
)


def random_partitioned(n, p, rng):
    g = random_graph(n, p, rng)
    vs = g.vertices()
    return PartitionedInstance(graph=g, alice=set(vs[: n // 2]))


class TestPartitionedInstance:
    def test_cut_edges(self, rng):
        inst = random_partitioned(8, 0.5, rng)
        for u, v in inst.cut_edges():
            assert (u in inst.alice) != (v in inst.alice)

    def test_sides_partition(self, rng):
        inst = random_partitioned(8, 0.5, rng)
        assert inst.alice | inst.bob == set(inst.graph.vertices())
        assert not inst.alice & inst.bob


class TestBoundedDegreeProtocols:
    @pytest.mark.parametrize("epsilon", [0.3, 0.6])
    def test_mvc_ratio_and_validity(self, rng, epsilon):
        for __ in range(3):
            inst = random_partitioned(10, 0.3, rng)
            ch = Channel()
            cover = mvc_bounded_degree_protocol(inst, epsilon, ch)
            assert is_vertex_cover(inst.graph, cover)
            opt = min_vertex_cover_size(inst.graph)
            assert len(set(cover)) <= (1 + epsilon) * opt + 1e-9
            assert ch.bits > 0

    def test_mds_ratio_and_validity(self, rng):
        for __ in range(3):
            inst = random_partitioned(10, 0.3, rng)
            ch = Channel()
            ds = mds_bounded_degree_protocol(inst, 0.5, ch)
            assert is_dominating_set(inst.graph, ds)
            opt = len(min_dominating_set(inst.graph))
            assert len(set(ds)) <= (1 + 0.5) * opt + len(inst.cut_vertices())

    def test_maxis_validity(self, rng):
        for __ in range(3):
            inst = random_partitioned(10, 0.3, rng)
            ch = Channel()
            mis = maxis_bounded_degree_protocol(inst, 0.5, ch)
            assert is_independent_set(inst.graph, set(mis))


class TestMaxCutProtocols:
    def test_unweighted_ratio(self, rng):
        for __ in range(3):
            inst = random_partitioned(10, 0.4, rng)
            if inst.graph.m == 0:
                continue
            ch = Channel()
            side = maxcut_unweighted_protocol(inst, 0.5, ch)
            assert cut_weight(inst.graph, side) >= \
                0.5 * max_cut_value(inst.graph)

    def test_weighted_two_thirds(self, rng):
        for __ in range(4):
            inst = random_partitioned(10, 0.45, rng)
            if inst.graph.m == 0:
                continue
            for u, v in inst.graph.edges():
                inst.graph.set_edge_weight(u, v, rng.randint(1, 9))
            ch = Channel()
            side = maxcut_weighted_two_thirds_protocol(inst, ch)
            assert cut_weight(inst.graph, side) >= \
                (2 / 3) * max_cut_value(inst.graph) - 1e-9

    def test_two_thirds_bits_scale_with_cut(self, rng):
        """O(|Ecut| log n) — checked on a family instance with small cut."""
        fam = MaxCutFamily(2)
        x, y = random_input_pairs(4, 2, rng)[1]
        g = fam.build(x, y)
        inst = PartitionedInstance(graph=g, alice=fam.alice_vertices())
        ch = Channel()
        maxcut_weighted_two_thirds_protocol(inst, ch)
        ecut = len(inst.cut_edges())
        logn = math.log2(g.n)
        assert ch.bits <= 64 * (ecut + 4) * logn


class TestCoverProtocols:
    def test_mvc_three_halves(self, rng):
        for __ in range(3):
            inst = random_partitioned(10, 0.4, rng)
            ch = Channel()
            cover = mvc_three_halves_protocol(inst, ch)
            assert is_vertex_cover(inst.graph, cover)
            assert len(set(cover)) <= \
                1.5 * min_vertex_cover_size(inst.graph) + 1e-9

    def test_protocol_limits_row_independent_of_hash_seed(self):
        # the experiment row (mvc_3/2_ratio included) must not depend on
        # set iteration order; run it under two PYTHONHASHSEED values
        import os
        import subprocess
        import sys

        script = (
            "from repro.experiments import run_experiment\n"
            "print(run_experiment('E-C5.4-C5.9-protocol-limits').as_row())\n"
        )
        src = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "src"))
        rows = []
        for seed in ("0", "203"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH", "")) if p)
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True)
            rows.append(proc.stdout)
        assert "mvc_3/2_ratio=1.083" in rows[0]
        assert rows[0] == rows[1]

    def test_mvc_ptas(self, rng):
        for eps in (0.4, 1.0):
            inst = random_partitioned(10, 0.35, rng)
            ch = Channel()
            cover = mvc_ptas_protocol(inst, eps, ch)
            assert is_vertex_cover(inst.graph, cover)
            opt = min_vertex_cover_size(inst.graph)
            assert len(set(cover)) <= (1 + eps) * opt + 1e-9

    def test_mds_two_approx_weighted(self, rng):
        for __ in range(3):
            inst = random_partitioned(9, 0.4, rng)
            for v in inst.graph.vertices():
                inst.graph.set_vertex_weight(v, rng.randint(1, 5))
            ch = Channel()
            ds = mds_two_approx_protocol(inst, ch)
            assert is_dominating_set(inst.graph, ds)
            w = sum(inst.graph.vertex_weight(v) for v in set(ds))
            assert w <= 2 * min_dominating_set_weight(inst.graph) + 1e-9

    def test_maxis_half(self, rng):
        for __ in range(3):
            inst = random_partitioned(10, 0.4, rng)
            ch = Channel()
            mis = maxis_half_protocol(inst, ch)
            assert is_independent_set(inst.graph, mis)
            assert len(mis) >= len(max_independent_set(inst.graph)) / 2
            # O(log n) bits only
            assert ch.messages == 2


class TestFlowNdProtocols:
    def _instance(self, rng):
        from tests.conftest import connected_random_graph

        g = connected_random_graph(8, 0.45, rng)
        for u, v in g.edges():
            g.set_edge_weight(u, v, rng.randint(1, 5))
        vs = g.vertices()
        return PartitionedInstance(graph=g, alice=set(vs[:4])), vs[0], vs[-1]

    def test_at_least_complete(self, rng):
        inst, s, t = self._instance(rng)
        mf, __ = max_flow(inst.graph, s, t)
        proto = max_flow_at_least_protocol(inst, s, t, mf)
        proto.check_completeness(None, None)

    def test_at_least_sound_against_overclaim(self, rng):
        inst, s, t = self._instance(rng)
        mf, flow = max_flow(inst.graph, s, t)
        proto = max_flow_at_least_protocol(inst, s, t, mf + 1)
        # the honest max-flow certificate cannot prove mf + 1
        honest = proto.prover(None, None)
        ch = Channel()
        assert not proto.verifier(None, honest[0], None, honest[1], ch)

    def test_less_than_complete(self, rng):
        inst, s, t = self._instance(rng)
        mf, __ = max_flow(inst.graph, s, t)
        proto = max_flow_less_than_protocol(inst, s, t, mf + 1)
        proto.check_completeness(None, None)

    def test_less_than_sound_against_underclaim(self, rng):
        inst, s, t = self._instance(rng)
        mf, __ = max_flow(inst.graph, s, t)
        proto = max_flow_less_than_protocol(inst, s, t, mf)
        honest = proto.prover(None, None)
        ch = Channel()
        assert not proto.verifier(None, honest[0], None, honest[1], ch)

    def test_conservation_checked(self, rng):
        inst, s, t = self._instance(rng)
        proto = max_flow_at_least_protocol(inst, s, t, 1)
        # a certificate violating conservation is rejected
        bad_arc = next(iter(inst.graph.edges()))
        cert = {(bad_arc[0], bad_arc[1]): 1.0}
        ch = Channel()
        assert not proto.verifier(None, cert, None, cert, ch) or \
            bad_arc[0] in (s, t) and bad_arc[1] in (s, t)
