"""Edge cases of the collect-and-solve pipeline and the simulators."""

import pytest

from repro.congest.algorithms.collect import run_collect_and_solve, run_universal_exact
from repro.congest.algorithms import run_maxcut_sampling
from repro.congest.model import CongestSimulator, NodeAlgorithm
from repro.graphs import Graph, complete_graph, cycle_graph, path_graph
from repro.solvers import cut_weight


class TestCollectEdgeCases:
    def _count_solver(self, n, edge_records, vertex_records):
        return len(edge_records), {u: u for u in range(n)}

    def test_two_vertices(self):
        g = path_graph(2)
        outputs, sim = run_collect_and_solve(g, self._count_solver)
        assert all(o["global"] == 1 for o in outputs.values())

    def test_star(self):
        g = Graph()
        for leaf in range(5):
            g.add_edge("c", leaf)
        outputs, sim = run_collect_and_solve(g, self._count_solver)
        assert all(o["global"] == 5 for o in outputs.values())

    def test_every_vertex_gets_its_own_value(self):
        g = cycle_graph(7)
        outputs, sim = run_collect_and_solve(g, self._count_solver)
        for label, o in outputs.items():
            assert o["value"] == sim.uid_of[label]

    def test_edge_filter_drops_everything(self):
        g = cycle_graph(5)
        outputs, sim = run_collect_and_solve(
            g, self._count_solver, edge_filter=lambda u, v, rng: False)
        assert all(o["global"] == 0 for o in outputs.values())

    def test_vertex_weights_uploaded(self):
        g = path_graph(3)
        for i, v in enumerate(g.vertices()):
            g.set_vertex_weight(v, i + 10)

        def solver(n, edge_records, vertex_records):
            return sorted(w for __, w in vertex_records), {}

        outputs, __ = run_collect_and_solve(g, solver,
                                            include_vertex_weights=True)
        assert next(iter(outputs.values()))["global"] == [10, 11, 12]

    def test_weighted_edges_uploaded(self):
        g = path_graph(3)
        g.set_edge_weight(0, 1, 7)
        g.set_edge_weight(1, 2, 9)

        def solver(n, edge_records, vertex_records):
            return sorted(w for __, ___, w in edge_records), {}

        outputs, __ = run_collect_and_solve(g, solver)
        assert next(iter(outputs.values()))["global"] == [7, 9]

    def test_deterministic_given_seed(self):
        g = complete_graph(6)
        r1 = run_maxcut_sampling(g, p=0.5, seed=3)
        r2 = run_maxcut_sampling(g, p=0.5, seed=3)
        assert r1.sides == r2.sides
        assert r1.sampled_edges == r2.sampled_edges

    def test_local_search_fallback_for_big_samples(self):
        """With exact_limit = 0 the leader must fall back to local
        search and still return a valid cut."""
        g = complete_graph(8)
        res = run_maxcut_sampling(g, p=1.0, seed=2, exact_limit=0)
        side = [v for v, s in res.sides.items() if s]
        assert cut_weight(g, side) >= g.m / 2


class TestSimulatorAccounting:
    def test_total_bits_accumulate(self):
        class Ping(NodeAlgorithm):
            def on_start(self, ctx):
                return {w: 1 for w in ctx.neighbors}

            def on_round(self, ctx, messages):
                ctx.halt(len(messages))
                return {}

        g = cycle_graph(5)
        sim = CongestSimulator(g)
        outputs = sim.run(Ping)
        assert sim.total_messages == 10  # 2 per vertex in round 0
        assert sim.total_bits == 20      # each int 1 costs 2 bits
        assert all(v == 2 for v in outputs.values())

    def test_message_events_and_cut_counters_see_all_messages(self):
        from repro.obs import RecordingTracer

        class Ping(NodeAlgorithm):
            def on_start(self, ctx):
                return {w: 1 for w in ctx.neighbors}

            def on_round(self, ctx, messages):
                ctx.halt()
                return {}

        # the middle vertex alone on Alice's side: every edge is cut
        g = path_graph(3)
        rec = RecordingTracer()
        traced = CongestSimulator(g, tracer=rec, cut={1})
        traced.run(Ping)
        assert len(rec.events_of("message")) == traced.total_messages == 4
        untraced = CongestSimulator(g, cut={1})
        untraced.run(Ping)
        for sim in (traced, untraced):
            assert sim.cut_messages == sim.total_messages == 4
            assert sim.cut_bits == sim.total_bits
            assert sim.delivery_cut_messages == sim.cut_messages
            assert sim.delivery_cut_bits == sim.cut_bits


class TestBandwidthCounterSemantics:
    """Documented in CongestSimulator._check: on BandwidthExceeded the
    counters include every message checked so far — the offender
    included — and exclude the rest of the rejected batch."""

    def test_counters_include_offender(self):
        from repro.congest.model import BandwidthExceeded, message_bits

        big = 2 ** 40  # 42 bits
        small = 1      # 2 bits

        class Talker(NodeAlgorithm):
            def on_start(self, ctx):
                if ctx.uid == 0:
                    # dict order is delivery-check order: small first
                    return {1: small, 2: big}
                return {}

            def on_round(self, ctx, messages):
                ctx.halt()
                return {}

        g = Graph()
        g.add_edge(0, 1)
        g.add_edge(0, 2)
        sim = CongestSimulator(g, bandwidth=8)
        with pytest.raises(BandwidthExceeded):
            sim.run(Talker)
        assert sim.total_messages == 2  # small + the offending big one
        assert sim.total_bits == message_bits(small) + message_bits(big)
        assert sim.max_message_bits == message_bits(big)

    def test_sending_to_non_neighbor_rejected(self):
        class Rogue(NodeAlgorithm):
            def on_start(self, ctx):
                far = (ctx.uid + 2) % ctx.n
                return {far: 1}

            def on_round(self, ctx, messages):
                ctx.halt()
                return {}

        with pytest.raises(ValueError, match="non-neighbor"):
            CongestSimulator(path_graph(4)).run(Rogue)


class _Shout(NodeAlgorithm):
    """Every vertex floods ``1`` at start, then the max uid sends an
    oversized payload to its first neighbour in round 1."""

    def on_start(self, ctx):
        return {w: 1 for w in ctx.neighbors}

    def on_round(self, ctx, messages):
        if ctx.uid == ctx.n - 1:
            return {ctx.neighbors[0]: 2 ** 40}  # 42 bits
        ctx.halt()
        return {}


class TestCutCounters:
    """``CongestSimulator(cut=...)`` counts Theorem 1.1 traffic inside
    the message check, on both loops, traced or untraced."""

    ENGINES = ("fast", "reference")

    def _sim(self, g, traced, **kw):
        from repro.obs import NullTracer, RecordingTracer

        tracer = RecordingTracer() if traced else NullTracer()
        return CongestSimulator(g, tracer=tracer, **kw)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_reused_simulator_resets_cut_counters(self, engine):
        from repro.congest.algorithms.basic import FloodMinId

        sim = CongestSimulator(path_graph(4), cut={0, 1})
        sim.run(FloodMinId, engine=engine)
        first = (sim.cut_bits, sim.cut_messages,
                 dict(sim.cut_bits_by_round), sim.delivery_cut_bits,
                 sim.delivery_cut_messages)
        assert first[0] > 0 and first[1] > 0
        sim.run(FloodMinId, engine=engine)
        assert (sim.cut_bits, sim.cut_messages,
                dict(sim.cut_bits_by_round), sim.delivery_cut_bits,
                sim.delivery_cut_messages) == first

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("traced", (False, True))
    def test_partial_counts_on_bandwidth_exceeded(self, engine, traced):
        from repro.congest.model import BandwidthExceeded, message_bits

        # uids 0-1-2-3 on a path, Alice = {2, 3}: the flood crosses the
        # cut edge 1-2 once each way, then uid 3's oversized message to
        # uid 2 stays on Alice's side: counted in the totals, not the cut
        g = path_graph(4)
        sim = self._sim(g, traced, bandwidth=8, cut={2, 3})
        with pytest.raises(BandwidthExceeded):
            sim.run(_Shout, engine=engine)
        assert sim.total_messages == 7
        assert (sim.cut_bits, sim.cut_messages) == (4, 2)
        assert sim.cut_bits_by_round == {0: 4}

        # Alice = {3}: the offending message crosses the cut, and the
        # partial counts include it, in the round it was sent
        sim = self._sim(g, traced, bandwidth=8, cut={3})
        with pytest.raises(BandwidthExceeded):
            sim.run(_Shout, engine=engine)
        big = message_bits(2 ** 40)
        assert (sim.cut_bits, sim.cut_messages) == (4 + big, 3)
        assert sim.cut_bits_by_round == {0: 4, 1: big}

    @pytest.mark.parametrize("engine", ENGINES)
    def test_undelivered_outbox_reaches_delivery_side(self, engine):
        class Farewell(NodeAlgorithm):
            # every vertex sends once and halts in the same round, so
            # nothing it sends is ever delivered
            def on_round(self, ctx, messages):
                ctx.halt()
                return {w: ctx.uid for w in ctx.neighbors}

        sim = CongestSimulator(path_graph(4), cut={0, 1})
        sim.run(Farewell, engine=engine)
        # uid 1 sends 1 (2 bits) and uid 2 sends 2 (3 bits) across 1-2
        assert (sim.cut_bits, sim.cut_messages) == (5, 2)
        assert sim.cut_bits_by_round == {1: 5}
        assert (sim.delivery_cut_bits, sim.delivery_cut_messages) == (5, 2)

    def test_cut_uids_validated(self):
        with pytest.raises(ValueError, match="outside"):
            CongestSimulator(path_graph(3), cut={0, 3})

    def test_no_cut_counts_nothing(self):
        from repro.congest.algorithms.basic import FloodMinId

        sim = CongestSimulator(path_graph(4))
        sim.run(FloodMinId)
        assert sim.cut is None
        assert (sim.cut_bits, sim.cut_messages, sim.cut_bits_by_round) \
            == (0, 0, {})


class TestTwoPartyBandwidth:
    """simulate_two_party must honour the caller's bandwidth choice."""

    def _factory(self):
        class Ping(NodeAlgorithm):
            def on_start(self, ctx):
                return {w: 2 ** 40 for w in ctx.neighbors}  # 42-bit payload

            def on_round(self, ctx, messages):
                ctx.halt(len(messages))
                return {}

        return Ping

    def test_local_model_allows_big_messages(self):
        import math

        from repro.cc.alice_bob import simulate_two_party

        g = path_graph(4)
        result = simulate_two_party(g, [0, 1], self._factory(),
                                    bandwidth=math.inf)
        assert result.bandwidth == math.inf
        assert result.cut_messages == 2  # one each way over the cut edge

    def test_custom_bandwidth_enforced(self):
        from repro.cc.alice_bob import simulate_two_party
        from repro.congest.model import BandwidthExceeded

        g = path_graph(4)
        with pytest.raises(BandwidthExceeded):
            simulate_two_party(g, [0, 1], self._factory(), bandwidth=8)

    def test_default_is_congest_bandwidth(self):
        from repro.cc.alice_bob import simulate_two_party
        from repro.congest.model import default_bandwidth

        class Quiet(NodeAlgorithm):
            def on_start(self, ctx):
                return {w: 1 for w in ctx.neighbors}

            def on_round(self, ctx, messages):
                ctx.halt()
                return {}

        g = path_graph(4)
        result = simulate_two_party(g, [0, 1], Quiet,
                                    bandwidth_factor=16)
        assert result.bandwidth == default_bandwidth(4, 16)

    def test_caller_tracer_receives_events_alongside_counter(self):
        from repro.cc.alice_bob import simulate_two_party
        from repro.obs import RecordingTracer

        class Quiet(NodeAlgorithm):
            def on_start(self, ctx):
                return {w: 1 for w in ctx.neighbors}

            def on_round(self, ctx, messages):
                ctx.halt()
                return {}

        tracer = RecordingTracer()
        result = simulate_two_party(path_graph(4), [0, 1], Quiet,
                                    tracer=tracer)
        kinds = {e.kind for e in tracer.events}
        assert "message" in kinds and "run_end" in kinds
        # the cut accounting cross-check ran (send vs delivery side)
        assert result.cut_bits == sum(result.cut_bits_by_round.values())
