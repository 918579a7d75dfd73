"""``NodeContext.sleep``: the fast loop skips sleeping vertices, the
reference loop calls them anyway and checks that they do nothing.

Every behaviour is run on both loops, traced and untraced, and the two
loops must agree on outputs, counters and the event stream.  Only
``node_rounds`` differs: the reference loop calls every live vertex.
"""

import pytest

from repro.check.engine_check import check_engine_equivalence
from repro.congest.model import CongestSimulator, NodeAlgorithm
from repro.graphs import path_graph

ENGINES = ("fast", "reference")


def _run(graph, factory, engine, traced, max_rounds=100):
    from repro.obs import NullTracer, RecordingTracer

    tracer = RecordingTracer() if traced else NullTracer()
    sim = CongestSimulator(graph, tracer=tracer)
    outputs = error = None
    try:
        outputs = sim.run(factory, max_rounds=max_rounds, engine=engine)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    return {
        "outputs": outputs,
        "error": error,
        "counters": (sim.rounds, sim.total_messages, sim.total_bits,
                     sim.max_message_bits),
        "events": list(tracer.events) if traced else None,
        "node_rounds": sim.node_rounds,
    }


def _both(graph, factory, traced, **kw):
    fast = _run(graph, factory, "fast", traced, **kw)
    ref = _run(graph, factory, "reference", traced, **kw)
    for field in ("outputs", "error", "counters", "events"):
        assert fast[field] == ref[field], field
    return fast, ref


class _Relay(NodeAlgorithm):
    """uid 0 sleeps until round 3, then passes a token down the path;
    every other vertex sleeps until the token wakes it, and records the
    round it woke in."""

    def on_start(self, ctx):
        ctx.sleep(until=3 if ctx.uid == 0 else None)
        return {}

    def on_round(self, ctx, messages):
        if not messages and (ctx.uid, ctx.round) != (0, 3):
            return {}  # asleep: keep the promise
        ctx.halt(ctx.round)
        return {w: "t" for w in ctx.neighbors if w not in messages}


class _Alarm(NodeAlgorithm):
    """Every vertex sleeps from ``on_start`` until round 5."""

    def on_start(self, ctx):
        ctx.sleep(until=5)
        return {}

    def on_round(self, ctx, messages):
        if ctx.round >= 5:
            ctx.halt(ctx.round)
        return {}


class _Insomniac(NodeAlgorithm):
    """Sleeps for good with nothing in flight: no vertex can wake."""

    def on_start(self, ctx):
        ctx.sleep()
        return {}

    def on_round(self, ctx, messages):
        return {}


@pytest.mark.parametrize("traced", (False, True))
class TestSleep:
    def test_wake_by_message(self, traced):
        fast, ref = _both(path_graph(4), _Relay, traced)
        # uid 0 wakes at its deadline; uid i by the token, in round 3 + i
        assert fast["outputs"] == {0: 3, 1: 4, 2: 5, 3: 6}
        assert fast["counters"][:2] == (6, 3)
        assert fast["node_rounds"] == 4
        assert ref["node_rounds"] == 6 * 4 - (1 + 2 + 3)

    def test_wake_at_until_after_sleep_in_on_start(self, traced):
        fast, ref = _both(path_graph(3), _Alarm, traced)
        assert fast["outputs"] == {0: 5, 1: 5, 2: 5}
        assert fast["counters"][0] == 5
        assert (fast["node_rounds"], ref["node_rounds"]) == (3, 15)

    def test_all_asleep_exceeds_max_rounds_alike(self, traced):
        fast, ref = _both(path_graph(3), _Insomniac, traced, max_rounds=7)
        assert fast["error"] == "RuntimeError: exceeded 7 rounds"
        assert fast["counters"][0] == 7
        assert fast["node_rounds"] == 0
        if traced:
            kinds = [e.kind for e in fast["events"]]
            assert kinds == ["run_start"] + ["round_start", "round_end"] * 7

    @pytest.mark.parametrize("engine", ENGINES)
    def test_until_not_in_future_rejected(self, traced, engine):
        class Now(NodeAlgorithm):
            def on_round(self, ctx, messages):
                ctx.sleep(until=ctx.round)
                return {}

        class Zero(NodeAlgorithm):
            def on_start(self, ctx):
                ctx.sleep(until=0)
                return {}

        class Fraction(NodeAlgorithm):
            def on_start(self, ctx):
                ctx.sleep(until=2.5)
                return {}

        for algorithm, error in ((Now, "ValueError"), (Zero, "ValueError"),
                                 (Fraction, "TypeError")):
            result = _run(path_graph(2), algorithm, engine, traced)
            assert result["error"].startswith(error), result["error"]


class _Liar(NodeAlgorithm):
    """Sleeps until round 4 but means to send in round 2."""

    def on_start(self, ctx):
        ctx.sleep(until=4)
        return {}

    def on_round(self, ctx, messages):
        if ctx.round == 2:
            return {w: 1 for w in ctx.neighbors}
        if ctx.round >= 4:
            ctx.halt(None)
        return {}


class _Deserter(NodeAlgorithm):
    """Sleeps until a message comes, but halts in round 1 anyway."""

    def on_start(self, ctx):
        ctx.sleep()
        return {}

    def on_round(self, ctx, messages):
        ctx.halt(ctx.round)
        return {}


class TestFalseSleepIsCaught:
    @pytest.mark.parametrize("traced", (False, True))
    @pytest.mark.parametrize("algorithm, acted", [
        (_Liar, "vertex 0 sent to [1] in round 2 while asleep"),
        (_Deserter, "vertex 0 halted in round 1 while asleep"),
    ])
    def test_reference_loop_raises(self, algorithm, acted, traced):
        ref = _run(path_graph(3), algorithm, "reference", traced)
        assert ref["error"] == f"RuntimeError: {acted}"

    @pytest.mark.parametrize("algorithm", [_Liar, _Deserter])
    def test_engine_equivalence_reports_it(self, algorithm, monkeypatch):
        from repro.check import engine_check

        monkeypatch.setattr(engine_check, "_scenarios",
                            lambda graph: [("false-sleep", algorithm, None)])
        diff = check_engine_equivalence(path_graph(3))
        assert diff is not None
        assert diff.startswith("engine divergence [false-sleep")
        assert "while asleep" in diff

    def test_honest_scenarios_pass(self):
        assert check_engine_equivalence(path_graph(5)) is None


class TestNodeRounds:
    def _mds_run(self, engine):
        from repro.congest.algorithms.collect import CollectAndSolve
        from repro.core.mds import MdsFamily

        fam = MdsFamily(2)
        g = fam.build((0, 1, 0, 1), (0, 0, 1, 1))

        def solver(n, edge_records, vertex_records):
            return len(edge_records), {u: u % 3 == 0 for u in range(n)}

        sim = CongestSimulator(g)
        sim.cut = {sim.uid_of[v] for v in fam.alice_vertices()}
        outputs = sim.run(lambda: CollectAndSolve(solver), engine=engine)
        return outputs, sim

    def test_pinned_on_collect_and_solve_two_party_run(self):
        # the run pinned in tests/test_cc.py: rounds and cut bits stay,
        # while the fast loop skips the idle node-rounds
        fast_out, fast = self._mds_run("fast")
        ref_out, ref = self._mds_run("reference")
        assert fast_out == ref_out
        for sim in (fast, ref):
            assert (sim.rounds, sim.cut_bits) == (79, 1275)
        assert fast.node_rounds < ref.node_rounds
        assert (fast.node_rounds, ref.node_rounds) == (644, 1540)

    def test_reset_per_run(self):
        sim = CongestSimulator(path_graph(3))
        sim.run(_Alarm)
        assert sim.node_rounds == 3
        sim.run(_Alarm)
        assert sim.node_rounds == 3
