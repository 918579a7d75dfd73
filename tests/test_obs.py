"""Observability layer tests: tracers, metrics, cut-bit accounting,
profiling, and the ``repro report`` renderer."""

import json
import random

import pytest

from repro.cc.functions import random_input_pairs
from repro.cc.alice_bob import simulate_two_party
from repro.congest.algorithms.basic import BfsFromRoot, FloodMinId
from repro.congest.model import BandwidthExceeded, CongestSimulator, NodeAlgorithm
from repro.core.mds import MdsFamily
from repro.graphs import path_graph
from repro.obs import (
    JsonlTracer,
    Metrics,
    MultiTracer,
    NullTracer,
    RecordingTracer,
    TraceEvent,
    cut_bits_from_events,
    diff_profile,
    format_profile,
    profile_block,
    profile_stats,
    profiled,
    read_trace,
    render_report,
    reset_profile_stats,
    trace_to_directory,
)
from repro.experiments import run_experiment
from tests.conftest import connected_random_graph


def run_traced_bfs(tracer, graph=None, root_uid=0):
    g = graph if graph is not None else path_graph(3)
    sim = CongestSimulator(g, tracer=tracer)
    outputs = sim.run(BfsFromRoot,
                      inputs={v: root_uid for v in g.vertices()})
    return sim, outputs


class TestGoldenTrace:
    """BFS on the 3-path is fully deterministic: uid 0 informs uid 1 in
    round 0 (depth 0, 1 bit), uid 1 informs uid 2 in round 1 (depth 1,
    2 bits), everyone halts at round n = 3."""

    def test_event_sequence(self):
        rec = RecordingTracer()
        sim, __ = run_traced_bfs(rec)
        assert [e.kind for e in rec.events] == [
            "run_start",
            "message",                              # round 0: 0 -> 1
            "round_start", "message", "round_end",  # round 1: 1 -> 2
            "round_start", "round_end",             # round 2: quiet
            "round_start", "halt", "halt", "halt", "round_end",
            "run_end",
        ]

    def test_message_payloads(self):
        rec = RecordingTracer()
        run_traced_bfs(rec)
        msgs = rec.events_of("message")
        assert [(e.round, e.data["sender"], e.data["receiver"],
                 e.data["bits"], e.data["ok"]) for e in msgs] == [
            (0, 0, 1, 1, True),
            (1, 1, 2, 2, True),
        ]

    def test_totals_match_simulator_counters(self):
        rec = RecordingTracer()
        sim, __ = run_traced_bfs(rec)
        assert sim.rounds == 3
        msgs = rec.events_of("message")
        assert len(msgs) == sim.total_messages == 2
        assert sum(e.data["bits"] for e in msgs) == sim.total_bits == 3
        (end,) = rec.events_of("run_end")
        assert end.data == {
            "rounds": 3, "total_messages": 2, "total_bits": 3,
            "max_message_bits": 2,
        }

    def test_run_start_describes_instance(self):
        rec = RecordingTracer()
        sim, __ = run_traced_bfs(rec)
        (start,) = rec.events_of("run_start")
        assert start.data["n"] == 3
        assert start.data["edges"] == 2
        assert start.data["bandwidth"] == sim.bandwidth
        assert start.data["algorithm"] == "BfsFromRoot"

    def test_halts_cover_all_vertices(self):
        rec = RecordingTracer()
        run_traced_bfs(rec)
        assert sorted(e.data["uid"] for e in rec.events_of("halt")) == [0, 1, 2]


class TestTracerBehaviour:
    def test_null_tracer_receives_nothing_and_outputs_agree(self):
        null = NullTracer()
        __, out_null = run_traced_bfs(null)
        __, out_plain = run_traced_bfs(None)
        assert out_null == out_plain

    def test_multi_tracer_fans_out(self):
        a, b = RecordingTracer(), RecordingTracer()
        run_traced_bfs(MultiTracer([a, b]))
        assert [e.kind for e in a.events] == [e.kind for e in b.events]

    def test_multi_tracer_drops_disabled(self):
        mt = MultiTracer([NullTracer(), NullTracer()])
        assert not mt.enabled

    def test_legacy_observer_rides_event_stream(self):
        seen = []
        rec = RecordingTracer()
        g = path_graph(3)
        sim = CongestSimulator(g, tracer=rec)
        sim.observer = lambda s, r, b: seen.append((s, r, b))
        sim.run(BfsFromRoot, inputs={v: 0 for v in g.vertices()})
        assert seen == [(e.data["sender"], e.data["receiver"], e.data["bits"])
                        for e in rec.events_of("message")]
        assert len(seen) == sim.total_messages

    def test_bandwidth_violation_traced_before_raise(self):
        class Shout(NodeAlgorithm):
            def on_start(self, ctx):
                return {w: 1 << 500 for w in ctx.neighbors}

            def on_round(self, ctx, messages):
                ctx.halt()
                return {}

        rec = RecordingTracer()
        sim = CongestSimulator(path_graph(3), tracer=rec)
        with pytest.raises(BandwidthExceeded):
            sim.run(Shout)
        offending = rec.events_of("message")[-1]
        assert offending.data["ok"] is False
        assert offending.data["bits"] > sim.bandwidth


class TestJsonlRoundTrip:
    def test_roundtrip_preserves_events(self, tmp_path):
        path = tmp_path / "bfs.jsonl"
        rec = RecordingTracer()
        with JsonlTracer(path) as jt:
            run_traced_bfs(MultiTracer([rec, jt]))
        loaded = read_trace(path)
        assert loaded == rec.events

    def test_lines_are_plain_json(self, tmp_path):
        path = tmp_path / "bfs.jsonl"
        with JsonlTracer(path) as jt:
            run_traced_bfs(jt)
        for line in path.read_text().splitlines():
            flat = json.loads(line)
            assert "kind" in flat and "round" in flat

    def test_report_renders_roundtripped_trace(self, tmp_path):
        path = tmp_path / "bfs.jsonl"
        with JsonlTracer(path) as jt:
            run_traced_bfs(jt)
        report = render_report(read_trace(path))
        assert "BfsFromRoot" in report
        assert "| 3 |" in report          # the final round row
        assert "Busiest directed edges" in report

    def test_trace_to_directory_ambient(self, tmp_path):
        with trace_to_directory(str(tmp_path), prefix="amb", fmt="jsonl"):
            run_traced_bfs(None)
            run_traced_bfs(None)
        files = sorted(p.name for p in tmp_path.glob("amb-*.jsonl"))
        assert files == ["amb-0001.jsonl", "amb-0002.jsonl"]
        events = read_trace(tmp_path / files[0])
        assert events[0].kind == "run_start"
        assert events[-1].kind == "run_end"

    def test_trace_to_directory_defaults_to_binary(self, tmp_path):
        with trace_to_directory(str(tmp_path), prefix="amb"):
            run_traced_bfs(None)
        files = sorted(p.name for p in tmp_path.glob("amb-*"))
        assert files == ["amb-0001.rtb"]
        events = read_trace(tmp_path / files[0])
        assert events[0].kind == "run_start"
        assert events[-1].kind == "run_end"


class TestMetrics:
    def test_online_equals_offline(self, rng):
        g = connected_random_graph(10, 0.4, rng)
        online = Metrics()
        rec = RecordingTracer()
        sim = CongestSimulator(g, tracer=MultiTracer([online, rec]))
        sim.run(FloodMinId)
        offline = Metrics.from_events(rec.events)
        assert online.summary() == offline.summary()
        assert online.per_round.keys() == offline.per_round.keys()

    def test_totals_match_simulator(self, rng):
        g = connected_random_graph(10, 0.4, rng)
        metrics = Metrics()
        sim = CongestSimulator(g, tracer=metrics)
        sim.run(FloodMinId)
        assert metrics.total_messages == sim.total_messages
        assert metrics.total_bits == sim.total_bits
        assert metrics.rounds == sim.rounds
        assert sum(rs.bits for rs in metrics.per_round.values()) == sim.total_bits
        assert sum(es.bits for es in metrics.per_edge.values()) == sim.total_bits

    def test_utilization_bounded(self, rng):
        g = connected_random_graph(9, 0.5, rng)
        metrics = Metrics()
        sim = CongestSimulator(g, tracer=metrics)
        sim.run(FloodMinId)
        for rnd in metrics.round_numbers():
            util = metrics.round_utilization(rnd)
            assert 0.0 <= util <= 1.0
        for edge in metrics.per_edge:
            assert 0.0 <= metrics.edge_utilization(edge) <= 1.0

    def test_per_edge_messages_only_between_neighbors(self, rng):
        g = connected_random_graph(8, 0.4, rng)
        metrics = Metrics()
        sim = CongestSimulator(g, tracer=metrics)
        sim.run(FloodMinId)
        uid_edges = {(sim.uid_of[u], sim.uid_of[v]) for u, v in g.edges()}
        uid_edges |= {(b, a) for a, b in uid_edges}
        assert set(metrics.per_edge) <= uid_edges

    def test_busiest_edges_sorted(self, rng):
        g = connected_random_graph(9, 0.5, rng)
        metrics = Metrics()
        CongestSimulator(g, tracer=metrics).run(FloodMinId)
        busiest = metrics.busiest_edges(4)
        bits = [es.bits for es in busiest]
        assert bits == sorted(bits, reverse=True)


class TestCutBitAccounting:
    """Acceptance: on a set-disjointness instance, the trace-derived cut
    bits equal cc/alice_bob.py's count exactly."""

    def _instance(self):
        fam = MdsFamily(4)
        rng = random.Random(0xB17)
        x, y = random_input_pairs(fam.k_bits, 2, rng)[0]
        return fam, fam.build(x, y)

    def test_trace_matches_alice_bob_exactly(self):
        fam, g = self._instance()
        rec = RecordingTracer()
        sim = simulate_two_party(g, fam.alice_vertices(), FloodMinId,
                                 tracer=rec)
        probe = CongestSimulator(g)
        alice_uids = {probe.uid_of[v] for v in fam.alice_vertices()}
        from_trace = cut_bits_from_events(rec.events, alice_uids)
        assert from_trace.cut_bits == sim.cut_bits
        assert from_trace.cut_messages == sim.cut_messages
        assert from_trace.bits_by_round == sim.cut_bits_by_round

    def test_by_round_sums_to_total(self):
        fam, g = self._instance()
        sim = simulate_two_party(g, fam.alice_vertices(), FloodMinId)
        assert sum(sim.cut_bits_by_round.values()) == sim.cut_bits
        assert sim.within_budget

    def test_report_cut_column(self, tmp_path):
        fam, g = self._instance()
        path = tmp_path / "cut.jsonl"
        with JsonlTracer(path) as jt:
            sim = simulate_two_party(g, fam.alice_vertices(), FloodMinId,
                                     tracer=jt)
        probe = CongestSimulator(g)
        alice_uids = {probe.uid_of[v] for v in fam.alice_vertices()}
        report = render_report(read_trace(path), alice_uids=alice_uids)
        assert f"cut bits = {sim.cut_bits} " in report


class TestProfiling:
    def test_decorator_counts_calls_and_time(self):
        reset_profile_stats()

        @profiled(name="obs-test-fn")
        def fn(x):
            return x * 2

        assert [fn(i) for i in range(5)] == [0, 2, 4, 6, 8]
        stats = profile_stats()
        assert stats["obs-test-fn"].calls == 5
        assert stats["obs-test-fn"].seconds >= 0.0

    def test_profile_block(self):
        reset_profile_stats()
        with profile_block("obs-test-block"):
            sum(range(1000))
        assert profile_stats()["obs-test-block"].calls == 1

    def test_diff_and_format(self):
        reset_profile_stats()

        @profiled(name="obs-test-diff")
        def fn():
            return None

        before = profile_stats()
        fn(), fn()
        delta = diff_profile(before, profile_stats())
        assert delta["obs-test-diff"].calls == 2
        assert "obs-test-diff x2" in format_profile(delta)

    def test_solver_entry_points_are_profiled(self, rng):
        from repro.solvers import min_dominating_set

        reset_profile_stats()
        g = connected_random_graph(8, 0.4, rng)
        min_dominating_set(g)
        stats = profile_stats()
        assert any("dominating" in name for name in stats)

    def test_experiment_surfaces_profile(self):
        record = run_experiment("E-universal-upper-bound", profile=True)
        assert "solver_profile" in record.measured
        assert "dominating" in record.measured["solver_profile"]


class TestRunnerTraceDir:
    def test_experiment_emits_readable_traces(self, tmp_path):
        record = run_experiment("E-T1.1-simulation",
                                trace_dir=str(tmp_path))
        assert record.passed
        files = sorted(tmp_path.glob("E-T1.1-simulation-*.rtb"))
        assert files
        events = read_trace(files[0])
        assert events[0].kind == "run_start"
        assert any(e.kind == "message" for e in events)

    def test_experiment_trace_format_jsonl(self, tmp_path):
        record = run_experiment("E-T1.1-simulation",
                                trace_dir=str(tmp_path),
                                trace_format="jsonl")
        assert record.passed
        files = sorted(tmp_path.glob("E-T1.1-simulation-*.jsonl"))
        assert files
        assert read_trace(files[0])[0].kind == "run_start"


class TestReportCli:
    def _write_trace(self, tmp_path):
        path = tmp_path / "cli.jsonl"
        with JsonlTracer(path) as jt:
            run_traced_bfs(jt)
        return path

    def test_report_smoke(self, tmp_path, capsys):
        from repro.cli import main

        main(["report", "trace", str(self._write_trace(tmp_path))])
        out = capsys.readouterr().out
        assert "CONGEST trace report" in out
        assert "BfsFromRoot" in out

    def test_report_with_cut(self, tmp_path, capsys):
        from repro.cli import main

        main(["report", "trace", str(self._write_trace(tmp_path)),
              "--cut", "0"])
        out = capsys.readouterr().out
        assert "cut bits" in out

    def test_report_missing_file(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["report", "trace", str(tmp_path / "nope.jsonl")])

    def test_report_rejects_bad_cut(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["report", "trace", str(self._write_trace(tmp_path)),
                  "--cut", "a,b"])

    def test_report_requires_view_keyword(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="unknown report view"):
            main(["report", str(self._write_trace(tmp_path))])


class TestTraceEventSerialization:
    def test_json_roundtrip(self):
        event = TraceEvent("message", 7,
                           {"sender": 1, "receiver": 2, "bits": 3, "ok": True})
        assert TraceEvent.from_json(event.to_json()) == event
