"""Binary trace format (ISSUE 6): golden bytes, roundtrips, fallback
records, crash recovery, streaming aggregation, and the report studio.
"""

from __future__ import annotations

import io
import json
import math
import os
import random

import pytest

from repro.cc.alice_bob import simulate_two_party
from repro.cc.functions import random_input_pairs
from repro.check.fuzz import make_case
from repro.congest.algorithms.basic import FloodMinId
from repro.congest.model import CongestSimulator
from repro.core.mds import MdsFamily
from repro.obs import (
    BinaryTracer,
    CutBitCounter,
    Metrics,
    MultiTracer,
    RecordingTracer,
    TraceEvent,
    TraceFormatError,
    cut_bits_from_events,
    iter_trace,
    read_trace,
    render_report,
    select_run,
)
from repro.obs.binary import MAGIC
from tests.conftest import connected_random_graph
from tests.test_obs import run_traced_bfs

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_RTB = os.path.join(GOLDEN_DIR, "bfs3.rtb")


def _recorded_bfs_events():
    rec = RecordingTracer()
    run_traced_bfs(rec)
    return rec.events


def _two_run_file(tmp_path):
    """Two identical 13-event BFS runs in one ``.rtb`` file."""
    path = tmp_path / "two.rtb"
    with BinaryTracer(path) as bt:
        run_traced_bfs(bt)
        run_traced_bfs(bt)
    return path


class TestGoldenBinaryTrace:
    """The checked-in golden trace (tests/golden/bfs3.rtb) was written
    by one BFS-on-path_graph(3) run; any encoder change that moves a
    byte fails here and must regenerate the golden deliberately."""

    def test_formats_decode_to_identical_events(self):
        """The golden file and a fresh in-memory recording of the same
        run hold the same 13 events."""
        golden = read_trace(GOLDEN_RTB)
        assert golden == _recorded_bfs_events()
        assert len(golden) == 13
        assert golden[0].kind == "run_start"
        assert golden[-1].kind == "run_end"

    def test_fresh_run_reproduces_golden_bytes(self):
        sink = io.BytesIO()
        with BinaryTracer(sink) as bt:
            run_traced_bfs(bt)
        with open(GOLDEN_RTB, "rb") as fh:
            assert sink.getvalue() == fh.read()

    def test_binary_is_smaller(self):
        """Less than half the size of the same events as JSON text."""
        as_json = sum(len(e.to_json()) + 1 for e in read_trace(GOLDEN_RTB))
        assert os.path.getsize(GOLDEN_RTB) * 2 < as_json

    def test_summaries_equal_across_formats(self):
        """Metrics and Theorem 1.1 cut bits agree between the golden
        file and a fresh in-memory recording."""
        recorded = _recorded_bfs_events()
        from_file = Metrics.from_events(iter_trace(GOLDEN_RTB))
        assert from_file.summary() == Metrics.from_events(recorded).summary()
        cut_file = cut_bits_from_events(iter_trace(GOLDEN_RTB), {0})
        cut_recorded = cut_bits_from_events(recorded, {0})
        assert cut_file.cut_bits == cut_recorded.cut_bits
        assert cut_file.bits_by_round == cut_recorded.bits_by_round

    def test_cut_bits_match_alice_bob_through_binary_file(self, tmp_path):
        """Theorem 1.1 accounting survives the binary encode/decode:
        the cut bits streamed back from disk equal cc/alice_bob.py's
        own count on a set-disjointness instance."""
        fam = MdsFamily(4)
        x, y = random_input_pairs(fam.k_bits, 2, random.Random(0xB17))[0]
        g = fam.build(x, y)
        path = tmp_path / "cut.rtb"
        with BinaryTracer(path) as bt:
            sim = simulate_two_party(g, fam.alice_vertices(), FloodMinId,
                                     tracer=bt)
        probe = CongestSimulator(g)
        alice_uids = {probe.uid_of[v] for v in fam.alice_vertices()}
        from_file = cut_bits_from_events(iter_trace(path), alice_uids)
        assert from_file.cut_bits == sim.cut_bits
        assert from_file.cut_messages == sim.cut_messages
        assert from_file.bits_by_round == sim.cut_bits_by_round


class TestBinaryRoundTrip:
    def test_fuzzed_sim_roundtrip(self, tmp_path):
        g = connected_random_graph(10, 0.4, random.Random(5))
        rec = RecordingTracer()
        path = tmp_path / "flood.rtb"
        with BinaryTracer(path) as bt:
            CongestSimulator(g, tracer=MultiTracer([rec, bt])).run(FloodMinId)
        assert read_trace(path) == rec.events

    def test_local_model_inf_bandwidth(self, tmp_path):
        g = connected_random_graph(6, 0.5, random.Random(7))
        rec = RecordingTracer()
        path = tmp_path / "local.rtb"
        with BinaryTracer(path) as bt:
            sim = CongestSimulator(g, bandwidth=math.inf,
                                   tracer=MultiTracer([rec, bt]))
            sim.run(FloodMinId)
        loaded = read_trace(path)
        assert loaded == rec.events
        assert loaded[0].data["bandwidth"] == math.inf

    def test_fallback_records_roundtrip(self):
        """Events outside the compact layouts survive via the wide /
        generic record fallbacks."""
        events = [
            # non-integral bandwidth stays a float
            TraceEvent("run_start", 0, {"n": 70000, "edges": 5,
                                        "bandwidth": 3.5,
                                        "algorithm": "Custom"}),
            # sender > 2**16 and ok=False need the wide message record
            TraceEvent("message", 0, {"sender": 100000, "receiver": 2,
                                      "bits": 1 << 40, "ok": False}),
            TraceEvent("message", 1, {"sender": 1, "receiver": 2,
                                      "bits": 3, "ok": True}),
            # an extra key forces the generic record
            TraceEvent("message", 2, {"sender": 1, "receiver": 2,
                                      "bits": 3, "ok": True, "tag": "x"}),
            # unknown kinds go generic with an interned kind string
            TraceEvent("custom", 3, {"alpha": [1, 2, 3], "beta": "s"}),
            TraceEvent("halt", 4, {"uid": 7}),
        ]
        sink = io.BytesIO()
        with BinaryTracer(sink) as bt:
            for event in events:
                bt.emit(event)
        assert list(iter_trace(io.BytesIO(sink.getvalue()))) == events

    def test_interning_deduplicates_strings(self):
        sink = io.BytesIO()
        with BinaryTracer(sink) as bt:
            for rnd in range(50):
                bt.emit(TraceEvent("custom", rnd, {"i": rnd}))
        raw = sink.getvalue()
        assert raw.count(b"custom") == 1
        assert len(list(iter_trace(io.BytesIO(raw)))) == 50

    def test_text_mode_file_rejected(self):
        with pytest.raises(TraceFormatError):
            list(iter_trace(io.StringIO("x")))

    def test_unknown_record_code_raises(self):
        frame = bytes([250]) * 4
        raw = MAGIC + len(frame).to_bytes(4, "little") + frame
        with pytest.raises(TraceFormatError):
            list(iter_trace(io.BytesIO(raw)))

    def test_bad_magic_raises(self):
        with pytest.raises(TraceFormatError):
            list(iter_trace(io.BytesIO(b"NOTATRACE")))

    def test_magic_only_file_is_empty(self, tmp_path):
        path = tmp_path / "empty.rtb"
        path.write_bytes(MAGIC)
        assert read_trace(path) == []


class TestCrashRecovery:
    def test_truncated_final_frame_recovers_complete_frames(self, tmp_path):
        path = _two_run_file(tmp_path)
        full = read_trace(path)
        assert len(full) == 26  # two identical 13-event runs
        raw = path.read_bytes()
        truncated = tmp_path / "trunc.rtb"
        # cut into the middle of the second run's frame: everything up
        # to the last complete frame (run 1) must still decode
        truncated.write_bytes(raw[:-5])
        events = read_trace(truncated)
        assert events == full[:13]
        assert events[-1].kind == "run_end"

    def test_truncated_frame_header_yields_nothing(self, tmp_path):
        path = _two_run_file(tmp_path)
        truncated = tmp_path / "header.rtb"
        truncated.write_bytes(path.read_bytes()[:len(MAGIC) + 2])
        assert read_trace(truncated) == []

    def test_run_end_flush_makes_completed_runs_durable(self, tmp_path):
        """A tracer abandoned mid-run (killed worker) still has every
        completed run on disk, because ``run_end`` seals and flushes."""
        path = tmp_path / "durable.rtb"
        bt = BinaryTracer(path)
        run_traced_bfs(bt)
        # start a second run but never finish or close it
        bt.emit(TraceEvent("run_start", 0, {"n": 1, "edges": 0,
                                            "bandwidth": 8,
                                            "algorithm": "Doomed"}))
        events = read_trace(path)  # file deliberately left unclosed
        assert len(events) == 13
        assert events[-1].kind == "run_end"
        bt.close()

    def test_exit_closes_file_on_exception(self, tmp_path):
        path = tmp_path / "exc.rtb"
        with pytest.raises(RuntimeError):
            with BinaryTracer(path) as bt:
                run_traced_bfs(bt)
                raise RuntimeError("boom")
        assert bt._file.closed
        assert len(read_trace(path)) == 13


class TestStreamingAggregation:
    def _fuzzed_trace(self, tmp_path):
        """A binary trace of a FloodMinId run on a fuzzed check-family
        graph (first connected er case)."""
        index = 0
        while True:
            case = make_case(0, "er", index)
            if case.graph.n >= 2 and case.graph.is_connected():
                break
            index += 1
        path = tmp_path / f"er-{index}.rtb"
        with BinaryTracer(path) as bt:
            CongestSimulator(case.graph, tracer=bt).run(FloodMinId)
        return path

    def test_incremental_consume_equals_from_events(self, tmp_path):
        path = self._fuzzed_trace(tmp_path)
        streamed = Metrics().consume(iter_trace(path))
        materialised = Metrics.from_events(read_trace(path))
        assert streamed.summary() == materialised.summary()
        assert streamed.per_round.keys() == materialised.per_round.keys()
        for rnd in streamed.per_round:
            assert streamed.per_round[rnd] == materialised.per_round[rnd]
        assert streamed.per_edge == materialised.per_edge

    def test_cut_counter_consume_equals_from_events(self, tmp_path):
        path = self._fuzzed_trace(tmp_path)
        uids = {0, 1}
        streamed = CutBitCounter(uids).consume(iter_trace(path))
        materialised = cut_bits_from_events(read_trace(path), uids)
        assert streamed.cut_bits == materialised.cut_bits
        assert streamed.cut_messages == materialised.cut_messages
        assert streamed.bits_by_round == materialised.bits_by_round


class TestRunSelection:
    def test_multi_run_report_has_index(self, tmp_path):
        report = render_report(iter_trace(_two_run_file(tmp_path)))
        assert "trace contains 2 runs" in report
        assert "1: BfsFromRoot (n=3, rounds=3)" in report
        assert "2: BfsFromRoot (n=3, rounds=3)" in report

    def test_run_selection(self, tmp_path):
        path = _two_run_file(tmp_path)
        report = render_report(iter_trace(path), run=2)
        assert "showing run 2 only" in report
        assert "trace contains" not in report
        # one run's worth of traffic, not two
        assert "messages = 2," in report

    def test_run_out_of_range(self, tmp_path):
        path = _two_run_file(tmp_path)
        with pytest.raises(ValueError):
            render_report(iter_trace(path), run=5)
        with pytest.raises(ValueError):
            list(select_run([], 0))

    def test_select_run_is_lazy(self):
        base = read_trace(GOLDEN_RTB)

        def poisoned():
            for event in base:
                yield event
            yield TraceEvent("run_start", 0, {"n": 1, "edges": 0,
                                              "bandwidth": 8,
                                              "algorithm": "X"})
            raise AssertionError("select_run read past the requested run")

        assert list(select_run(poisoned(), 1)) == base


class TestStudioCli:
    def test_report_trace_binary(self, capsys):
        from repro.cli import main

        main(["report", "trace", GOLDEN_RTB, "--cut", "0"])
        out = capsys.readouterr().out
        assert "CONGEST trace report" in out
        assert "cut bits" in out

    def test_report_trace_run_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = _two_run_file(tmp_path)
        main(["report", "trace", str(path), "--run", "2"])
        assert "showing run 2 only" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["report", "trace", str(path), "--run", "9"])

    def test_report_fuzz(self, tmp_path, capsys):
        from repro.cli import main

        report = {
            "seed": 0, "cases": 5, "family": "er", "deep": False,
            "cases_run": 5, "checks_run": 12, "elapsed": 1.5,
            "check_counts": {"ref:matching": 9, "inv:alpha-tau": 3},
            "ok": False, "failures": [],
        }
        failure = {
            "check": "ref:matching", "family": "er", "index": 3, "seed": 0,
            "case": "er-3", "detail": "production=2, reference=3",
            "repro": "python -m repro check --seed 0 --cases 4 --family er",
            "shrunk": {"graph": {"n": 2, "m": 1,
                                 "edges": [{"u": 0, "v": 1}]},
                       "detail": "production=0, reference=1"},
        }
        (tmp_path / "check-report.json").write_text(json.dumps(report))
        (tmp_path / "failure-000.json").write_text(json.dumps(failure))
        main(["report", "fuzz", str(tmp_path)])
        out = capsys.readouterr().out
        assert "**FAIL** (1 failure(s))" in out
        assert "| `ref:matching` | 9 | 1 |" in out
        assert "--seed 0 --cases 4" in out
        assert "shrunk to n=2 m=1" in out

    def test_report_fuzz_missing_dir(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["report", "fuzz", str(tmp_path / "empty")])

    def test_report_unknown_view(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["report", "nonsense", "extra-arg"])

    def test_report_trace_requires_path(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["report", "trace"])
