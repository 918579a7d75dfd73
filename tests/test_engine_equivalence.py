"""Property tests: the fast CONGEST engine is observably identical to
the reference loop.

The heavy lifting lives in :func:`repro.check.engine_check.
check_engine_equivalence` (also registered in ``repro check``); here it
is driven over the seeded fuzz families, plus direct assertions on the
corners the ISSUE calls out — counter equality and the
``BandwidthExceeded`` / non-neighbor ``ValueError`` partial-counter
contracts on both loops, traced and untraced.
"""

import pytest

from repro.check.engine_check import check_engine_equivalence
from repro.check.fuzz import FAMILIES, make_case
from repro.congest.model import (
    BandwidthExceeded,
    CongestSimulator,
    NodeAlgorithm,
    generic_message_bits,
    message_bits,
)
from repro.graphs import Graph, path_graph, random_graph

SEED = 0xEE

CANDIDATES = ("fast",)
ENGINES = ("fast", "reference")


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("index", range(3))
def test_engines_agree_on_fuzz_families(family, index):
    case = make_case(SEED, family, index)
    if case.graph.n < 1 or case.graph.n > 32:
        pytest.skip("outside the equivalence check's size envelope")
    assert check_engine_equivalence(case.graph) is None


class _Overflow(NodeAlgorithm):
    """Floods uids once, then the max-uid node sends an oversized string."""

    def on_start(self, ctx):
        return {w: ctx.uid for w in ctx.neighbors}

    def on_round(self, ctx, messages):
        if ctx.uid == ctx.n - 1 and ctx.neighbors:
            return {ctx.neighbors[0]: "x" * 4096}
        ctx.halt(None)
        return {}


class _NonNeighbor(NodeAlgorithm):
    """Floods uids once, then the min-uid node sends to a vertex it has
    no edge to (uid n-1 is never a neighbor of uid 0 on a long path)."""

    def on_start(self, ctx):
        return {w: ctx.uid for w in ctx.neighbors}

    def on_round(self, ctx, messages):
        if ctx.uid == 0:
            return {w: 1 for w in ctx.neighbors} | {ctx.n - 1: 1}
        ctx.halt(None)
        return {}


def _run_counters(graph, engine, algorithm=_Overflow,
                  error=BandwidthExceeded, traced=False):
    from repro.obs import NullTracer, RecordingTracer

    tracer = RecordingTracer() if traced else NullTracer()
    sim = CongestSimulator(graph, bandwidth_factor=40, tracer=tracer)
    with pytest.raises(error):
        sim.run(algorithm, engine=engine)
    return (sim.rounds, sim.total_messages, sim.total_bits,
            sim.max_message_bits)


class TestBandwidthPartialCounters:
    @pytest.mark.parametrize("engine", CANDIDATES)
    @pytest.mark.parametrize("traced", (False, True))
    def test_partial_counters_identical_across_engines(self, engine, traced):
        g = path_graph(5)
        assert _run_counters(g, engine, traced=traced) == \
            _run_counters(g, "reference", traced=traced)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_partial_counters_include_offending_message(self, engine):
        g = path_graph(3)
        rounds, messages, bits, max_bits = _run_counters(g, engine)
        # round 0 floods 4 uid messages; round 1 checks the oversized
        # one (counted before the bandwidth check raises)
        assert rounds == 1
        assert messages == 5
        assert max_bits == 8 * 4096
        assert bits > 8 * 4096

    @pytest.mark.parametrize("engine", CANDIDATES)
    @pytest.mark.parametrize("traced", (False, True))
    def test_non_neighbor_counters_identical(self, engine, traced):
        g = path_graph(6)
        assert (_run_counters(g, engine, _NonNeighbor, ValueError,
                              traced=traced) ==
                _run_counters(g, "reference", _NonNeighbor, ValueError,
                              traced=traced))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_non_neighbor_counters_exclude_offender(self, engine):
        g = path_graph(6)
        rounds, messages, bits, max_bits = _run_counters(
            g, engine, _NonNeighbor, ValueError)
        # round 0 floods 10 uid messages; in round 1 uid 0's batch sends
        # to its one real neighbor (counted) before the non-neighbor
        # send raises (not counted)
        assert rounds == 1
        assert messages == 11


class TestEngineApi:
    def test_unknown_engine_rejected(self):
        sim = CongestSimulator(path_graph(3))
        for name in ("turbo", "vectorized", None):
            with pytest.raises(ValueError):
                sim.run(_Overflow, engine=name)

    @pytest.mark.parametrize("engine", CANDIDATES)
    def test_counters_match_on_normal_run(self, engine):
        import random

        from repro.congest.algorithms.basic import FloodMinId

        g = random_graph(12, 0.3, random.Random(3))
        cand = CongestSimulator(g)
        ref = CongestSimulator(g)
        out_cand = cand.run(FloodMinId, engine=engine)
        out_ref = ref.run(FloodMinId, engine="reference")
        assert out_cand == out_ref
        assert (cand.rounds, cand.total_messages, cand.total_bits,
                cand.max_message_bits) == \
               (ref.rounds, ref.total_messages, ref.total_bits,
                ref.max_message_bits)


class TestMessageBitsCache:
    """The inline exact-type fast path of :func:`message_bits` must cost
    every payload exactly as the generic ``isinstance`` chain does.  The
    class and its first two test names date from the bounded memo that
    the fast path replaced; the cases are the memo's, look-alikes
    included."""

    @pytest.mark.parametrize("payload", [
        None, True, False, 0, 1, -17, 2 ** 40, 1.5, "abc", b"\x00\x01",
        (), (1, 2, 3), (0, -5), (1, "a"), (True, 2), ((1, 2), 3),
        (3, ("E", 1, 2, None)), (3, ("E", 1, True)), (3, (1, (2,))),
        [1, 2], {1: "x"}, frozenset({1, 2}),
    ])
    def test_cached_matches_uncached(self, payload):
        assert message_bits(payload) == generic_message_bits(payload)

    def test_lookalike_payloads_not_conflated(self):
        import enum

        class Tag(enum.IntEnum):
            REC = 3

        # these pairs compare equal (or nearly) but may cost differently;
        # the exact-type checks must send each to its own cost, in
        # whichever order they are measured
        pairs = [
            (1, True), (1, 1.0), ((1, 2), (True, 2)),
            ((3, ("E", 1, 1)), (3, ("E", 1, True))),
            ((3, ("E", 1)), (3, ("E", 1.0))),
            ((3, (1, (2,))), (3, (1, (True,)))),
            ((3, ("E", 1, 2, None)), (Tag.REC, ("E", 1, 2, None))),
        ]
        for pair in pairs:
            for a, b in (pair, pair[::-1]):
                assert message_bits(a) == generic_message_bits(a)
                assert message_bits(b) == generic_message_bits(b)
        assert message_bits((1, True)) != message_bits((1, 1))
        assert message_bits(Tag.REC) == generic_message_bits(3) == 3

    def test_pipelined_records_match_generic_chain(self):
        # the collect-and-solve record, downcast and EOT shapes, plus
        # two levels of nesting
        for payload in [(3, ("E", 4, 7, None)), (3, ("V", 4, 2)),
                        (5, 17, False), (6, 12), (3, (1, (2,))),
                        (0, 2 ** 70), (-1, "")]:
            assert message_bits(payload) == generic_message_bits(payload)
