"""Tracing overhead on a 500-vertex broadcast.

Acceptance gates for the observability layer:

- an attached :class:`NullTracer` must cost ≤ 5% wall-clock versus an
  untraced run, as the median ratio over alternating pairs of runs
  (its ``enabled = False`` flag makes the simulator skip event
  construction, so the hot message path is identical);
- the compact binary format must beat JSONL where the formats actually
  differ — the emit path: replaying the recorded event stream through a
  :class:`BinaryTracer` must take ≤ 40% of the :class:`JsonlTracer`
  wall-clock (≥ 2.5× faster) and produce a file ≥ 5× smaller;
- the mmap-backed streaming reader must render a report from a
  ≥ 100k-event binary trace without materialising the events (peak
  traced allocations bounded well below the decoded list size).

The benchmark also reports what *enabled* tracing costs end-to-end
(``RecordingTracer``, ``JsonlTracer``, ``BinaryTracer``), which is
allowed to be substantial — that is the price of a full event stream,
paid only when asked for.

Run directly: ``PYTHONPATH=src python -m pytest benchmarks/bench_tracing_overhead.py -q -s``
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import tempfile
import time
from typing import Callable, List, Optional

from repro.congest.model import CongestSimulator, NodeAlgorithm
from repro.graphs import random_graph
from repro.obs import (
    BinaryTracer,
    JsonlTracer,
    NullTracer,
    RecordingTracer,
    Tracer,
)

N_VERTICES = 500
EDGE_PROB = 0.012
HORIZON = 30
REPEATS = 5
#: runs of each side in the NullTracer gate, one pair per repeat
OVERHEAD_REPEATS = 40


class RepeatedBroadcast(NodeAlgorithm):
    """uid 0 floods a token; every informed vertex rebroadcasts to all
    neighbours each round until a fixed horizon — message-heavy by
    design, so per-message overhead dominates the measurement."""

    def __init__(self) -> None:
        self.value: Optional[int] = None
        self.round_no = 0

    def on_start(self, ctx):
        if ctx.uid == 0:
            self.value = 7
            return {w: self.value for w in ctx.neighbors}
        return {}

    def on_round(self, ctx, messages):
        self.round_no += 1
        if self.value is None and messages:
            self.value = next(iter(messages.values()))
        if self.round_no >= HORIZON:
            ctx.halt(self.value)
            return {}
        if self.value is not None:
            return {w: self.value for w in ctx.neighbors}
        return {}


def _graph():
    return random_graph(N_VERTICES, EDGE_PROB, random.Random(0xBEAD))


def _run_seconds(make_tracer: Callable[[], Optional[Tracer]],
                 graph, pause_gc: bool = False) -> float:
    """One timed run; ``pause_gc`` collects first and keeps the cyclic
    collector off while the clock runs (as :mod:`timeit` does), so a
    collection cannot land inside one side's run only."""
    tracer = make_tracer()
    sim = CongestSimulator(graph, tracer=tracer)
    if pause_gc:
        gc.collect()
        gc.disable()
    try:
        start = time.perf_counter()
        sim.run(RepeatedBroadcast)
        seconds = time.perf_counter() - start
    finally:
        if pause_gc:
            gc.enable()
    if tracer is not None:
        tracer.close()
    return seconds


def _best_seconds(make_tracer: Callable[[], Optional[Tracer]],
                  graph, repeats: int = REPEATS) -> float:
    return min(_run_seconds(make_tracer, graph) for __ in range(repeats))


def test_null_tracer_overhead_within_5_percent():
    g = _graph()
    # the two sides alternate repeat by repeat (swapping which goes
    # first), and each NullTracer run is compared with the baseline run
    # beside it: a slow phase of a shared machine slows both runs of a
    # pair, where a best-of per side lets one lucky run decide
    ratios = []
    base = null = float("inf")
    for rep in range(OVERHEAD_REPEATS):
        if rep % 2:
            n = _run_seconds(NullTracer, g, pause_gc=True)
            b = _run_seconds(lambda: None, g, pause_gc=True)
        else:
            b = _run_seconds(lambda: None, g, pause_gc=True)
            n = _run_seconds(NullTracer, g, pause_gc=True)
        ratios.append(n / b)
        base, null = min(base, b), min(null, n)
    overhead = statistics.median(ratios) - 1.0
    print(f"\nbaseline {base:.3f}s  NullTracer {null:.3f}s (best of "
          f"{OVERHEAD_REPEATS})  overhead {100 * overhead:+.2f}% (median "
          f"of {OVERHEAD_REPEATS} paired ratios)")
    assert overhead <= 0.05, (
        f"NullTracer overhead {100 * overhead:.2f}% exceeds 5% "
        f"(median of {OVERHEAD_REPEATS} paired ratios; best of each "
        f"side: baseline {base:.3f}s, null {null:.3f}s)")


def test_report_enabled_tracer_costs():
    g = _graph()
    base = _best_seconds(lambda: None, g, repeats=3)
    rec = _best_seconds(RecordingTracer, g, repeats=3)
    tmp = tempfile.mkdtemp(prefix="bench-trace-")
    seq = iter(range(10))

    def jsonl():
        return JsonlTracer(os.path.join(tmp, f"bench-{next(seq)}.jsonl"))

    def binary():
        return BinaryTracer(os.path.join(tmp, f"bench-{next(seq)}.rtb"))

    jtime = _best_seconds(jsonl, g, repeats=3)
    btime = _best_seconds(binary, g, repeats=3)
    print(f"\nbaseline {base:.3f}s  RecordingTracer {rec:.3f}s "
          f"({rec / base:.2f}x)  JsonlTracer {jtime:.3f}s "
          f"({jtime / base:.2f}x)  BinaryTracer {btime:.3f}s "
          f"({btime / base:.2f}x)")
    # enabled tracing must stay within an order of magnitude — it is a
    # debugging/measurement mode, not the production path
    assert rec < 20 * base
    assert jtime < 20 * base
    assert btime < 20 * base


def _recorded_events() -> List:
    rec = RecordingTracer()
    CongestSimulator(_graph(), tracer=rec).run(RepeatedBroadcast)
    return rec.events


def _emit_seconds(make_tracer, events, repeats: int = REPEATS) -> float:
    best = float("inf")
    for __ in range(repeats):
        tracer = make_tracer()
        emit = tracer.emit
        start = time.perf_counter()
        for event in events:
            emit(event)
        best = min(best, time.perf_counter() - start)
        tracer.close()
    return best


def test_binary_beats_jsonl_on_emit_path_and_disk():
    """The ISSUE 6 format gates, measured where the formats differ.

    A full simulator run shares the (dominant) round-loop and
    event-construction cost between the two tracers, so the comparison
    replays one pre-recorded event stream through each: serialisation
    wall-clock must satisfy binary ≤ 0.40 × jsonl (≥ 2.5× faster), and
    the files written from the *same* events must satisfy
    jsonl ≥ 5 × binary bytes.
    """
    events = _recorded_events()
    assert len(events) > 10_000, "workload too small to be meaningful"
    tmp = tempfile.mkdtemp(prefix="bench-emit-")
    jsonl_path = os.path.join(tmp, "emit.jsonl")
    binary_path = os.path.join(tmp, "emit.rtb")
    jtime = _emit_seconds(lambda: JsonlTracer(jsonl_path), events)
    btime = _emit_seconds(lambda: BinaryTracer(binary_path), events)
    jsize = os.path.getsize(jsonl_path)
    bsize = os.path.getsize(binary_path)
    print(f"\n{len(events)} events: JsonlTracer {jtime:.3f}s / {jsize}B  "
          f"BinaryTracer {btime:.3f}s / {bsize}B  "
          f"(speed {jtime / btime:.1f}x, size {jsize / bsize:.1f}x)")
    assert btime <= 0.40 * jtime, (
        f"binary emit {btime:.3f}s exceeds 40% of jsonl {jtime:.3f}s "
        f"(only {jtime / btime:.2f}x faster, gate is 2.5x)")
    assert jsize >= 5 * bsize, (
        f"binary file {bsize}B is not 5x smaller than jsonl {jsize}B "
        f"(only {jsize / bsize:.2f}x)")


def test_streaming_report_from_100k_event_trace():
    """``iter_trace`` + ``render_report`` must stream: peak traced
    allocations while rendering a ≥ 100k-event binary trace stay far
    below what materialising the event list costs."""
    import tracemalloc

    from repro.obs import iter_trace, read_trace, render_report

    events = _recorded_events()
    tmp = tempfile.mkdtemp(prefix="bench-stream-")
    path = os.path.join(tmp, "big.rtb")
    tracer = BinaryTracer(path)
    runs = -(-100_000 // len(events))  # ceil: guarantee >= 100k events
    for __ in range(runs):
        for event in events:
            tracer.emit(event)
    tracer.close()
    total = runs * len(events)
    assert total >= 100_000

    tracemalloc.start()
    report = render_report(iter_trace(path))
    __, streamed_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    tracemalloc.start()
    materialised = read_trace(path)
    __, list_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(materialised) == total

    print(f"\n{total} events: streaming peak {streamed_peak / 1e6:.1f}MB, "
          f"materialised peak {list_peak / 1e6:.1f}MB")
    assert "CONGEST trace report" in report
    assert streamed_peak < list_peak / 5, (
        f"streaming render peaked at {streamed_peak}B, not clearly below "
        f"the materialised list's {list_peak}B")
