"""Tracing overhead on a 500-vertex broadcast.

Acceptance gates for the observability layer:

- an attached :class:`NullTracer` must cost ≤ 5% wall-clock versus an
  untraced run, as the median ratio over alternating pairs of runs
  (its ``enabled = False`` flag makes the simulator skip event
  construction, so the hot message path is identical);
- the ``.rtb`` format must stay compact: the recorded event stream
  written through a :class:`BinaryTracer` takes ≤ 10 bytes per event;
- the mmap-backed streaming reader must render a report from a
  ≥ 100k-event binary trace without materialising the events (peak
  traced allocations bounded well below the decoded list size).

The benchmark also reports what *enabled* tracing costs end-to-end
(``RecordingTracer``, ``BinaryTracer``), which is
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
    NullTracer,
    RecordingTracer,
    Tracer,
)

N_VERTICES = 500
EDGE_PROB = 0.012
HORIZON = 30
#: runs per tracer in the enabled-tracer cost report (best of)
REPEATS = 3
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
                  graph) -> float:
    return min(_run_seconds(make_tracer, graph) for __ in range(REPEATS))


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
    base = _best_seconds(lambda: None, g)
    rec = _best_seconds(RecordingTracer, g)
    tmp = tempfile.mkdtemp(prefix="bench-trace-")
    seq = iter(range(10))

    def binary():
        return BinaryTracer(os.path.join(tmp, f"bench-{next(seq)}.rtb"))

    btime = _best_seconds(binary, g)
    print(f"\nbaseline {base:.3f}s  RecordingTracer {rec:.3f}s "
          f"({rec / base:.2f}x)  BinaryTracer {btime:.3f}s "
          f"({btime / base:.2f}x)")
    # enabled tracing must stay within an order of magnitude — it is a
    # debugging/measurement mode, not the production path
    assert rec < 20 * base
    assert btime < 20 * base


def _recorded_events() -> List:
    rec = RecordingTracer()
    CongestSimulator(_graph(), tracer=rec).run(RepeatedBroadcast)
    return rec.events


def test_binary_trace_size_per_event():
    """The ``.rtb`` size gate: the recorded event stream written
    through a :class:`BinaryTracer` takes at most 10 bytes per event
    (message events, the bulk of the stream, are 9-byte records).
    Deterministic — the graph, the algorithm and the encoding are
    fixed."""
    events = _recorded_events()
    assert len(events) > 10_000, "workload too small to be meaningful"
    path = os.path.join(tempfile.mkdtemp(prefix="bench-size-"), "emit.rtb")
    with BinaryTracer(path) as tracer:
        for event in events:
            tracer.emit(event)
    size = os.path.getsize(path)
    print(f"\n{len(events)} events: BinaryTracer {size}B "
          f"({size / len(events):.3f} B/event)")
    assert size <= 10 * len(events), (
        f"binary trace {size}B exceeds 10 bytes per event "
        f"({size / len(events):.3f} B/event over {len(events)} events)")


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
