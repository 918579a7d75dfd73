"""Render a simulator trace into a round-by-round summary.

Consumed by the ``repro report trace`` CLI subcommand; also usable
directly::

    from repro.obs import iter_trace, render_report
    print(render_report(iter_trace("trace-0001.rtb")))

The renderer is single-pass and streaming: it accepts **any** event
iterable (a list, a ``RecordingTracer.events``, or a lazy
``iter_trace`` generator over a multi-million-event binary trace) and
aggregates through :class:`Metrics`/:class:`CutBitCounter` in
O(rounds + edges) memory — the events are never materialised.

The output is GitHub-flavoured markdown (which doubles as an ASCII
table in a terminal): a header with the run parameters, a per-round
table, and the busiest directed edges.  Pass ``alice_uids`` to add the
Theorem 1.1 cut-bit column.  Multi-run traces render a one-line run
index; pass ``run=N`` (CLI: ``--run N``) to restrict the report to the
N-th run (1-based).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.obs.metrics import CutBitCounter, Metrics
from repro.obs.trace import TraceEvent

__all__ = ["render_report", "select_run"]


def _fmt_util(value: Optional[float]) -> str:
    return "—" if value is None else f"{100.0 * value:.1f}%"


def select_run(events: Iterable[TraceEvent],
               run: int) -> Iterator[TraceEvent]:
    """Yield only the events of the ``run``-th run (1-based) — the
    events from its ``run_start`` up to (excluding) the next one.
    Lazy: stops reading the underlying stream once the run ends."""
    if run < 1:
        raise ValueError(f"run numbers are 1-based, got {run}")
    current = 0
    for event in events:
        if event.kind == "run_start":
            current += 1
            if current > run:
                return
        if current == run:
            yield event


def render_report(events: Iterable[TraceEvent],
                  alice_uids: Optional[Iterable[int]] = None,
                  top_edges: int = 5,
                  run: Optional[int] = None) -> str:
    """Markdown/ASCII summary of one trace (see module docstring).

    Raises :class:`ValueError` when the iterable yields no events
    (empty trace, or ``run`` beyond the last run in the trace).
    """
    if run is not None:
        events = select_run(events, run)
    metrics = Metrics()
    cut: Optional[CutBitCounter] = None
    if alice_uids is not None:
        cut = CutBitCounter(alice_uids)
    runs: List[Dict[str, Any]] = []
    n_events = 0
    for event in events:
        n_events += 1
        kind = event.kind
        if kind == "run_start":
            runs.append({"algorithm": event.data.get("algorithm"),
                         "n": event.data.get("n"), "rounds": None})
        elif kind == "run_end" and runs:
            runs[-1]["rounds"] = event.data.get("rounds")
        metrics.emit(event)
        if cut is not None:
            cut.emit(event)
    if n_events == 0:
        raise ValueError("trace contains no events"
                         + (f" for run {run}" if run is not None else ""))

    lines: List[str] = ["# CONGEST trace report", ""]
    summary = metrics.summary()
    if run is not None:
        lines.append(f"- showing run {run} only")
    elif len(runs) > 1:
        index = " · ".join(
            f"{i}: {r['algorithm'] or '?'} (n={r['n']}, "
            f"rounds={r['rounds'] if r['rounds'] is not None else '?'})"
            for i, r in enumerate(runs, start=1))
        lines.append(f"- **note**: trace contains {len(runs)} runs; the "
                     "tables below aggregate all of them "
                     "(select one with `--run N`)")
        lines.append(f"- runs: {index}")
    lines.append(f"- algorithm: `{summary['algorithm'] or '?'}`")
    lines.append(f"- n = {summary['n']}, m = {summary['edges']}, "
                 f"bandwidth = {summary['bandwidth']} bits/edge/round")
    lines.append(f"- rounds = {summary['rounds']}, "
                 f"messages = {summary['total_messages']}, "
                 f"bits = {summary['total_bits']}")
    mean_util = summary["mean_round_utilization"]
    if mean_util is not None:
        lines.append(f"- mean bandwidth utilization = {_fmt_util(mean_util)}")
    if cut is not None:
        lines.append(f"- cut bits = {cut.cut_bits} "
                     f"({cut.cut_messages} cut messages, "
                     f"|Alice| = {len(cut.alice)})")
    lines.append("")

    header = "| round | active | msgs | bits | cum bits | util |"
    rule = "|---|---|---|---|---|---|"
    if cut is not None:
        header += " cut bits |"
        rule += "---|"
    lines.extend(["## Rounds", "", header, rule])
    cumulative = 0
    for rnd in metrics.round_numbers():
        rs = metrics.per_round[rnd]
        cumulative += rs.bits
        active = "—" if rs.active is None else str(rs.active)
        row = (f"| {rnd} | {active} | {rs.messages} | {rs.bits} "
               f"| {cumulative} | {_fmt_util(metrics.round_utilization(rnd))} |")
        if cut is not None:
            row += f" {cut.bits_by_round.get(rnd, 0)} |"
        lines.append(row)
    lines.append("")

    busiest = metrics.busiest_edges(top_edges)
    if busiest:
        lines.extend([
            "## Busiest directed edges", "",
            "| edge (uid → uid) | msgs | bits | peak round bits | peak util |",
            "|---|---|---|---|---|",
        ])
        for es in busiest:
            util = _fmt_util(metrics.edge_utilization(es.edge))
            lines.append(f"| {es.edge[0]} → {es.edge[1]} | {es.messages} "
                         f"| {es.bits} | {es.peak_round_bits} | {util} |")
        lines.append("")
    return "\n".join(lines)
