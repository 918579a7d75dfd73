"""Fast-engine vs reference-loop differential check.

The CONGEST simulator ships two round loops (see
:meth:`repro.congest.model.CongestSimulator.run`): the wake-on-message
fast engine used in production and the straight-line reference loop it
was derived from.  The fast engine skips sleeping vertices; the
reference loop calls them anyway and fails the run if one acts.  This
check runs representative algorithms — every algorithm that sleeps
among them — through both and demands *observable identity*: the same
outputs, ``rounds``, ``total_messages``, ``total_bits``,
``max_message_bits``, the same exception (including
:class:`BandwidthExceeded` partial-counter semantics — counters include
every message checked up to and including the offending one), and — in
traced mode — the exact same event stream.  ``node_rounds`` is left
out: the two loops call different vertices by design.

Each scenario runs traced and untraced on both loops.  The untraced
runs matter because they exercise the fast engine's no-sink code path —
``_check_fast`` (no event construction, no outbox copy) — which the
traced runs bypass.

Every run also counts the Theorem 1.1 cut traffic across a fixed
bipartition (Alice = uids below n/2).  ``cut_bits``, ``cut_messages``
and ``cut_bits_by_round`` must agree across all four legs.  A completed
run's delivery-side tally must equal its send-side count.  In traced
mode, :class:`repro.obs.metrics.CutBitCounter` replayed over the event
stream must give the in-loop counts too, so the trace-level counter
stays an independent oracle of the simulator's own accounting.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.graphs import Graph


def _overflow_algorithm():
    """Nodes flood their uid once; then the max-uid node sends an
    oversized payload, tripping the bandwidth check mid-round with
    partial counters."""
    from repro.congest.model import Message, NodeAlgorithm, NodeContext

    class Overflow(NodeAlgorithm):
        def on_start(self, ctx: NodeContext) -> Dict[int, Message]:
            return {w: ctx.uid for w in ctx.neighbors}

        def on_round(self, ctx: NodeContext,
                     messages: Dict[int, Message]) -> Dict[int, Message]:
            if ctx.uid == ctx.n - 1 and ctx.neighbors:
                return {ctx.neighbors[0]: "x" * 4096}
            ctx.halt(None)
            return {}

    return Overflow


def _collect_scenario():
    """Collect-and-solve with a trivial deterministic solver: exercises
    the tuple-heavy edge-record broadcasts (the inline tuple sizing and
    the broadcast identity memo) and every kind of sleep."""
    from repro.congest.algorithms.collect import CollectAndSolve

    def solver(n: int, edge_records, vertex_records):
        return len(edge_records), {u: u % 2 == 0 for u in range(n)}

    return lambda: CollectAndSolve(solver)


def _aggregate_scenario():
    """Convergecast-broadcast of a sum: sleeps like collect-and-solve."""
    from repro.congest.algorithms.aggregate import SUM, ConvergecastBroadcast

    return lambda: ConvergecastBroadcast(*SUM)


_CUT_FIELDS = ("cut_bits", "cut_messages", "cut_bits_by_round")


def _snapshot(graph: Graph, factory: Callable, inputs: Optional[Dict],
              engine: str, traced: bool) -> Dict[str, Any]:
    from repro.congest.model import CongestSimulator
    from repro.obs import MultiTracer, NullTracer, RecordingTracer
    from repro.obs.trace import default_tracer

    tracer = RecordingTracer() if traced else NullTracer()
    sink: Any = tracer
    if traced:
        # fan into the ambient tracer too, so `repro check --trace-dir`
        # captures the engine-equivalence runs on disk
        ambient = default_tracer()
        if ambient is not None:
            sink = MultiTracer([tracer, ambient])
    alice = range((graph.n + 1) // 2)
    sim = CongestSimulator(graph, bandwidth_factor=40, tracer=sink,
                           cut=alice)
    outputs: Any = None
    error: Optional[str] = None
    try:
        outputs = sim.run(factory, inputs=inputs, engine=engine)
    except Exception as exc:  # parity of *any* failure is the contract
        error = f"{type(exc).__name__}: {exc}"
    return {
        "outputs": outputs,
        "error": error,
        "rounds": sim.rounds,
        "total_messages": sim.total_messages,
        "total_bits": sim.total_bits,
        "max_message_bits": sim.max_message_bits,
        "cut_bits": sim.cut_bits,
        "cut_messages": sim.cut_messages,
        "cut_bits_by_round": dict(sim.cut_bits_by_round),
        "cut_audit": _audit_cut(sim, alice, error is None,
                                tracer.events if traced else None),
        "events": list(tracer.events) if traced else None,
    }


def _audit_cut(sim: Any, alice: range, completed: bool,
               events: Optional[List[Any]]) -> Optional[str]:
    """The simulator's send-side cut counts against its delivery-side
    tally (complete only for a completed run) and, given the run's
    events, against :class:`CutBitCounter` replayed over them."""
    from repro.obs import CutBitCounter

    in_loop = (sim.cut_bits, sim.cut_messages, sim.cut_bits_by_round)
    delivered = (sim.delivery_cut_bits, sim.delivery_cut_messages)
    if completed and delivered != in_loop[:2]:
        return (f"delivery side counted {delivered[0]} bits / "
                f"{delivered[1]} messages, send side "
                f"{in_loop[0]} / {in_loop[1]}")
    if events is not None:
        oracle = CutBitCounter(alice).consume(events)
        replayed = (oracle.cut_bits, oracle.cut_messages,
                    oracle.bits_by_round)
        if replayed != in_loop:
            return (f"CutBitCounter over the trace gave {replayed!r}, "
                    f"the simulator {in_loop!r}")
    return None


def _diff(ref: Dict[str, Any], cand: Dict[str, Any]) -> Optional[str]:
    # the error first: a failed run has no outputs to compare
    for field in ("error", "outputs", "rounds", "total_messages",
                  "total_bits", "max_message_bits") + _CUT_FIELDS:
        if ref[field] != cand[field]:
            return f"{field}: reference={ref[field]!r} fast={cand[field]!r}"
    if ref["events"] is not None:
        if len(ref["events"]) != len(cand["events"]):
            return (f"event stream length: reference={len(ref['events'])} "
                    f"fast={len(cand['events'])}")
        for i, (a, b) in enumerate(zip(ref["events"], cand["events"])):
            if a != b:
                return f"event {i}: reference={a!r} fast={b!r}"
    return None


def _scenarios(graph: Graph) -> List[Tuple[str, Callable, Optional[Dict]]]:
    from repro.congest.algorithms.basic import BfsFromRoot, FloodMinId

    scenarios: List[Tuple[str, Callable, Optional[Dict]]] = [
        ("flood-min-id", FloodMinId, None),
        ("bfs-from-root", BfsFromRoot,
         {v: 0 for v in graph.vertices()}),
    ]
    if graph.m >= 1:
        scenarios.append(
            ("bandwidth-overflow", _overflow_algorithm(), None))
    if graph.n >= 2 and graph.is_connected():
        scenarios.append(("collect-and-solve", _collect_scenario(), None))
        scenarios.append(("convergecast-broadcast", _aggregate_scenario(),
                          {v: 1 for v in graph.vertices()}))
    return scenarios


def check_engine_equivalence(graph: Graph) -> Optional[str]:
    """The fast engine must be observably identical to the reference
    loop.

    Returns ``None`` on agreement, else a message naming the scenario,
    mode, and first diverging field/event.
    """
    for name, factory, inputs in _scenarios(graph):
        refs = []
        for traced in (False, True):
            mode = "traced" if traced else "untraced"
            ref = _snapshot(graph, factory, inputs, "reference", traced)
            cand = _snapshot(graph, factory, inputs, "fast", traced)
            for engine, snap in (("reference", ref), ("fast", cand)):
                if snap["cut_audit"] is not None:
                    return (f"cut accounting [{name}, {engine}, {mode}]: "
                            f"{snap['cut_audit']}")
            diff = _diff(ref, cand)
            if diff is not None:
                return f"engine divergence [{name}, fast, {mode}]: {diff}"
            refs.append(ref)
        untraced, traced_ref = refs
        for field in _CUT_FIELDS:
            if untraced[field] != traced_ref[field]:
                return (f"cut divergence [{name}, reference]: {field}: "
                        f"untraced={untraced[field]!r} "
                        f"traced={traced_ref[field]!r}")
    return None
