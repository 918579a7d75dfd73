"""Fast-engine vs reference-loop differential check.

The CONGEST simulator ships two round loops (see
:meth:`repro.congest.model.CongestSimulator.run`): the active-set fast
engine used in production and the straight-line reference loop it was
derived from.  This check runs representative algorithms through both
and demands *observable identity*: the same outputs, ``rounds``,
``total_messages``, ``total_bits``, ``max_message_bits``, the same
exception (including :class:`BandwidthExceeded` partial-counter
semantics — counters include every message checked up to and including
the offending one), and — in traced mode — the exact same event stream.

Each scenario runs traced and untraced on both loops.  The untraced
runs matter because they exercise the fast engine's no-sink code path —
``_check_fast`` (no event construction, no outbox copy, memoized
``message_bits``) — which the traced runs bypass.
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
    the tuple-heavy edge-record broadcasts (the message-bits cache and
    the broadcast identity memo)."""
    from repro.congest.algorithms.collect import CollectAndSolve

    def solver(n: int, edge_records, vertex_records):
        return len(edge_records), {u: u % 2 == 0 for u in range(n)}

    return lambda: CollectAndSolve(solver)


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
    sim = CongestSimulator(graph, bandwidth_factor=40, tracer=sink)
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
        "events": list(tracer.events) if traced else None,
    }


def _diff(ref: Dict[str, Any], cand: Dict[str, Any]) -> Optional[str]:
    for field in ("outputs", "error", "rounds", "total_messages",
                  "total_bits", "max_message_bits"):
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
    return scenarios


def check_engine_equivalence(graph: Graph) -> Optional[str]:
    """The fast engine must be observably identical to the reference
    loop.

    Returns ``None`` on agreement, else a message naming the scenario,
    mode, and first diverging field/event.
    """
    for name, factory, inputs in _scenarios(graph):
        for traced in (False, True):
            ref = _snapshot(graph, factory, inputs, "reference", traced)
            cand = _snapshot(graph, factory, inputs, "fast", traced)
            diff = _diff(ref, cand)
            if diff is not None:
                mode = "traced" if traced else "untraced"
                return f"engine divergence [{name}, fast, {mode}]: {diff}"
    return None
