"""The synchronous CONGEST simulator.

Design notes
------------
- Vertices are identified by their graph labels.  CONGEST assumes
  O(log n)-bit identifiers; the simulator assigns each label an integer id
  in ``0..n-1`` and exposes both.  Uids follow the canonical label order
  of :func:`repro.graphs.label_sort_key` — ``(type name, repr)`` — so for
  integer labels the order is *repr order* (``10`` before ``2``), not
  numeric order.
- A round proceeds in lockstep: every awake vertex sees the messages
  delivered on its incident edges, updates state, and emits messages for
  the next round.  Message size is measured by :func:`message_bits` and
  checked against the bandwidth.  ``bandwidth=None`` selects the standard
  CONGEST ``Θ(log n)`` bound; ``bandwidth=math.inf`` is the LOCAL model —
  no bound, message sizes still accounted.
- Algorithms are written by subclassing :class:`NodeAlgorithm`.  One
  instance is created per vertex; the simulator owns scheduling and
  delivery only, so algorithms cannot cheat by sharing state.
"""

from __future__ import annotations

import math
import os
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple, Union

from repro.graphs import DiGraph, Graph, Vertex, label_sort_key

Message = Any

#: Identity sentinel for the broadcast fast path in ``_check_fast``
#: (``None`` is a legal message, so a private object is required).
_NO_MESSAGE = object()


class BandwidthExceeded(Exception):
    """A message exceeded the per-edge per-round bandwidth."""


def message_bits(msg: Message) -> int:
    """Size accounting for messages.

    Integers cost their two's-complement width, booleans 1 bit, floats 64,
    strings and byte strings 8 bits per character/byte, ``None`` 1 bit,
    and containers (tuples, lists, sets, frozensets, dicts) the sum of
    their items plus 2 bits of framing per item.  This deliberately
    over-counts a little; the paper's bounds are asymptotic and the
    simulator only needs a consistent, conservative measure.
    """
    if msg is None:
        return 1
    if isinstance(msg, bool):
        return 1
    if isinstance(msg, int):
        return max(1, msg.bit_length() + 1)
    if isinstance(msg, float):
        return 64
    if isinstance(msg, str):
        return 8 * len(msg)
    if isinstance(msg, (bytes, bytearray)):
        return 8 * len(msg)
    if isinstance(msg, (tuple, list)):
        return sum(message_bits(x) + 2 for x in msg)
    if isinstance(msg, dict):
        return sum(message_bits(k) + message_bits(v) + 4 for k, v in msg.items())
    if isinstance(msg, (set, frozenset)):
        return sum(message_bits(x) + 2 for x in msg)
    raise TypeError(f"unsupported message type {type(msg)!r}")


#: Bounded memo for :func:`message_bits`.  Keys are chosen so that no two
#: payloads with *different* bit costs can collide: scalars are keyed by
#: ``(type, value)`` (so ``True``/``1``/``1.0`` — equal under ``==`` but
#: differently sized — land in distinct buckets because their types
#: differ), and tuples are only cached when every element is exactly an
#: ``int`` (an equal tuple containing a ``bool``, e.g. ``(True, 2)`` vs
#: ``(1, 2)``, is never eligible for lookup or insertion, so the
#: collision cannot be observed).  The cache is cleared wholesale when it
#: reaches ``_BITS_CACHE_MAX`` entries — workloads cycle through a small
#: vocabulary of payload shapes, so eviction order is irrelevant.
_BITS_CACHE: Dict[Any, int] = {}
_BITS_CACHE_MAX = 4096


def cached_message_bits(msg: Message) -> int:
    """:func:`message_bits` with memoization for common hashable payloads.

    Falls back to the plain recursive computation for payload shapes the
    safe key scheme (see ``_BITS_CACHE``) does not cover.  Always returns
    exactly ``message_bits(msg)``.
    """
    tp = type(msg)
    if tp is tuple:
        for x in msg:
            if type(x) is not int:
                return message_bits(msg)
        key: Any = msg
    elif tp is str or tp is bytes:
        key = (tp, msg)
    else:
        return message_bits(msg)
    bits = _BITS_CACHE.get(key)
    if bits is None:
        if len(_BITS_CACHE) >= _BITS_CACHE_MAX:
            _BITS_CACHE.clear()
        bits = _BITS_CACHE[key] = message_bits(msg)
    return bits


def default_bandwidth(n: int, c: int = 8) -> int:
    """The standard CONGEST bandwidth ``c · ceil(log2 n)`` bits."""
    return c * max(1, math.ceil(math.log2(max(2, n))))


class NodeContext:
    """Everything a vertex is allowed to see locally.

    Attributes
    ----------
    label : the vertex label in the input graph
    uid : integer identifier in ``0..n-1`` (O(log n) bits)
    neighbors : sorted tuple of neighbour uids
    neighbor_set : the same uids as a frozenset (O(1) membership; the
        simulator's per-message destination check uses this)
    n : number of vertices (standard CONGEST assumption)
    input : per-vertex input (problem specific)
    """

    def __init__(self, label: Vertex, uid: int, neighbors: Tuple[int, ...],
                 n: int, node_input: Any,
                 edge_weights: Dict[int, float],
                 vertex_weight: float) -> None:
        self.label = label
        self.uid = uid
        self.neighbors = neighbors
        self.neighbor_set = frozenset(neighbors)
        self.n = n
        self.input = node_input
        self.edge_weights = edge_weights  # neighbour uid -> weight
        self.vertex_weight = vertex_weight
        self.output: Any = None
        self.halted = False

    def halt(self, output: Any = None) -> None:
        self.output = output
        self.halted = True


class NodeAlgorithm:
    """Base class for per-vertex CONGEST algorithms.

    Subclasses override :meth:`on_start` (messages for round 1) and
    :meth:`on_round` (invoked each round with the messages received).
    Both return a dict ``{neighbor uid: message}``; omitted neighbours get
    nothing.  Call ``ctx.halt(output)`` to stop; a halted vertex neither
    sends nor processes further messages.
    """

    def on_start(self, ctx: NodeContext) -> Dict[int, Message]:
        return {}

    def on_round(self, ctx: NodeContext, messages: Dict[int, Message]) -> Dict[int, Message]:
        raise NotImplementedError


class CongestSimulator:
    """Run a :class:`NodeAlgorithm` over a graph, enforcing bandwidth.

    The counters (``rounds``, ``total_messages``, ``total_bits``,
    ``max_message_bits``) are **per run**: :meth:`run` resets them on
    entry, so a reused simulator reports statistics for its latest run
    only.  Pass ``tracer=`` (see :mod:`repro.obs.trace`) to capture the
    full structured event stream; the legacy ``observer`` callback is
    kept working as an adapter layered on the same stream.
    """

    def __init__(
        self,
        graph: Union[Graph, DiGraph],
        bandwidth: Optional[float] = None,
        bandwidth_factor: int = 8,
        tracer: Optional[Any] = None,
    ) -> None:
        """``bandwidth=None`` selects the standard CONGEST
        ``bandwidth_factor·log2 n`` bits; ``math.inf`` gives the LOCAL
        model (no bound, sizes still accounted).  ``tracer=None``
        consults the ambient :func:`repro.obs.trace.default_tracer`
        (active inside ``trace_to_directory`` regions); pass
        ``NullTracer()`` to force tracing off.  A ``str``/path tracer
        opens a file tracer at that path via
        :func:`repro.obs.trace.open_tracer` (format inferred from the
        extension: ``.jsonl`` → JSON lines, else compact binary)."""
        self.graph = graph
        base = graph.to_undirected() if isinstance(graph, DiGraph) else graph
        self._base = base
        self.labels = sorted(base.vertices(), key=label_sort_key)
        self.uid_of = {v: i for i, v in enumerate(self.labels)}
        self.n = len(self.labels)
        if bandwidth is None:
            bandwidth = default_bandwidth(self.n, bandwidth_factor)
        self.bandwidth = bandwidth
        self.rounds = 0
        self.total_messages = 0
        self.total_bits = 0
        self.max_message_bits = 0
        if tracer is None:
            from repro.obs.trace import default_tracer
            tracer = default_tracer()
        elif isinstance(tracer, (str, os.PathLike)):
            from repro.obs.trace import open_tracer
            tracer = open_tracer(tracer)
        self.tracer = tracer
        #: the active event sink during :meth:`run` (tracer + observer
        #: adapter), or ``None`` when tracing is fully disabled.
        self._sink: Optional["Tracer"] = None
        #: optional callback ``(sender uid, receiver uid, bits)`` invoked on
        #: every message; used by the Theorem 1.1 two-party simulation.
        #: Internally implemented as an :class:`ObserverTracer` riding the
        #: event stream.
        self.observer: Optional[Callable[[int, int, int], None]] = None

    def _compose_sink(self) -> Optional["Tracer"]:
        """Combine the explicit tracer and the legacy observer into one
        sink; ``None`` when neither wants events (the hot path then skips
        event construction entirely)."""
        sinks = []
        if self.tracer is not None and getattr(self.tracer, "enabled", True):
            sinks.append(self.tracer)
        if self.observer is not None:
            from repro.obs.trace import ObserverTracer
            sinks.append(ObserverTracer(self.observer))
        if not sinks:
            return None
        if len(sinks) == 1:
            return sinks[0]
        from repro.obs.trace import MultiTracer
        return MultiTracer(sinks)

    def _emit(self, kind: str, **data: Any) -> None:
        from repro.obs.trace import TraceEvent
        self._sink.emit(TraceEvent(kind, self.rounds, data))

    def run(
        self,
        algorithm_factory: Callable[[], NodeAlgorithm],
        inputs: Optional[Dict[Vertex, Any]] = None,
        max_rounds: int = 100000,
        engine: str = "fast",
    ) -> Dict[Vertex, Any]:
        """Execute until every vertex halts; return outputs by label.

        Counters are reset on entry, so ``sim.rounds`` etc. always
        describe the most recent run.

        ``engine`` selects the round loop: ``"fast"`` (the default) runs
        the active-set scheduler, ``"reference"`` the straight-line loop
        it was derived from.  The two are observably identical — same
        outputs, counters, error selection, and trace event stream — and
        the ``congest:engine-equivalence`` check in :mod:`repro.check`
        enforces this; ``"reference"`` exists as that check's oracle and
        as executable documentation of the semantics.
        """
        if engine not in ("fast", "reference"):
            raise ValueError(f"unknown engine {engine!r}")
        self.rounds = 0
        self.total_messages = 0
        self.total_bits = 0
        self.max_message_bits = 0
        inputs = inputs or {}
        base = self._base
        contexts: Dict[int, NodeContext] = {}
        algos: Dict[int, NodeAlgorithm] = {}
        labels = self.labels
        for label in labels:
            uid = self.uid_of[label]
            nbrs = tuple(sorted(self.uid_of[w] for w in base.neighbors(label)))
            # Built from the sorted uid tuple, NOT by iterating the
            # neighbour set: set iteration order varies with
            # PYTHONHASHSEED, and edge_weights must present the same
            # dict order in every process.
            weights = {w: base.edge_weight(label, labels[w]) for w in nbrs}
            contexts[uid] = NodeContext(
                label, uid, nbrs, self.n, inputs.get(label),
                weights, base.vertex_weight(label))
            algos[uid] = algorithm_factory()

        self._sink = sink = self._compose_sink()
        if sink is not None:
            algo_name = type(next(iter(algos.values()))).__name__ \
                if algos else "?"
            self._emit("run_start", n=self.n, edges=base.m,
                       bandwidth=self.bandwidth, algorithm=algo_name)
        try:
            if engine == "fast":
                self._loop_fast(contexts, algos, max_rounds, sink)
            else:
                self._loop_reference(contexts, algos, max_rounds, sink)
            if sink is not None:
                self._emit("run_end", rounds=self.rounds,
                           total_messages=self.total_messages,
                           total_bits=self.total_bits,
                           max_message_bits=self.max_message_bits)
        finally:
            if sink is not None:
                sink.flush()
            self._sink = None
        return {ctx.label: ctx.output for ctx in contexts.values()}

    def _loop_fast(
        self,
        contexts: Dict[int, NodeContext],
        algos: Dict[int, NodeAlgorithm],
        max_rounds: int,
        sink: Optional["Tracer"],
    ) -> None:
        """Active-set round loop.

        Instead of scanning every context each round, it keeps the list
        of non-halted uids (ascending, matching the reference loop's
        iteration order so halt/message events and first-error selection
        are identical), stores only non-empty outboxes, and allocates
        inbox dicts only for uids that actually receive something.  With
        tracing off (``sink is None``) message accounting goes through
        :meth:`_check_fast`, which skips event construction and the
        defensive outbox copy and memoizes :func:`message_bits`.
        """
        check = self._check if sink is not None else self._check_fast
        # round 0: on_start.  Every vertex participates, and a vertex
        # that halts here still gets its messages delivered next round.
        outbox: List[Tuple[int, Dict[int, Message]]] = []
        active: List[int] = []
        for uid, ctx in contexts.items():
            msgs = check(algos[uid].on_start(ctx), ctx)
            if msgs:
                outbox.append((uid, msgs))
            if ctx.halted:
                if sink is not None:
                    self._emit("halt", uid=uid)
            else:
                active.append(uid)

        n = len(contexts)
        while active:
            if self.rounds >= max_rounds:
                raise RuntimeError(f"exceeded {max_rounds} rounds")
            self.rounds += 1
            if sink is not None:
                self._emit("round_start", active=len(active))
                msgs_before = self.total_messages
                bits_before = self.total_bits
            # Deliver.  Senders appear in ascending uid order, so each
            # receiver's inbox is keyed by ascending sender uid exactly
            # as the reference loop builds it.
            inbox: Dict[int, Dict[int, Message]] = {}
            for sender, msgs in outbox:
                for receiver, msg in msgs.items():
                    box = inbox.get(receiver)
                    if box is None:
                        box = inbox[receiver] = {}
                    box[sender] = msg
            outbox = []
            new_active: List[int] = []
            for uid in active:
                ctx = contexts[uid]
                # Non-receivers get a fresh empty dict (algorithms own
                # and may mutate their inbox).
                msgs = check(
                    algos[uid].on_round(ctx, inbox.get(uid) or {}), ctx)
                if msgs:
                    outbox.append((uid, msgs))
                if ctx.halted:
                    if sink is not None:
                        self._emit("halt", uid=uid)
                else:
                    new_active.append(uid)
            active = new_active
            if sink is not None:
                self._emit("round_end",
                           messages=self.total_messages - msgs_before,
                           bits=self.total_bits - bits_before,
                           halted=n - len(active))

    def _loop_reference(
        self,
        contexts: Dict[int, NodeContext],
        algos: Dict[int, NodeAlgorithm],
        max_rounds: int,
        sink: Optional["Tracer"],
    ) -> None:
        """The straight-line round loop the fast engine is checked
        against: scans every context each round and allocates an inbox
        per vertex, trading speed for obviousness."""
        # round 0: on_start
        outbox: Dict[int, Dict[int, Message]] = {}
        for uid, ctx in contexts.items():
            outbox[uid] = self._check(algos[uid].on_start(ctx), ctx)
            if sink is not None and ctx.halted:
                self._emit("halt", uid=uid)

        halted_total = sum(1 for ctx in contexts.values() if ctx.halted)
        while not all(ctx.halted for ctx in contexts.values()):
            if self.rounds >= max_rounds:
                raise RuntimeError(f"exceeded {max_rounds} rounds")
            self.rounds += 1
            if sink is not None:
                self._emit("round_start",
                           active=len(contexts) - halted_total)
                msgs_before = self.total_messages
                bits_before = self.total_bits
            inbox: Dict[int, Dict[int, Message]] = {uid: {} for uid in contexts}
            for sender, msgs in outbox.items():
                for receiver, msg in msgs.items():
                    inbox[receiver][sender] = msg
            outbox = {}
            for uid, ctx in contexts.items():
                if ctx.halted:
                    outbox[uid] = {}
                    continue
                outbox[uid] = self._check(
                    algos[uid].on_round(ctx, inbox[uid]), ctx)
                if ctx.halted:
                    halted_total += 1
                    if sink is not None:
                        self._emit("halt", uid=uid)
            if sink is not None:
                self._emit("round_end",
                           messages=self.total_messages - msgs_before,
                           bits=self.total_bits - bits_before,
                           halted=halted_total)

    def _check(self, msgs: Dict[int, Message], ctx: NodeContext) -> Dict[int, Message]:
        # A vertex may halt and still deliver the messages it returned in
        # the same round; it is only skipped from the next round onwards.
        #
        # Counter semantics on failure: messages are checked in the
        # batch's iteration order and the counters (``total_messages``,
        # ``total_bits``, ``max_message_bits``) are updated *per message
        # before* its bandwidth check.  When :class:`BandwidthExceeded`
        # is raised the counters therefore include every message checked
        # so far — the offending one included — and exclude the rest of
        # the rejected batch.  A simulator that raised mid-run reports
        # partial counts, not the counts of a completed run.
        sink = self._sink
        for receiver, msg in msgs.items():
            if receiver not in ctx.neighbor_set:
                raise ValueError(
                    f"vertex {ctx.uid} sending to non-neighbor {receiver}")
            bits = message_bits(msg)
            self.total_messages += 1
            self.total_bits += bits
            self.max_message_bits = max(self.max_message_bits, bits)
            ok = bits <= self.bandwidth
            if sink is not None:
                self._emit("message", sender=ctx.uid, receiver=receiver,
                           bits=bits, ok=ok)
            if not ok:
                raise BandwidthExceeded(
                    f"{bits}-bit message exceeds bandwidth {self.bandwidth}")
        return dict(msgs)

    def _check_fast(self, msgs: Dict[int, Message], ctx: NodeContext) -> Dict[int, Message]:
        # :meth:`_check` minus event construction and the defensive
        # ``dict(msgs)`` copy (no sink can observe the batch, and the
        # outbox is consumed before the algorithm runs again, so the
        # algorithm's own dict is delivered as-is).  Counters accumulate
        # locally and are flushed both on success and *before* either
        # raise, preserving the partial-counter semantics documented
        # above: on failure they include every message checked so far —
        # for :class:`BandwidthExceeded` the offending message included,
        # for the non-neighbor :class:`ValueError` excluded.
        if not msgs:
            return msgs
        neighbor_set = ctx.neighbor_set
        bandwidth = self.bandwidth
        batch_messages = 0
        batch_bits = 0
        batch_max = self.max_message_bits
        last_msg: Any = _NO_MESSAGE
        last_bits = 0
        for receiver, msg in msgs.items():
            if receiver not in neighbor_set:
                self.total_messages += batch_messages
                self.total_bits += batch_bits
                self.max_message_bits = batch_max
                raise ValueError(
                    f"vertex {ctx.uid} sending to non-neighbor {receiver}")
            if msg is last_msg:
                # broadcast fast path: the same payload object sent to
                # several neighbors is measured once
                bits = last_bits
            else:
                bits = cached_message_bits(msg)
                last_msg = msg
                last_bits = bits
            batch_messages += 1
            batch_bits += bits
            if bits > batch_max:
                batch_max = bits
            if bits > bandwidth:
                self.total_messages += batch_messages
                self.total_bits += batch_bits
                self.max_message_bits = batch_max
                raise BandwidthExceeded(
                    f"{bits}-bit message exceeds bandwidth {self.bandwidth}")
        self.total_messages += batch_messages
        self.total_bits += batch_bits
        self.max_message_bits = batch_max
        return msgs
